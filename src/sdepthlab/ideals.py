"""Exact monomial and monomial-ideal arithmetic plus the shared text format.

Monomials are exponent vectors over a fixed ambient variable count n; index i
of the vector belongs to variable ``x_{i+1}``.  Ideals are stored by their
minimal generating set in a canonical order, so ideal equality is plain value
equality and formatted output is byte-stable.

``Record`` and ``FrozenRecord`` give the package's classes value equality, a
``Name(field=value, ...)`` repr and, when frozen, a hash and no assignment;
``Counters`` builds and prints the opt-in stats records of both engines.
They stand in for ``dataclasses``, whose import and class builds every scan
process would otherwise pay for at start-up.
"""

from __future__ import annotations

import re
from itertools import repeat
from math import prod
from typing import Iterable

from .errors import IdealSyntaxError, InputError, InvalidPresentationError

MAX_AMBIENT = 20
MAX_EXPONENT = 30


def _check_ambient(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_AMBIENT:
        raise InputError(f"ambient variable count must be in 1..{MAX_AMBIENT}, got {n!r}")


class Record:
    """Value equality and a ``Name(field=value, ...)`` repr over ``_fields``.

    Two records are equal when they are of the same class and their field
    tuples are equal.  A record whose fields can change is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are its slots, set once by ``_init``.

    Its hash is that of its field tuple.  Assigning or deleting a field
    raises AttributeError, and pickling rebuilds it through its constructor.
    """

    __slots__ = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Counters(Record):
    """A mutable record of counts, each field given by position or keyword.

    A field not given gets a fresh value from its factory in ``_defaults``,
    ``int`` (0) unless the class names another.  A field given twice, an
    unknown name or more values than fields raises TypeError.
    """

    _defaults: dict[str, type] = {}

    def __init__(self, *values: object, **named: object) -> None:
        name = type(self).__qualname__
        if len(values) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} values, got {len(values)}")
        for field, value in zip(self._fields, values):
            if field in named:
                raise TypeError(f"{name}() got multiple values for {field!r}")
            named[field] = value
        for field in self._fields:
            value = named.pop(field) if field in named else self._defaults.get(field, int)()
            setattr(self, field, value)
        if named:
            raise TypeError(f"{name}() got an unknown field {next(iter(named))!r}")

    def format(self) -> str:
        """One line of ``name=value`` pairs, each list joined with commas."""
        return " ".join(
            f"{field}={','.join(map(str, value)) if isinstance(value, list) else value}"
            for field, value in zip(self._fields, self._values())
        )


class Monomial(FrozenRecord):
    """A monomial, stored as a tuple of nonnegative exponents of length n."""

    __slots__ = _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        _check_ambient(len(exponents))
        for e in exponents:
            if not isinstance(e, int) or e < 0:
                raise InputError(f"exponents must be nonnegative integers, got {e!r}")
            if e > MAX_EXPONENT:
                raise InputError(f"exponent {e} exceeds the cap {MAX_EXPONENT}")
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def trusted(cls, exponents: tuple[int, ...]) -> "Monomial":
        """A monomial of exponents the caller knows to be valid, unchecked."""
        monomial = object.__new__(cls)
        _set_exponents(monomial, exponents)
        return monomial

    # Sets and sorts of generators compare and hash monomials, so these two
    # skip the generic field tuple.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponents,))

    @property
    def ambient(self) -> int:
        return len(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def is_constant(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the variables that occur."""
        return tuple(j + 1 for j, e in enumerate(self.exponents) if e)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def colon_by(self, other: "Monomial") -> "Monomial":
        """The monomial ``self / gcd(self, other)``."""
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, other.exponents)))

    def sort_key(self) -> tuple:
        # Graded, then variable-major lexicographic: x1*x2 < x1*x6 < x5*x6.
        return (self.degree(), tuple((j, e) for j, e in enumerate(self.exponents) if e))

    def __str__(self) -> str:
        if self.is_constant():
            return "1"
        parts = []
        for j, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{j + 1}")
            elif e > 1:
                parts.append(f"x{j + 1}^{e}")
        return "*".join(parts)


_set_exponents = Monomial.exponents.__set__


def monomial(n: int, factors: Iterable[int]) -> Monomial:
    """Monomial in ambient n from an iterable of 1-based variable indices.

    Repeated indices multiply, so ``monomial(3, [1, 1, 2])`` is x1^2*x2.
    """
    _check_ambient(n)
    exps = [0] * n
    for j in factors:
        if not 1 <= j <= n:
            raise InputError(f"variable index {j} out of range 1..{n}")
        exps[j - 1] += 1
    return Monomial(tuple(exps))


def variable(n: int, j: int) -> Monomial:
    return monomial(n, [j])


def constant(n: int) -> Monomial:
    return Monomial((0,) * n)


class MonomialIdeal(FrozenRecord):
    """A monomial ideal stored by its minimal generators in canonical order.

    Construct through :func:`minimalize` (or :func:`parse_ideal`); the
    constructor verifies canonical form rather than repairing it.  The zero
    ideal has no generators, the unit ideal exactly one constant generator.
    """

    __slots__ = _fields = ("ambient", "gens")

    def __init__(self, ambient: int, gens: tuple[Monomial, ...]) -> None:
        _check_ambient(ambient)
        for g in gens:
            if g.ambient != ambient:
                raise InputError("generator ambient mismatch")
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if g.divides(h) or h.divides(g):
                    raise InputError("generators are not minimal")
        if list(gens) != sorted(gens, key=Monomial.sort_key):
            raise InputError("generators are not in canonical order")
        self._init(ambient, gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_constant()

    def is_proper(self) -> bool:
        return not self.is_zero() and not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def __str__(self) -> str:
        return format_ideal(self)


def minimalize(gens: Iterable[Monomial], ambient: int) -> MonomialIdeal:
    """Ideal generated by ``gens``: drops divisible generators, sorts, dedups.

    Idempotent and insensitive to the input order; empty input gives the zero
    ideal.
    """
    unique = sorted(set(gens), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for g in unique:
        # Any proper divisor has smaller degree, hence was seen already.
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return MonomialIdeal(ambient, tuple(kept))


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ())


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (constant(n),))


def member(ideal: MonomialIdeal, u: Monomial) -> bool:
    """Ideal membership: some minimal generator divides u."""
    if u.ambient != ideal.ambient:
        raise InputError("ambient mismatch in membership test")
    return any(g.divides(u) for g in ideal.gens)


def box_steps(bound: tuple[int, ...]) -> list[tuple[int, int]]:
    """(weight, below) for each coordinate j of the box [0, bound].

    A set of cells is an int with one bit per cell, indexed by mixed-radix
    code (radix bound_j + 1, x1 least significant).  ``weight`` is the code
    step of coordinate j and ``below`` the set of cells whose coordinate j is
    below bound_j, the cells from which one step along j stays in the box.
    """
    size = prod(b + 1 for b in bound)
    steps = []
    weight = 1
    for b in bound:
        period = weight * (b + 1)
        # The cells whose coordinate is below b: one period, then doubling.
        below, span = (1 << weight * b) - 1, period
        while span < size:
            below |= below << span
            span *= 2
        steps.append((weight, below))
        weight = period
    return steps


def box_upset(cells: int, bound: tuple[int, ...]) -> int:
    """Close a set of cells of the box [0, bound] upwards.

    Cells are indexed as in ``box_steps``.  A cell lies in a monomial ideal
    exactly when it is a generator's cell or the cell one step below it along
    some coordinate does, so closing the generators' cells gives the ideal's:
    bound_j shifts along coordinate j, each masked to the cells below the
    bound there, reach every cell above.
    """
    for b, (weight, below) in zip(bound, box_steps(bound)):
        for _ in range(b):
            cells |= (cells & below) << weight
    return cells


_ONE = re.compile("1")


def set_bits(mask: int) -> list[int]:
    """Positions of the one-bits of ``mask``, ascending.

    The binary digits are reversed, lowest first, and searched for ones in C,
    so the Python work is per one-bit, not per digit.
    """
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def submasks(mask: int) -> int:
    """The set of submasks of ``mask``, with bit s set for each submask s."""
    below = 1
    for j in range(mask.bit_length()):
        if mask >> j & 1:
            below |= below << (1 << j)
    return below


def colon(ideal: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """The colon ideal (I : u), generated by g / gcd(g, u) over generators g."""
    if u.ambient != ideal.ambient:
        raise InputError("ambient mismatch in colon")
    return minimalize((g.colon_by(u) for g in ideal.gens), ideal.ambient)


def add_generators(ideal: MonomialIdeal, extra: Iterable[Monomial]) -> MonomialIdeal:
    """Ideal generated by the old generators together with ``extra``."""
    extra = tuple(extra)
    for g in extra:
        if g.ambient != ideal.ambient:
            raise InputError("ambient mismatch in add_generators")
    return minimalize(ideal.gens + extra, ideal.ambient)


# ---------------------------------------------------------------------------
# Text format
#
#   ideal    := "n" "=" INT ":" ( "0" | gens )
#   gens     := monomial ("," monomial)*
#   monomial := "1" | factor ("*" factor)*
#   factor   := "x" INT ("^" INT)?
#
# Whitespace is ignored everywhere.  "0" denotes the zero ideal; the bare
# monomial "1" denotes the constant generator of the unit ideal (needed so
# that every ideal, unit included, round-trips through the formatter).
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<sym>[nx=:,*^])|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "ws":
            continue
        if match.lastgroup == "bad":
            raise IdealSyntaxError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            expected = value if value is not None else kind
            raise IdealSyntaxError(f"expected {expected!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def take_int(self) -> tuple[int, int]:
        tok = self.take("int")
        return int(tok[1]), tok[2]


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal text format; returns the minimalized ideal."""
    p = _Parser(text)
    p.take("sym", "n")
    p.take("sym", "=")
    n, npos = p.take_int()
    if not 1 <= n <= MAX_AMBIENT:
        raise IdealSyntaxError(f"n must be in 1..{MAX_AMBIENT}, got {n}", npos)
    p.take("sym", ":")

    kind, value, pos = p.peek()
    if kind == "int" and value == "0":
        p.pos += 1
        p.take("end")
        return zero_ideal(n)

    gens = [_parse_monomial(p, n)]
    while p.peek()[0] == "sym" and p.peek()[1] == ",":
        p.pos += 1
        gens.append(_parse_monomial(p, n))
    p.take("end")
    return minimalize(gens, n)


def _parse_monomial(p: _Parser, n: int) -> Monomial:
    kind, value, pos = p.peek()
    if kind == "int":
        if value == "1":
            p.pos += 1
            return constant(n)
        raise IdealSyntaxError(f"unexpected number {value!r}; a monomial is '1' or x-factors", pos)
    exps = [0] * n
    _parse_factor(p, n, exps)
    while p.peek()[0] == "sym" and p.peek()[1] == "*":
        p.pos += 1
        _parse_factor(p, n, exps)
    return Monomial(tuple(exps))


def _parse_factor(p: _Parser, n: int, exps: list[int]) -> None:
    p.take("sym", "x")
    index, ipos = p.take_int()
    if not 1 <= index <= n:
        raise IdealSyntaxError(f"variable index {index} out of range 1..{n}", ipos)
    exponent = 1
    if p.peek()[0] == "sym" and p.peek()[1] == "^":
        p.pos += 1
        exponent, epos = p.take_int()
        if exponent == 0:
            raise IdealSyntaxError("exponent 0 is not allowed", epos)
        if exponent > MAX_EXPONENT:
            raise IdealSyntaxError(f"exponent {exponent} exceeds the cap {MAX_EXPONENT}", epos)
    exps[index - 1] += exponent
    if exps[index - 1] > MAX_EXPONENT:
        raise IdealSyntaxError(f"accumulated exponent exceeds the cap {MAX_EXPONENT}", ipos)


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse a single monomial in ambient n ('1' denotes the constant)."""
    _check_ambient(n)
    p = _Parser(text)
    mono = _parse_monomial(p, n)
    p.take("end")
    return mono


def format_ideal(ideal: MonomialIdeal) -> str:
    """Canonical text form; ``parse_ideal(format_ideal(I)) == I`` for every I."""
    if ideal.is_zero():
        return f"n={ideal.ambient}: 0"
    return f"n={ideal.ambient}: " + ", ".join(str(g) for g in ideal.gens)


class QuotientPresentation(FrozenRecord):
    """Presents the module numerator/denominator with denominator inside numerator.

    ``numerator`` may be the unit ideal (the module is then the quotient ring
    by ``denominator``) and ``denominator`` may be the zero ideal.  The pair
    must present a nonzero module.
    """

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, numerator: MonomialIdeal, denominator: MonomialIdeal) -> None:
        if numerator.ambient != denominator.ambient:
            raise InvalidPresentationError("numerator and denominator ambient differ")
        for g in denominator.gens:
            if not member(numerator, g):
                raise InvalidPresentationError(
                    f"denominator generator {g} is not inside the numerator"
                )
        if numerator == denominator:
            raise InvalidPresentationError("numerator equals denominator: module is zero")
        self._init(numerator, denominator)

    @property
    def ambient(self) -> int:
        return self.numerator.ambient


def ring_quotient(ideal: MonomialIdeal) -> QuotientPresentation:
    """The presentation of the quotient ring by a proper ideal (numerator = unit)."""
    if ideal.is_unit():
        raise InvalidPresentationError("quotient by the unit ideal is the zero module")
    return QuotientPresentation(unit_ideal(ideal.ambient), ideal)
