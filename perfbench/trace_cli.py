"""Run the sdepthlab CLI with spans recorded around the package's public functions.

Usage: python3 perfbench/trace_cli.py SPILL_DIR <sdepthlab arguments>
Every process (the CLI and its forked pool workers) writes its spans to
SPILL_DIR/spans-<pid>.json when it exits.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sdepthlab.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer(Path(sys.argv[1]))
    tracer.install()
    atexit.register(tracer.spill)
    return sdepthlab.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
