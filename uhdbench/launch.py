"""Start ``repro-uhd serve`` for the benchmark, optionally traced.

Usage::

    python3 uhdbench/launch.py [--trace-dir DIR] -- serve --model M.npz ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--trace-dir`` the layer wrappers of :mod:`tracing` are installed first,
so the front end and the worker it forks both record spans; each writes
``DIR/spans-<pid>.json`` when it exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    tracer = None
    if own[:1] == ["--trace-dir"]:
        from tracing import Tracer, install

        tracer = Tracer(own[1])
        install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
