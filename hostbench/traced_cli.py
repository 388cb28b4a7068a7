"""Run the ``repro`` command line with the tracing wrappers installed.

    python -X importtime -m hostbench.traced_cli SPANS.json ARGV...

Times ``import repro.cli``, wraps the program's entry points (see
:func:`hostbench.tracing.instrument_program`), runs
``repro.cli.main(ARGV)`` and writes the spans to ``SPANS.json`` when it
returns — ``repro serve`` returns normally on SIGTERM, so a traced
daemon writes them too.  ``-X importtime`` is how the harness learns
the part of the import spent under ``repro.stats``.
"""

from __future__ import annotations

import sys

from hostbench.tracing import Tracer, instrument_program


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    patches = instrument_program(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        patches.undo()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
