"""Run one finreg process with tracing on, and write its spans to a file.

    python perfbench/tracechild.py SPANS cli ARG...    finreg.cli.main(ARG...)
    python perfbench/tracechild.py SPANS setup P:N...  import finreg, build GF(P^N)

The import of finreg is recorded as a span named `<mode>.import`.  Standard
output, standard error and the exit code are those of the traced command.
"""

import sys
import time

from tracing import Tracer


def main(argv):
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    if mode == "cli":
        import finreg.cli
    else:
        import finreg  # noqa: F401
        from finreg import fields
    tracer.add(f"{mode}.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        if mode == "cli":
            return finreg.cli.main(rest)
        for spec in rest:
            p, n = spec.split(":")
            fields.finite_field(int(p), int(n))
        return 0
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
