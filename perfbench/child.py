"""One repetition of one workload, in a fresh process.

The first thing it does is import etaquad, so the parent can time set-up
from process start to here, and then it reads the speed gauge, by which
that time is scaled.  It then builds the seeded inputs, runs the
operation list (with spans when --trace 1) and prints one JSON line.
With --setup-only it stops after the import.
"""

import time

import etaquad
import etaquad.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (everything below is outside set-up)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

CHILD_LIMIT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKDIR = os.path.join(HERE, "work")  # table-dump writes its CLI dumps here


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.alarm(CHILD_LIMIT_S)
    src = os.path.realpath(SRC)
    if not os.path.realpath(etaquad.__file__).startswith(src + os.sep):
        print(f"perfbench: etaquad came from {etaquad.__file__}, not {src}", file=sys.stderr)
        return 2
    import gauge

    result = {"imported": IMPORTED, "setup_gauge": gauge.seconds()}
    if not args.setup_only:
        import numpy

        import inputs
        import tracing
        import workloads

        inp = inputs.make(args.workload, args.seed)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        run = workloads.run(args.workload, inp, tracer, WORKDIR, bool(args.check))
        if tracer:
            run["layers"] = tracing.layer_metrics(tracer.spans)
        run.update(
            inputs=inputs.digest(inp),
            units=inp["units"],
            python=platform.python_version(),
            numpy=numpy.__version__,
        )
        result.update(run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
