"""One run of one workload; the command ``BENCHMARK.json`` names.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  Prints progress and the
full record (a ``RECORD`` line) first, and as its last line one JSON
object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 0 when the run measured, its outputs were right and
its repetitions were identical work; 1 on a wrong output or a
determinism mismatch; 2 when it cannot run at all (no ``src/`` beside
it), printing no result.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: What a user of these workloads imports: timed as part of set-up.
REPRO_IMPORTS = (
    "repro.apps.retail.knactor_app", "repro.apps.retail.rest_gateway",
    "repro.apps.retail.storefront", "repro.load", "repro.flow",
    "repro.store", "repro.simnet", "repro.realtime", "repro.query",
    "repro.obs.registry",
)
IMPORT_SAMPLES = 5


def bootstrap():
    """Make ``repro`` and ``benchmarks.perf`` importable from a checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmarks/perf: no src/repro under {ROOT}; this benchmark "
            "measures the repo it sits in and cannot run without it\n")
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_import():
    """Seconds to import the ``repro`` packages the workloads use, sampled.

    Set-up is what a user pays before the first op, and importing is
    most of it, so it is sampled several times in one run: the modules
    are dropped and imported again.  The first import is a warm-up and
    is not kept: it also pays for the standard library and, in a fresh
    checkout, byte-compilation, neither of which is this repo's cost.
    Each repetition's set-up time is one sample plus its own build.
    """
    import importlib

    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        for name in [n for n in sys.modules
                     if n == "repro" or n.startswith("repro.")]:
            del sys.modules[name]
        started = time.perf_counter()
        for name in REPRO_IMPORTS:
            importlib.import_module(name)
        samples.append(time.perf_counter() - started)
    return samples[1:]


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed repetitions measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (self-tests only)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    bootstrap()
    import_s = timed_import()
    from benchmarks.perf import runner  # after the last re-import

    if args.workload not in runner.WORKLOADS:
        sys.stderr.write(
            f"unknown workload {args.workload!r}; one of "
            f"{', '.join(runner.WORKLOADS)}\n")
        return 2
    if args.trace:
        record = runner.run_traced(
            args.workload, args.seed, import_s, args.scale)
    else:
        record = runner.run_untraced(
            args.workload, args.seed, args.seconds, import_s, args.scale)
    for problem in record["problems"]:
        sys.stderr.write(f"{args.workload}: {problem}\n")
    result = runner.driver_result(record)
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
