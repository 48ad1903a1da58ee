"""``python -m benchmarks.perf``: run every workload, or compare two files.

    PYTHONPATH=src python -m benchmarks.perf [--workload NAME] [--seed N]
                                             [--seconds S] [--out FILE]
    python -m benchmarks.perf compare A.json B.json [--force]

The run form executes each workload twice, each time in a fresh
subprocess of ``run.py``: untraced for the end-to-end metrics, traced
for the per-layer ones.  It prints every metric by name with its unit,
and exits non-zero on a wrong output or a determinism mismatch.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.perf import compare as comparing
from benchmarks.perf import spec

RUN = Path(__file__).resolve().with_name("run.py")
#: Seven ~2 s repetitions; the driver's ``BENCHMARK.json`` asks for 10.
DEFAULT_SECONDS = 14.0
#: One run of one workload must end well inside this (seconds).
RUN_TIMEOUT = 180


def run_one(workload, seed, seconds, trace):
    """One ``run.py`` subprocess -> (its RECORD, its exit code)."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT,
    )
    record = None
    for line in done.stdout.splitlines():
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
    return record, done.returncode


def print_workload(name, untraced, traced):
    print(f"\n== {name}: {spec.WORKLOADS[name]}")
    print(f"   op = {untraced['op_unit']}; {untraced['loop']} loop; "
          f"{untraced['repetitions']} timed repetitions of "
          f"{untraced['ops_per_repetition']} ops; "
          f"size {untraced['size']}")
    print(f"   state digest {untraced['state_digest'][:16]}  "
          f"kernel events {untraced['kernel_events']}  "
          f"deterministic {untraced['deterministic']}")
    print("   end to end (median [q1 .. q3] over repetitions):")
    for metric in spec.END_TO_END:
        stats = untraced["end_to_end"].get(metric.name)
        if stats is None:
            continue
        print(f"     {metric.name:<20}{stats['median']:>14.6g} "
              f"{metric.unit:<6} [{stats['q1']:.6g} .. {stats['q3']:.6g}]"
              f"  {metric.clock} clock, bound "
              + (f"+{metric.bound} absolute" if metric.absolute
                 else f"{100 * metric.bound:.0f} %"))
    print("   per layer (one traced repetition):")
    for metric in spec.PER_LAYER:
        value = traced["per_layer"][metric.name]
        print(f"     {metric.name:<42}{value:>14.6g} {metric.unit}")


def cmd_run(args):
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    out = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
           "workloads": {}}
    failed = []
    for name in names:
        records = {}
        for label, trace in (("untraced", 0), ("traced", 1)):
            record, code = run_one(name, args.seed, args.seconds, trace)
            if record is None:
                print(f"{name} ({label}): no result (exit {code})",
                      file=sys.stderr)
                failed.append(name)
                break
            records[label] = record
            if code != 0:
                failed.append(name)
                for problem in record["problems"]:
                    print(f"{name} ({label}): {problem}", file=sys.stderr)
        else:
            if records["untraced"]["state_digest"] != (
                    records["traced"]["state_digest"]):
                print(f"{name}: traced and untraced state digests differ",
                      file=sys.stderr)
                failed.append(name)
            out["workloads"][name] = records
            print_workload(name, records["untraced"], records["traced"])
    if out["workloads"]:
        out["calib_mops"] = statistics.median(
            records[label]["calib_mops"]
            for records in out["workloads"].values() for label in records)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    if failed:
        print(f"\nFAILED: {', '.join(sorted(set(failed)))}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args):
    try:
        result = comparing.compare(
            comparing.load(args.a), comparing.load(args.b), force=args.force)
    except comparing.Refusal as exc:
        print(f"refusing to compare: {exc} (use --force)", file=sys.stderr)
        return 2
    print(comparing.render(result))
    bad = comparing.regressions(result)
    for name, metric, what in bad:
        print(f"{name}: {metric} {what}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
        parser.add_argument("a")
        parser.add_argument("b")
        parser.add_argument("--force", action="store_true")
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="benchmarks.perf")
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--out")
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
