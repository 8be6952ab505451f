"""The repo's performance benchmark: one command, every metric by name.

Driver form (one workload, in this process; the last stdout line is the
result object)::

    python3 benchmarks/perf/run.py --workload scan_agg --seed 7 \\
        --seconds 10 --trace 0

Human form (every workload, each in its own fresh subprocess)::

    PYTHONPATH=src python -m benchmarks.perf.run \\
        [--seed S] [--trace] [--selfcheck] [--quick] [--write-baseline]

See README.md beside this file for the metrics, the workloads and how a
later change cites them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20130622
OUT_DIR = HERE / "out"
BASELINE = HERE / "BASELINE.json"


def _bootstrap() -> None:
    """Put the program (built from source: it is pure Python) and this
    package on the path; refuse to run without the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perf: the program's source is not at {ROOT / 'src' / 'repro'}; "
            "nothing to measure"
        )
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _print_untraced(name: str, seed: int, result: dict, extra: dict) -> None:
    print(
        f"workload {name}  seed {seed}  "
        f"({extra['setups']} set-ups, {extra['passes']} passes, "
        f"{result['attempted']} ops; {extra['latency_samples']} latency "
        f"samples over {extra['latency_positions']} schedule positions, "
        f"{extra['latency_samples_beyond_p90']} samples beyond p90)"
    )
    if extra["latency_samples_beyond_p90_rule"] < 10:
        print("  (fewer than 100 latency samples: p90 is not yet a tail)")
    raw = {
        "setup_s": (
            f"raw {extra['setup_raw_s']:.4f}, first cycle with lazy "
            f"imports {extra['setup_first_raw_s']:.4f}"
        ),
        "cal_ops_per_s": (
            f"raw {extra['raw_ops_per_s']:.3f}, machine speed "
            f"{extra['machine_speed']:.3f}"
        ),
    }
    for metric, entry in result["metrics"].items():
        note = f"   ({raw[metric]})" if metric in raw else ""
        print(f"  {metric:30s} {entry['value']:14.6f} {entry['unit']}{note}")
    print(
        f"  {'failed_share':30s} {result['failed'] / result['attempted']:14.6f} "
        f"fraction   ({result['failed']} of {result['attempted']} ops; "
        "sqlite3 oracle active)"
    )
    print(
        f"  {'rss_growth_mb':30s} {extra['rss_growth_mb']:14.6f} MB   "
        f"(first cycle)   drift_ratio {extra['drift_ratio']:.3f}"
    )


def _print_traced(name: str, seed: int, result: dict) -> None:
    print(f"workload {name}  seed {seed}  traced run (per-layer metrics)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:46s} {entry['value']:16.6f} {entry['unit']}")


def run_one(args) -> int:
    """One workload in this process; prints the result object last."""
    # One CPU for the whole process: the serving path hands a baton
    # between per-query threads, and letting the OS spread them over
    # cores made identical passes vary 0.27-0.48 s here (0.26-0.28 s
    # pinned).  The calibration spin runs on the same CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from benchmarks.perf import measure
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure.traced_run(
            workload, args.seed, args.quick, str(OUT_DIR)
        )
    else:
        result = measure.untraced_run(
            workload, args.seed, args.seconds, args.quick
        )
    # Units are declared once, in BENCHMARK.json.
    declared = _contract()["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != {spec["name"] for spec in declared}:
        sys.exit("perf: metrics reported differ from BENCHMARK.json")
    result["metrics"] = {
        spec["name"]: {
            "value": result["metrics"][spec["name"]], "unit": spec["unit"]
        }
        for spec in declared
    }
    if args.trace:
        _print_traced(workload.name, args.seed, result)
    else:
        extra = result.pop("harness")
        _print_untraced(workload.name, args.seed, result, extra)
        print("harness: " + json.dumps(extra))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """Run one workload in a fresh subprocess; returns (result, harness
    extras).  The child's report passes through to our stdout."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900, check=False
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(
            f"perf: {workload} (trace {trace}) exited {done.returncode}"
        )
    extra = {}
    for line in lines[:-1]:
        if line.startswith("harness: "):
            extra = json.loads(line[len("harness: "):])
        else:
            print(line)
    sys.stdout.flush()
    return json.loads(lines[-1]), extra


def _run_set(names, seed, seconds, trace, quick) -> dict:
    out = {}
    for name in names:
        result, extra = _child(name, seed, seconds, 0, quick)
        entry = {"untraced": result, "harness": extra}
        if trace:
            entry["traced"], _ = _child(name, seed, seconds, 1, quick)
        out[name] = entry
    return out


def worse_by(spec: dict, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if spec["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def selfcheck(contract: dict, first: dict, second: dict) -> int:
    """Fail unless every end-to-end metric of the second set is within
    its bound of the first.  Raw values are printed beside calibrated
    ones so the calibration's effect is on record."""
    failures = 0
    print("selfcheck: second set against first (worse-by vs bound)")
    for name in first:
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            a = first[name]["untraced"]["metrics"][metric]["value"]
            b = second[name]["untraced"]["metrics"][metric]["value"]
            delta = worse_by(spec, a, b)
            verdict = "ok" if delta <= spec["bound"] else "FAIL"
            failures += verdict == "FAIL"
            print(
                f"  {name:13s} {metric:28s} {a:12.5f} -> {b:12.5f} "
                f"{delta:+8.2%} (bound {spec['bound']:.0%}) {verdict}"
            )
        for key in ("raw_ops_per_s", "setup_raw_s"):
            a, b = first[name]["harness"][key], second[name]["harness"][key]
            print(
                f"  {name:13s} {'harness.' + key:28s} {a:12.5f} -> "
                f"{b:12.5f} {(b - a) / a:+8.2%} (raw, no bound)"
            )
        for label, data in (("first", first), ("second", second)):
            result = data[name]["untraced"]
            if result["failed"]:
                failures += 1
                print(
                    f"  {name:13s} {label} set: {result['failed']} of "
                    f"{result['attempted']} ops failed FAIL"
                )
    print(f"selfcheck: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def run_all(args) -> int:
    contract = _contract()
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds
    first = _run_set(names, args.seed, seconds, args.trace, args.quick)
    status = 0
    if args.selfcheck:
        second = _run_set(names, args.seed, seconds, 0, args.quick)
        status = selfcheck(contract, first, second)
    if any(entry["untraced"]["failed"] for entry in first.values()):
        status = 1
    if args.write_baseline:
        if args.quick:
            sys.exit("perf: --quick numbers are not a baseline")
        document = {
            "seed": args.seed,
            "seconds": seconds,
            "workloads": {
                name: {
                    kind: {
                        metric: value["value"]
                        for metric, value in entry[kind]["metrics"].items()
                    }
                    for kind in ("untraced", "traced")
                    if kind in entry
                }
                for name, entry in first.items()
            },
        }
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this one, in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="nominal measured seconds; sets the fixed cycle count "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, printing the per-layer metrics",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run the untraced set twice; fail if they disagree beyond "
        "the bounds",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, one cycle: a smoke run, not a measurement",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record this run's numbers in BASELINE.json beside this file",
    )
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds is None:
        args.seconds = float(_contract()["run_seconds"])
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
