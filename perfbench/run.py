"""relprime benchmark: run one workload, check every answer, report metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; relprime is imported from its
src/ directory, never from an installed copy.  Each run:

1. builds the workload's round of queries from the seed;
2. times ``import relprime`` in several fresh interpreters (setup_s);
3. runs the round in a closed loop in one more fresh interpreter, one
   client, no threads, for about --seconds (see worker.py);
4. checks every value returned against reference.py, which shares no
   code with the package, and counts failures: an exception, a nonzero
   CLI exit, a missing value, or a wrong digest;
5. prints the environment and every metric with its unit and sample
   count, then one JSON line with the metrics as the last line.

Every time is scaled to a nominal host speed by a calibration taken
next to it (see calibration.py), and each value's latency is its
median over the run's rounds: the shared host's speed drifts too much
for raw timings to repeat.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
and traced rounds, reports the per-layer metrics of tracing.py per
traced round, and writes the first traced round's spans under
.bench_out/ in the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import calibration
import reference
import workloads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 6  # fresh-interpreter imports before the workload, and again after
PROBE_TIMEOUT_S = 5
WORKER_TIMEOUT_S = 100

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_PROBE = """
import sys, time
from pathlib import Path
src = Path(sys.argv[1])
sys.path.insert(0, sys.argv[2])
import calibration
before = calibration.best_of(2)
sys.path.insert(0, str(src))
started = time.perf_counter()
import relprime
elapsed = time.perf_counter() - started
if src not in Path(relprime.__file__).resolve().parents:
    sys.exit(f"relprime was imported from {relprime.__file__}, not {src}")
print(elapsed, (before + calibration.best_of(2)) / 2)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relprime" / "__init__.py").is_file():
        print(f"run.py: no relprime sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, separators=(",", ":")))
    return 0


class BenchmarkError(Exception):
    """A run that could not be measured; it prints no result."""


def run(name, seed, seconds, trace, scale=1.0):
    """Measure one workload and return the result object; prints a report."""
    queries = workloads.build(name, seed, scale)
    setup = measure_setup(SETUP_PROBES)
    report = run_worker(queries, seconds, trace)
    setup += [report["import_s"] * calibration.NOMINAL_S / report["import_cal_s"]]
    setup += measure_setup(SETUP_PROBES)
    outcome = check(queries, report["runs"], reference_digests(queries, report["runs"]))
    cal = statistics.median(outcome["calibrations"])

    print(f"relprime benchmark: workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(f"host: calibration median {1000 * cal:.4f} ms against {1000 * calibration.NOMINAL_S:.4f}"
          f" ms nominal, so its speed is {calibration.NOMINAL_S / cal:.4f} of nominal")
    print(f"checked {outcome['attempted']} values against the reference: "
          f"{outcome['failed']} failed, {outcome['wrong']} of them wrong answers")
    for message, count in outcome["errors"].items():
        print(f"  failure x{count}: {message}")
    if trace:
        metrics = report["per_layer"]
        print(f"per traced round, unscaled ({report['rounds']} plain and traced round pairs):")
        for metric, unit, note in PER_LAYER:
            print(f"  {metric:<28} {metrics[metric]:>16.6g} {unit:<6} {note}")
        write_trace(name, seed, report)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(setup, outcome, report["peak_rss_mb"])
        samples, rounds = len(outcome["latencies"]), report["rounds"]
        notes = {
            "setup_s": f"median of {len(setup)} fresh-interpreter imports",
            "queries_per_s": f"{outcome['ok_per_round']:.0f} good values per round "
                             f"in {outcome['round_s']:.3f} s",
            "query_p50_ms": f"{samples} samples, each a value's median of {rounds} rounds",
            "query_p90_ms": f"{samples} samples, each a value's median of {rounds} rounds",
            "peak_rss_mb": "ru_maxrss of the workload process, not scaled",
        }
        units = dict(END_TO_END)
        for metric, unit in END_TO_END:
            print(f"  {metric:<16} {metrics[metric]:>14.6g} {unit:<5} {notes[metric]}")
        print(f"  {'error_rate':<16} {outcome['failed'] / outcome['attempted']:>14.6g} "
              f"{'ratio':<5} {outcome['failed']} failed of {outcome['attempted']} attempted")
    return {
        "correct": outcome["wrong"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def measure_setup(probes):
    """Scaled seconds to import relprime, once per fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"importing relprime failed: {proc.stderr.strip()}")
        import_s, cal_s = map(float, proc.stdout.split())
        times.append(import_s * calibration.NOMINAL_S / cal_s)
    return times


def run_worker(queries, seconds, trace):
    job = {"src": str(SRC), "queries": queries, "seconds": seconds, "trace": trace}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def reference_digests(queries, runs):
    """Reference digests per query, for the queries that ran."""
    return [
        [workloads.digest(v) for v in reference.expected(q)] if ran else []
        for q, ran in zip(queries, runs)
    ]


def check(queries, runs, expected):
    """Compare every value of every run with its reference digest.

    A value fails when it is wrong or missing; a run that raised or
    exited nonzero after yielding all its values fails its last one.
    Every time is first scaled by the calibration taken around its run
    (see calibration.py).  Each value that passed gives one latency
    sample, the median of its scaled latencies over the runs; the round
    time sums each query's median scaled run time, failed runs included.
    """
    outcome = {"attempted": 0, "failed": 0, "wrong": 0, "ok_per_round": 0.0,
               "round_s": 0.0, "latencies": [], "errors": {}, "calibrations": []}
    for query, digests, query_runs in zip(queries, expected, runs):
        scaled = [[] for _ in digests]
        ok = 0
        for elapsed, values, error, cal in query_runs:
            speed = calibration.NOMINAL_S / cal
            passed = [j for j, ((_, got), want) in enumerate(zip(values, digests)) if got == want]
            wrong = len(values) - len(passed)
            failed = len(digests) - len(passed)
            if error and failed == 0:
                passed.pop()
                failed = 1
            if wrong:
                error = error or "result differs from the reference"
            if error:
                key = f"{_describe(query)}: {error}"
                outcome["errors"][key] = outcome["errors"].get(key, 0) + 1
            for j in passed:
                scaled[j].append(values[j][0] * speed)
            outcome["attempted"] += len(digests)
            outcome["wrong"] += wrong
            outcome["failed"] += failed
            outcome["calibrations"].append(cal)
            ok += len(passed)
        if query_runs:
            outcome["ok_per_round"] += ok / len(query_runs)
            outcome["round_s"] += statistics.median(
                elapsed * calibration.NOMINAL_S / cal for elapsed, _, _, cal in query_runs
            )
        outcome["latencies"] += [statistics.median(times) for times in scaled if times]
    return outcome


def _describe(query):
    if query["via"] == "lib":
        return json.dumps(query)
    return "relprime " + " ".join(workloads.cli_argv(query))


def end_to_end(setup, outcome, peak_rss_mb):
    """The END_TO_END metrics from scaled times."""
    latencies = sorted(outcome["latencies"])
    if len(latencies) < 2:
        raise BenchmarkError(f"only {len(latencies)} successful values to time")
    return {
        "setup_s": statistics.median(setup),
        "queries_per_s": outcome["ok_per_round"] / outcome["round_s"],
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
    }


def write_trace(name, seed, report):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{seed}-trace.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "env": report["env"],
        "per_layer": report["per_layer"], "spans": report["spans"],
    }))
    print(f"spans of the first traced round: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
