"""One workload's closed loop, run in a fresh interpreter.

Reads a job from stdin as JSON: {"src": path, "queries": [...],
"seconds": s, "trace": 0 or 1}.  Imports relprime from that source
tree (timing the import), then runs the round of queries again and
again, one at a time, until the next round would end past the deadline;
at least one round always runs.  Each value's latency is taken from
outside the package, and its digest is computed after the clock
stops.  Between queries the calibration kernel is timed too (see
calibration.py), so every timing has the host's speed beside it.
Writes one JSON report to stdout.

With trace 1, untraced and traced rounds alternate and the report
carries per-layer metrics per traced round, the ratio of traced to
untraced round time, and the spans of the first traced round.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import calibration
import workloads

perf_counter = time.perf_counter


class _Lines(io.TextIOBase):
    """A stdout stand-in that stamps the time each record is written."""

    def __init__(self):
        self.lines = []

    def writable(self):
        return True

    def write(self, text):
        self.lines.append((perf_counter(), text))
        return len(text)


class Runner:
    """Runs queries against the package's modules, looked up per call.

    Looking the functions up on their modules at call time is what lets
    the tracer's wrappers see every call.
    """

    def __init__(self, package):
        self.cli = package.cli
        self.counting = package.counting
        self.shonhiwa = package.shonhiwa
        self.setmodel = package.setmodel

    def run(self, query):
        """(seconds, [(latency, digest)], error) for one query."""
        if query["via"] == "lib":
            return self._library(query)
        return self._cli(query)

    def _library(self, query):
        start = perf_counter()
        try:
            value = self._call(query)
        except Exception as exc:
            return perf_counter() - start, [], f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if type(value) is not int:
            return elapsed, [], f"returned {type(value).__name__}, not int"
        return elapsed, [(elapsed, workloads.digest(value))], None

    def _call(self, q):
        fn = q["fn"]
        if fn in workloads.SET_FUNCTIONS:
            X = self.setmodel.parse_set_spec(q["set"])
            if fn == "f":
                return self.counting.f(X)
            if fn == "fk":
                return self.counting.f_k(X, q["k"])
            if fn == "phi":
                return self.counting.phi(X, q["n"])
            return self.counting.phi_k(X, q["n"], q["k"])
        counter = {
            "S": self.shonhiwa.s_count, "G": self.shonhiwa.g_count,
            "L": self.shonhiwa.l_count, "H": self.shonhiwa.h_count,
            "T": self.shonhiwa.t_count,
        }[fn]
        return counter(*(q[p] for p in workloads.PARAMS[fn]))

    def _cli(self, query):
        out, err = _Lines(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(workloads.cli_argv(query))
            if code != 0:
                error = f"exit {code}: {err.getvalue().strip()}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        values = []
        previous = start
        for stamp, line in out.lines:
            latency = stamp - previous if query["via"] == "seq" else end - start
            previous = stamp
            values.append((latency, workloads.digest(int(json.loads(line)["result"]))))
        return end - start, values, error


def run_rounds(runner, queries, seconds, tracer=None):
    """Closed loop over whole rounds.

    Returns, per query, one [seconds, values, error, calibration] entry
    per run of it; the wall time of each plain and each traced round; and
    the plain and the traced rounds' query time in calibration units.
    The calibration kernel is timed between every two queries; a run's
    calibration is the mean of the timings just before and just after it.
    """
    runs = [[] for _ in queries]
    round_walls = {"plain": [], "traced": []}
    work = {"plain": 0.0, "traced": 0.0}
    deadline = perf_counter() + seconds
    before = calibration.best_of(2)
    while True:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.recording = not round_walls["traced"]
                tracer.install()
            begun = perf_counter()
            for i, query in enumerate(queries):
                if traced:
                    tracer.begin_query(i)
                outcome = runner.run(query)
                if traced:
                    tracer.end_query()
                after = calibration.best_of(2)
                runs[i].append((*outcome, (before + after) / 2))
                work["traced" if traced else "plain"] += outcome[0] * 2 / (before + after)
                before = after
            round_walls["traced" if traced else "plain"].append(perf_counter() - begun)
            if traced:
                tracer.uninstall()
        rounds = len(round_walls["plain"])
        cycle = (sum(round_walls["plain"]) + sum(round_walls["traced"])) / rounds
        if perf_counter() + cycle > deadline:
            return runs, round_walls, work


def main():
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    before = calibration.best_of(2)
    started = perf_counter()
    import relprime
    import_s = perf_counter() - started
    import_cal = (before + calibration.best_of(2)) / 2
    if src not in Path(relprime.__file__).resolve().parents:
        sys.exit(f"relprime was imported from {relprime.__file__}, not {src}")
    import relprime.cli  # the package itself does not import its CLI
    import numpy

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(relprime)
    runs, walls, work = run_rounds(Runner(relprime), job["queries"], job["seconds"], tracer)
    report = {
        "import_s": import_s,
        "import_cal_s": import_cal,
        "runs": runs,
        "rounds": len(walls["plain"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": relprime.BACKEND,
            "nproc": os.cpu_count(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
    }
    if tracer:
        overhead = work["traced"] / work["plain"]
        report["per_layer"] = tracer.per_layer(len(walls["traced"]), overhead)
        report["spans"] = tracer.spans
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
