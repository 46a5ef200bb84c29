"""Stream benchmark for ws1s_stream: per-push latency, one-shot cost, set-up
time and peak RSS on four workloads, with a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: the next conjunct is
pushed only after the previous verdict is back.  Each repetition runs in
a fresh interpreter under an address-space cap and a wall-clock timeout,
so peak RSS belongs to one run and a blow-up is a counted failure.
Timings are scaled to a reference speed of the CPU (see calibrate.py)
and are medians over the repetitions of one run; ``--trace 1`` runs
traced and untraced repetitions and prints the per-layer metrics
instead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"

MEMORY_CAP = 1 << 30  # address space of one repetition, bytes
RUN_BUDGET_S = 150  # no worker outlives this many seconds into the run
WORKER_TIMEOUT_S = 45
MIN_REPS = 6
MIN_TRACED = 2
SETUP_PROBES = 2  # set-up probes per repetition
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
# measured rather than counted: timings, and the JSONL bytes, which carry timings
MEASURED_UNITS = ("s", "ns", "bytes")


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """Repetitions of one workload instance and the checks on their answers."""

    def __init__(self, workload, seed: int, seconds: float, digests: list[str] | None):
        self.wl = workload
        self.formulas = workload.formulas()
        self.gate = Gate(workload, self.formulas, digests)
        self.payload = json.dumps({"lines": list(workload.lines)}).encode()
        self.seconds = seconds
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self._checked: dict[str, int] = {}
        OUT.mkdir(exist_ok=True)
        self.tag = f"{workload.name}-{seed}"
        self.oneshot_answer = None

    def timeout(self) -> float:
        return max(1.0, min(WORKER_TIMEOUT_S, RUN_BUDGET_S - (time.monotonic() - self.start)))

    def more(self, done: int, minimum: int) -> bool:
        elapsed = time.monotonic() - self.start
        return elapsed < RUN_BUDGET_S / 2 and (done < minimum or elapsed < self.seconds)

    # -- set-up ---------------------------------------------------------------

    def setup_probe(self) -> float:
        """Seconds for a fresh interpreter to import the package, build an
        empty session and exit; for the CLI workload, the stream command
        on empty input."""
        if self.wl.via_cli:
            cmd = [sys.executable, "-m", "ws1s_stream.cli", "stream", "--log", "jsonl"]
        else:
            cmd = [sys.executable, "-c", "import ws1s_stream; ws1s_stream.StreamSession()"]
        before = tick()
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                env=_env(), cwd=ROOT)
        # the pipe reaches end of file when the process exits; a timed
        # wait() would poll in steps of up to 50 ms
        ready, _, _ = select.select([proc.stdout], [], [], self.timeout())
        if ready:
            proc.stdout.read()
        elapsed = time.perf_counter_ns() - t0
        after = tick()
        if not ready:
            proc.kill()
        proc.stdout.close()
        if proc.wait() != 0:
            raise RuntimeError(f"set-up probe {cmd} exited with {proc.returncode}")
        return scaled(elapsed, before, after) / 1e9

    # -- repetitions ----------------------------------------------------------

    def _worker(self, args: list[str]) -> tuple[dict | None, str | None]:
        proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
                                cwd=ROOT, preexec_fn=_cap_memory)
        try:
            out, err = proc.communicate(self.payload, timeout=self.timeout())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timeout"
        if proc.returncode != 0 or not out.strip():
            return None, f"exit {proc.returncode}: {err.decode(errors='replace')[-300:]}"
        return json.loads(out.splitlines()[-1]), None

    def stream_rep(self, traced: bool) -> dict:
        if self.wl.via_cli:
            return self._cli_rep(traced)
        args = ["stream"]
        if traced:
            args += ["--trace", "--spans", str(OUT / f"spans-{self.tag}.jsonl")]
        result, error = self._worker(args)
        rep = {"error": error, "answers": [], "bytes_out": 0}
        if result is not None:
            rep["error"] = result["error"]
            rep["latency_ms"] = [ns / 1e6 for ns in scaled_series(result["latency_ns"],
                                                                  result["ticks"])]
            rep["stream_s"] = sum(rep["latency_ms"]) / 1e3
            rep["raw_stream_s"] = sum(result["latency_ns"]) / 1e9
            rep["rss_mb"] = result["rss_kb"] / 1024
            rep["layers"] = result.get("layers")
            for step, (status, encoded) in enumerate(result["steps"], start=1):
                try:
                    word = self.gate.canonical_bits(step, encoded, result["tracks"])
                except ValueError:
                    rep["answers"].append(None)
                    break
                rep["answers"].append((status, word))
        return self._check_stream(rep)

    def _cli_rep(self, traced: bool) -> dict:
        """Drive ``ws1s-stream stream --log jsonl`` line by line over pipes."""
        trace_out = OUT / f"layers-{self.tag}.json"
        if traced:
            cmd = [sys.executable, str(WORKER), "cli", "--trace-out", str(trace_out),
                   "--spans", str(OUT / f"spans-{self.tag}.jsonl")]
        else:
            cmd = [sys.executable, "-m", "ws1s_stream.cli", "stream", "--log", "jsonl"]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
                                preexec_fn=_cap_memory)
        deadline = time.monotonic() + self.timeout()
        fd = proc.stdout.fileno()
        rep = {"error": None, "answers": [], "latency_ms": [], "bytes_out": 0}
        buf = b""
        latency_ns, ticks = [], [tick()]
        try:
            for step, line in enumerate(self.wl.lines, start=1):
                t0 = time.perf_counter_ns()
                proc.stdin.write(line.encode() + b"\n")
                proc.stdin.flush()
                while b"\n" not in buf:
                    ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
                    chunk = os.read(fd, 1 << 16) if ready else None
                    if not chunk:
                        raise RuntimeError("timeout" if chunk is None else "stream ended")
                    buf += chunk
                record, _, buf = buf.partition(b"\n")
                latency_ns.append(time.perf_counter_ns() - t0)
                ticks.append(tick())
                rep["bytes_out"] += len(record) + 1
                verdict = json.loads(record)
                try:
                    word = self.gate.canonical_maps(step, verdict.get("witness"))
                except ValueError:
                    rep["answers"].append(None)
                    raise RuntimeError(f"step {step}: witness over the wrong tracks")
                rep["answers"].append((verdict["verdict"], word))
            rep["latency_ms"] = [ns / 1e6 for ns in scaled_series(latency_ns, ticks)]
            rep["stream_s"] = sum(rep["latency_ms"]) / 1e3
            rep["raw_stream_s"] = sum(latency_ns) / 1e9
        except (RuntimeError, OSError, ValueError) as exc:
            rep["error"] = str(exc)
        finally:
            if not proc.stdin.closed:
                try:
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
            rusage = self._reap(proc, deadline)
        if rusage is None:
            rep["error"] = rep["error"] or "timeout"
        else:
            rep["rss_mb"] = rusage.ru_maxrss / 1024
            if proc.returncode != 0 and rep["error"] is None:
                rep["error"] = f"exit {proc.returncode}"
        if traced and rep["error"] is None:
            rep["layers"] = json.loads(trace_out.read_text())
        return self._check_stream(rep)

    @staticmethod
    def _reap(proc: subprocess.Popen, deadline: float):
        """Wait for the CLI process and return its own rusage (None if killed)."""
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                proc.stdout.close()
                proc.stderr.close()
                return rusage
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                proc.stdout.close()
                proc.stderr.close()
                return None
            time.sleep(0.002)

    def _check_stream(self, rep: dict) -> dict:
        n = len(self.wl.expected)
        key = hashlib.sha256(json.dumps(rep["answers"]).encode()).hexdigest()
        if key not in self._checked:
            self._checked[key] = self.gate.failed_steps(rep["answers"])
        rep["failed"] = self._checked[key]
        if rep["error"] is not None:  # the gate already failed any missing steps
            rep["failed"] = max(rep["failed"], 1)
        self.attempted += n
        self.failed += rep["failed"]
        return rep

    def oneshot_rep(self) -> float | None:
        result, _ = self._worker(["oneshot"])
        self.attempted += 1
        ok = False
        if result is not None:
            try:
                word = self.gate.canonical_bits(len(self.formulas), result["witness"],
                                                result["tracks"])
                self.oneshot_answer = (result["status"], word)
                ok = self.gate.oneshot_ok(result["status"], word)
            except ValueError:
                ok = False
        if not ok:
            self.failed += 1
            return None
        return sum(scaled_series(result["spans_ns"], result["ticks"])) / 1e9


def _median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def measure(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """End-to-end metrics of one workload, tracing off."""
    run = Run(GENERATORS[name](seed), seed, seconds, load_digests(name, seed))
    run.setup_probe()  # writes bytecode caches on a fresh checkout
    probes, reps, oneshots = [], [], []
    while run.more(len(reps), MIN_REPS):
        probes += [run.setup_probe() for _ in range(SETUP_PROBES)]
        reps.append(run.stream_rep(traced=False))
        oneshots.append(run.oneshot_rep())
    n = len(run.wl.expected)
    last = max(1, n // 20)  # the last push, or the last 5% of a long stream
    complete = [r for r in reps if r["error"] is None]
    # the tail is taken per repetition, then the median over repetitions:
    # a pooled percentile falls where the few slowest repetitions crowd in
    pct = tail_percentile(MIN_REPS * n)
    values = {
        "setup_s": _median(probes),
        "stream_s": _median(r["stream_s"] for r in complete),
        "final_push_ms": _median(statistics.median(r["latency_ms"][-last:]) for r in complete),
        "push_p50_ms": _median(statistics.median(r["latency_ms"]) for r in complete),
        "push_tail_ms": _median(percentile(r["latency_ms"], pct) for r in complete),
        "oneshot_s": _median(oneshots),
        "peak_rss_mb": _median(r.get("rss_mb") for r in reps),
        "step_ok_frac": 1 - run.failed / run.attempted,
    }
    notes = {
        "reps": len(reps),
        "raw_stream_s": round(_median(r["raw_stream_s"] for r in complete), 4),
        "final_push": f"median of the last {last}",
        "tail": f"p{pct:g} of {n} pushes, median of {len(complete)} repetitions",
        "step_fail_frac": run.failed / run.attempted,
        "digests": "checked" if run.gate.recorded is not None else "none recorded for this seed",
    }
    return run, values, notes


def trace_overhead(plain: list[dict], traced: list[dict]) -> tuple[float, float]:
    """Median and range of traced minus untraced ``stream_s`` over the
    adjacent pairs of repetitions; the range is infinite when there are
    fewer than three pairs."""
    diffs = [t["stream_s"] - p["stream_s"] for p, t in zip(plain, traced)
             if p["error"] is None and t["error"] is None]
    median = statistics.median(diffs) if diffs else 0.0
    return median, max(diffs) - min(diffs) if len(diffs) >= 3 else float("inf")


def measure_traced(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Per-layer metrics from traced repetitions, each next to an
    untraced one that prices the tracing."""
    run = Run(GENERATORS[name](seed), seed, seconds, load_digests(name, seed))
    units = metric_units("per_layer")
    plain, traced = [], []
    while run.more(len(traced), MIN_TRACED):
        plain.append(run.stream_rep(traced=False))
        traced.append(run.stream_rep(traced=True))
    layers = [dict(r["layers"], **{"cli.bytes_out": r["bytes_out"]})
              for r in traced if r.get("layers") is not None]
    if not layers:  # every traced repetition failed, and the failures are counted
        layers = [dict.fromkeys(set(units) - {"trace.overhead_s"}, 0)]
    values: dict[str, float] = {}
    stable = True
    for metric in layers[0]:
        series = [row[metric] for row in layers]
        if units.get(metric) in MEASURED_UNITS:
            values[metric] = _median(series)
        else:
            values[metric] = series[0]
            stable &= all(v == series[0] for v in series)
    overhead, spread = trace_overhead(plain, traced)
    values["trace.overhead_s"] = overhead
    notes = {"reps": f"{len(traced)} traced + {len(plain)} untraced",
             "counters_repeat": stable,
             "overhead_resolved": abs(overhead) > spread,
             "trace_overhead": f"{overhead:+.4f} s, pair range {spread:.4f} s",
             "step_fail_frac": run.failed / run.attempted}
    return run, values, notes


def _table(rows: dict[str, dict], units: dict[str, str], by_workload: bool) -> str:
    """One row per workload (end to end) or per metric (per layer); a
    value that is a string is printed as it is."""
    labels = [f"{m} [{u}]" for m, u in units.items()]

    def cell(value, width: int) -> str:
        return value.rjust(width) if isinstance(value, str) else f"{value:{width}.6g}"

    if by_workload:
        width = max(map(len, rows)) + 2
        lines = ["workload".ljust(width) + "".join(label.rjust(22) for label in labels)]
        lines += [name.ljust(width) + "".join(cell(values[m], 22) for m in units)
                  for name, values in rows.items()]
    else:
        width = max(map(len, labels)) + 2
        lines = ["metric".ljust(width) + "".join(name.rjust(16) for name in rows)]
        lines += [label.ljust(width) + "".join(cell(rows[w][m], 16) for w in rows)
                  for m, label in zip(units, labels)]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # the closed loop never runs two processes at once; on one CPU the
        # pipe round trips of the CLI workload skip cross-CPU wake-ups,
        # which added 20-40% and most of the noise to it
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    rows, all_notes = {}, {}
    attempted = failed = 0
    for name in names:
        measured = measure_traced if args.trace else measure
        run, values, notes = measured(name, args.seed, args.seconds)
        if set(values) != set(units):
            sys.exit(f"error: {name} measured {sorted(set(values) ^ set(units))}, "
                     f"which {BENCHMARK.name} does not list or lists but was not measured")
        rows[name], all_notes[name] = values, notes
        attempted += run.attempted
        failed += run.failed

    shown = {name: dict(values) for name, values in rows.items()}
    for name, notes in all_notes.items():
        if notes.get("overhead_resolved") is False:
            shown[name]["trace.overhead_s"] = "unresolved"
    print(_table(shown, units, by_workload=not args.trace))
    for name, notes in all_notes.items():
        print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": units[metric]}
        for name, values in rows.items() for metric, value in values.items()
    }
    print(json.dumps({"correct": failed == 0 and all(n.get("counters_repeat", True)
                                                     for n in all_notes.values()),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if not (SRC / "ws1s_stream" / "__init__.py").is_file() or not BENCHMARK.is_file():
    sys.exit(f"error: no ws1s_stream package under {SRC} or no {BENCHMARK}; "
             "run from the root of a checkout")
sys.path.insert(0, str(SRC))

from calibrate import scaled, scaled_series, tick  # noqa: E402
from gate import Gate, load_digests  # noqa: E402
from workloads import GENERATORS  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
