"""One repetition of a workload in a fresh interpreter.

Usage: ``worker.py stream|oneshot [--trace] [--spans PATH]`` with a job
``{"lines": [...]}`` as JSON on stdin, or
``worker.py cli --trace-out PATH --spans PATH``, which runs the traced
``ws1s-stream stream --log jsonl`` on its own stdin.  The first two
print their result as one JSON line on stdout.  The run script starts
this with an address-space cap and a wall-clock timeout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from calibrate import tick


def _bits(symbol) -> int:
    return sum(bit << i for i, bit in enumerate(symbol))


def _encode(witness):
    if witness is None:
        return None
    return [len(witness[0]) if witness else 0, [_bits(s) for s in witness]]


def _formulas(job):
    from ws1s_stream import parse

    return [parse(line) for line in job["lines"]]


def _tracer(args):
    if "--trace" not in args and "--trace-out" not in args:
        return None
    from tracing import Tracer

    tracer = Tracer(f"{os.getpid()}")
    tracer.install()
    return tracer


def _arg(args, flag):
    return args[args.index(flag) + 1] if flag in args else None


def run_stream(job, tracer) -> dict:
    from ws1s_stream import StreamSession

    formulas = _formulas(job)
    session = StreamSession()
    latencies: list[int] = []
    ticks = [tick()]  # one before the first push and one after each
    error = None
    for formula in formulas:
        t0 = time.perf_counter_ns()
        try:
            session.push(formula)
        except Exception as exc:  # a raise, budget or MemoryError fails the step
            error = f"{type(exc).__name__}: {exc}"
            break
        latencies.append(time.perf_counter_ns() - t0)
        ticks.append(tick())
    result = {
        "latency_ns": latencies,
        "ticks": ticks,
        "steps": [[r.verdict.status, _encode(r.verdict.witness)] for r in session.reports],
        "tracks": [session.registry.name_of(t.index) for t in session.explorer.union_tracks],
        "error": error,
    }
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer, session)
    return result


def run_oneshot(job) -> dict:
    """Decide the whole conjunction once from nothing, as the last prefix
    of ``from_scratch_check`` does."""
    from ws1s_stream import MemoCache, TrackRegistry, compile_formula, free_vars
    from ws1s_stream.stream import DEFAULT_SESSION_BUDGET, ProductExplorer

    formulas = _formulas(job)
    spans: list[int] = []
    ticks = [tick()]

    def timed(fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        spans.append(time.perf_counter_ns() - t0)
        ticks.append(tick())
        return out

    def start():
        registry = TrackRegistry()
        for formula in formulas:
            for v in free_vars(formula):
                registry.register(v)
        return registry, MemoCache(), ProductExplorer()

    # timed in pieces, one per compile, so the speed is measured next to each
    registry, cache, explorer = timed(start)
    dfas = [timed(compile_formula, f, registry, cache) for f in formulas]
    timed(lambda: [explorer.add_component(dfa) for dfa in dfas])
    verdict, _, _ = timed(explorer.search, DEFAULT_SESSION_BUDGET)
    return {
        "spans_ns": spans,
        "ticks": ticks,
        "status": verdict.status,
        "witness": _encode(verdict.witness),
        "tracks": [registry.name_of(t.index) for t in explorer.union_tracks],
    }


def run_cli(args, tracer) -> int:
    from tracing import layer_metrics
    from ws1s_stream import cli

    code = cli.main(["stream", "--log", "jsonl"])
    sys.stdout.flush()
    with open(_arg(args, "--trace-out"), "w") as fh:
        json.dump(layer_metrics(tracer, tracer.session), fh)
    tracer.write_spans(_arg(args, "--spans"))
    return code


def main(args) -> int:
    mode = args[0]
    tracer = _tracer(args)
    if mode == "cli":
        return run_cli(args, tracer)
    job = json.load(sys.stdin)
    result = run_stream(job, tracer) if mode == "stream" else run_oneshot(job)
    if tracer is not None and _arg(args, "--spans"):
        tracer.write_spans(_arg(args, "--spans"))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
