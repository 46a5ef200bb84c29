"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that the gate bites (a corrupted witness and a flipped verdict
each make steps fail), that a clean run passes it, that the traced
counters repeat exactly across two traced runs, with the known count of
2^(n+1)-1 resident nodes on fresh-pairs at n=4, and that a blow-up under
the address-space cap ends as counted failures.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import sys

import run as benchmark  # first: puts src/ on sys.path
from run import MEASURED_UNITS, Run, metric_units
from gate import step_digest  # noqa: I001
from workloads import fresh_pairs, mixed_unsat, succ_chain, wide_conjuncts

TINY = {
    "fresh-pairs": lambda: fresh_pairs(0, n=4),
    "succ-chain": lambda: succ_chain(0, n=6),
    "wide-conjuncts": lambda: wide_conjuncts(0, n=3),
    "mixed-unsat": lambda: mixed_unsat(0, n=24, contradiction=18, repeats=4),
}


def _corrupt_witness(answers: list) -> list:
    bad = list(answers)
    step = next(i for i, (status, word) in enumerate(bad) if word)
    status, word = bad[step]
    bad[step] = (status, [word[0] ^ 1] + word[1:])
    return bad


def _flip_verdict(answers: list) -> list:
    bad = list(answers)
    status, _ = bad[1]
    bad[1] = ("unsat", None) if status == "sat" else ("sat", [0])
    return bad


def main() -> int:
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    units = metric_units("per_layer")
    for name, make in TINY.items():
        run = Run(make(), 0, 0, None)
        rep = run.stream_rep(traced=False)
        check(f"{name}: clean run passes the gate", rep["error"] is None and rep["failed"] == 0)
        check(f"{name}: one-shot answer passes the gate", run.oneshot_rep() is not None)
        answers = rep["answers"]
        check(f"{name}: corrupted witness fails", run.gate.failed_steps(_corrupt_witness(answers)) > 0)
        check(f"{name}: flipped verdict fails", run.gate.failed_steps(_flip_verdict(answers)) > 0)
        check(f"{name}: missing steps fail", run.gate.failed_steps(answers[:-1]) == 1)
        digests = [step_digest(status, word) for status, word in answers]
        run.gate.recorded = digests
        check(f"{name}: matching digests pass", run.gate.failed_steps(answers) == 0)
        run.gate.recorded = digests[:1] + ["00000000"] + digests[2:]
        check(f"{name}: a digest mismatch fails from its step on",
              run.gate.failed_steps(answers) == len(answers) - 1)
        run.gate.recorded = None

        first, second = (run.stream_rep(traced=True)["layers"] for _ in range(2))
        counters = [m for m in first if units[m] not in MEASURED_UNITS]
        differ = [m for m in counters if first[m] != second[m]]
        check(f"{name}: {len(counters)} traced counters repeat exactly {differ or ''}", not differ)
        if name == "fresh-pairs":
            check("fresh-pairs n=4: stream.nodes.resident == 31",
                  first["stream.nodes.resident"] == 31)
    # a blow-up under the address-space cap is a counted failure, not an OOM kill
    benchmark.MEMORY_CAP = 200 << 20
    blowup = Run(fresh_pairs(0, n=18), 0, 0, None).stream_rep(traced=False)
    check(f"fresh-pairs n=18 under a 200 MiB cap: {blowup['error']}, {blowup['failed']} steps failed",
          blowup["error"] is not None and 0 < blowup["failed"] < 18)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
