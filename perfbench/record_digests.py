"""Record the per-step answer digests the gate compares runs against.

    python3 perfbench/record_digests.py --seeds 0-63

Run it at the commit whose answers are the reference (the witnesses must
stay byte-identical from then on).  Every answer is checked with the
oracle before it is recorded; the last digest of each entry is that of
the one-shot answer.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import Run  # first: puts src/ on sys.path
from gate import DIGESTS, SEEDLESS, digest_key, step_digest  # noqa: I001
from workloads import GENERATORS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, as FIRST-LAST")
    first, last = map(int, parser.parse_args(argv).seeds.split("-"))
    table: dict[str, dict[str, str]] = {}
    for name, generate in GENERATORS.items():
        for seed in ([first] if name in SEEDLESS else range(first, last + 1)):
            run = Run(generate(seed), seed, 0, None)
            rep = run.stream_rep(traced=False)
            if rep["error"] is not None or rep["failed"] or run.oneshot_rep() is None:
                sys.exit(f"{name} seed {seed}: the answers fail the oracle gate")
            answers = rep["answers"] + [run.oneshot_answer]
            entry = " ".join(step_digest(status, word) for status, word in answers)
            table.setdefault(name, {})[digest_key(name, seed)] = entry
            print(f"{name} seed {seed}: {len(answers)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
