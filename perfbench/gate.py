"""Correctness gate: every verdict against the known answer, every sat
witness decoded with ``oracle.interpretation_from_word`` and checked with
``oracle.evaluate`` against each conjunct pushed so far, and every step
against the per-step digest recorded at the seed commit.

The oracle shares no code with the automata.  The gate runs outside the
timed region.  A step fails on the first wrong answer, and every step
after it fails too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ws1s_stream import evaluate, interpretation_from_word
from ws1s_stream.syntax import free_vars

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# workloads whose answers do not depend on the seed: the first two ignore
# it, and a renaming of variables leaves every witness bit in place
SEEDLESS = ("fresh-pairs", "succ-chain", "wide-conjuncts")


def digest_key(workload: str, seed: int) -> str:
    return "*" if workload in SEEDLESS else str(seed)


def load_digests(workload: str, seed: int) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    entry = table.get(digest_key(workload, seed))
    return entry.split() if entry else None


def step_digest(status: str, word: list[int] | None) -> str:
    text = status if word is None else status + ":" + ",".join(map(str, word))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class Gate:
    """Checks the answers of one workload instance.

    A canonical answer is ``(status, word)``: ``word`` is None for unsat
    and otherwise one int per witness symbol, bit i for the i-th free
    variable in first-occurrence order over the conjuncts pushed so far
    (the order the session registers tracks in).
    """

    def __init__(self, workload, formulas, recorded: list[str] | None):
        self.workload = workload
        self.formulas = formulas
        self.recorded = recorded
        self.free = [free_vars(f) for f in formulas]
        self.names: list[list] = []  # free variables after each step
        seen: dict[str, object] = {}
        for fv in self.free:
            for v in fv:
                seen.setdefault(v.name, v)
            self.names.append(list(seen.values()))
        self._cache: dict[tuple, bool] = {}

    def canonical_bits(self, step: int, encoded, tracks: list[str]):
        """From a worker's ``[width, ints]`` and its union track names."""
        if encoded is None:
            return None
        width, word = encoded
        names = [v.name for v in self.names[step - 1]]
        if word and (width != len(names) or tracks[:width] != names):
            raise ValueError(f"step {step}: witness tracks {tracks[:width]} != {names}")
        return word

    def canonical_maps(self, step: int, maps: list[dict] | None):
        """From a ``--log jsonl`` witness, a list of {name: bit} maps."""
        if maps is None:
            return None
        names = [v.name for v in self.names[step - 1]]
        word = []
        for symbol in maps:
            if list(symbol) != names:
                raise ValueError(f"step {step}: witness tracks {list(symbol)} != {names}")
            word.append(sum(symbol[n] << i for i, n in enumerate(names)))
        return word

    def _holds(self, j: int, interp) -> bool:
        fo, so = interp.first_order, interp.second_order
        key = (j, interp.length) + tuple(
            fo.get(v.name) if v.name in fo else so.get(v.name) for v in self.free[j]
        )
        ok = self._cache.get(key)
        if ok is None:
            ok = self._cache[key] = evaluate(self.formulas[j], interp)
        return ok

    def answer_ok(self, step: int, status: str, word) -> bool:
        """Is ``(status, word)`` right for the conjunction of the first ``step``?"""
        if status != self.workload.expected[step - 1]:
            return False
        if status == "unsat":
            return word is None
        if word is None:
            return False
        if self.workload.witness_len is not None and \
                len(word) != self.workload.witness_len[step - 1]:
            return False
        variables = self.names[step - 1]
        symbols = [tuple((w >> i) & 1 for i in range(len(variables))) for w in word]
        try:
            interp = interpretation_from_word(symbols, variables)
        except ValueError:
            return False
        return all(self._holds(j, interp) for j in range(step))

    def failed_steps(self, answers: list) -> int:
        """Steps that fail, given the canonical answers of one stream;
        missing answers (the stream stopped) fail."""
        n = len(self.workload.expected)
        for step in range(1, n + 1):
            if step > len(answers) or answers[step - 1] is None:
                return n - step + 1
            status, word = answers[step - 1]
            if not self.answer_ok(step, status, word):
                return n - step + 1
            if self.recorded is not None and self.recorded[step - 1] != step_digest(status, word):
                return n - step + 1
        return 0

    def oneshot_ok(self, status: str, word) -> bool:
        n = len(self.workload.expected)
        if not self.answer_ok(n, status, word):
            return False
        return self.recorded is None or self.recorded[n] == step_digest(status, word)
