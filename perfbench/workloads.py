"""The four benchmark workloads, generated from a seed.

Every workload is a stream of conjuncts fed to one session in a closed
loop with one client: the next conjunct goes in only after the previous
verdict is back.  Each workload comes with its known answer per step, so
the gate can check verdicts without trusting the program.

``wide-conjuncts`` and ``mixed-unsat`` draw their distinct conjuncts
from a fixed skeleton: a planted model, plus atoms and templates kept
only where ``oracle.evaluate`` says the model satisfies them.  The seed
renames the variables of ``wide-conjuncts`` and places the exact repeats
of ``mixed-unsat``.  A fully random draw per seed made the cost swing
from 5k to 46k explored nodes between seeds on ``mixed-unsat`` and
doubled single compile times on ``wide-conjuncts``, which would hide any
change smaller than that swing.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass

from ws1s_stream import Interpretation, bench, evaluate, parse, print_formula
from ws1s_stream.syntax import Kind, free_vars

FRESH_PAIRS_N = 14
SUCC_CHAIN_N = 160
WIDE_N = 14
WIDE_STRUCTURE_SEED = 0
MIXED_N = 200
MIXED_CONTRADICTION_STEP = 150
MIXED_REPEATS = 40
MIXED_STRUCTURE_SEED = 0

WIDE_FO = [f"x{i}" for i in range(1, 6)]
WIDE_SO = [f"Y{i}" for i in range(1, 6)]
WIDE_ATOMS = ("{x} in {X}", "{x} < {y}", "{X} sub {Y}", "~({x} in {X})", "~({x} = {y} + 1)")
MIXED_TEMPLATES = (
    "{x} in {X}",
    "{x} < {y}",
    "{X} sub {Y}",
    "~({x} in {X})",
    "~({x} = {y} + 1)",
    "{x} = {y} + 1",
    "~({x} < {y})",
    "ex1 z: z < {x} & z in {X}",
    "all1 z: z < {x} -> z in {X}",
    "ex2 W: {x} in W & ~({y} in W)",
    "all1 z: z in {X} -> z in {Y}",
    "ex1 z: z = {x} + 1 & ~(z in {X})",
    "ex2 W: W sub {X} & {x} in W",
)


@dataclass(frozen=True)
class Workload:
    name: str
    lines: tuple[str, ...]  # one conjunct per line, in push order
    expected: tuple[str, ...]  # known verdict per step
    witness_len: tuple[int, ...] | None  # known witness length per step, if any
    via_cli: bool  # driven through ``ws1s-stream stream`` instead of in-process

    def formulas(self) -> list:
        return [parse(line) for line in self.lines]


def _planted(rng: random.Random, fo: list[str], so: list[str], length: int) -> Interpretation:
    return Interpretation(
        length,
        {x: rng.randrange(length) for x in fo},
        {X: frozenset(p for p in range(length) if rng.random() < 0.5) for X in so},
    )


def _fill(rng: random.Random, template: str, fo: list[str], so: list[str]) -> str:
    x, y = rng.sample(fo, 2)
    X, Y = rng.sample(so, 2)
    return template.format(x=x, y=y, X=X, Y=Y)


def fresh_pairs(seed: int, n: int = FRESH_PAIRS_N) -> Workload:
    """``x_i in Y_i`` over fresh pairs: layer 1 of the search holds 2^n tuples."""
    del seed  # the family has no random part
    lines = tuple(print_formula(f) for f in bench.family1(n))
    return Workload("fresh-pairs", lines, ("sat",) * n, (1,) * n, False)


def succ_chain(seed: int, n: int = SUCC_CHAIN_N) -> Workload:
    """``x{i+1} = x{i} + 1``: shared variables, linear cost, witness length n+1."""
    del seed
    lines = tuple(f"x{i + 1} = x{i} + 1" for i in range(1, n + 1))
    return Workload("succ-chain", lines, ("sat",) * n, tuple(range(2, n + 2)), False)


@functools.cache
def wide_skeleton(n: int = WIDE_N) -> tuple[str, ...]:
    """Conjuncts of 4 atoms over 3 first-order and 4 second-order variables each.

    The fixed track count per conjunct keeps compile cost, which grows
    as 2^tracks in ``minimize``, the same from seed to seed.
    """
    rng = random.Random(WIDE_STRUCTURE_SEED)
    model = _planted(rng, WIDE_FO, WIDE_SO, 6)
    holds: dict[str, bool] = {}
    out: list[str] = []
    while len(out) < n:
        atoms: list[str] = []
        while len(atoms) < 4:
            atom = _fill(rng, rng.choice(WIDE_ATOMS), WIDE_FO, WIDE_SO)
            if atom not in holds:
                holds[atom] = evaluate(parse(atom), model)
            if atom not in atoms and holds[atom]:
                atoms.append(atom)
        text = " & ".join(atoms)
        kinds = [v.kind for v in free_vars(parse(text))]
        if kinds.count(Kind.FIRST_ORDER) == 3 and kinds.count(Kind.SECOND_ORDER) == 4 \
                and text not in out:
            out.append(text)
    return tuple(out)


def wide_conjuncts(seed: int, n: int = WIDE_N) -> Workload:
    """The skeleton under a seeded renaming of its variables.

    Compile cost hangs on the track order inside each conjunct: drawing
    the variables of each conjunct afresh per seed made single conjuncts
    twice as slow to compile from one seed to the next.  A renaming keeps
    every conjunct's automaton and every witness bit, and changes only the
    text the parser sees.
    """
    rng = random.Random(seed)
    rename = dict(zip(WIDE_FO, rng.sample(WIDE_FO, len(WIDE_FO))))
    rename.update(zip(WIDE_SO, rng.sample(WIDE_SO, len(WIDE_SO))))
    pattern = re.compile(r"\b(" + "|".join(rename) + r")\b")
    lines = tuple(pattern.sub(lambda m: rename[m.group(1)], line) for line in wide_skeleton(n))
    return Workload("wide-conjuncts", lines, ("sat",) * n, None, False)


def mixed_skeleton(count: int) -> list[str]:
    """Distinct atoms and quantified templates over 8 first-order and 4
    second-order variables, each true in one planted model."""
    rng = random.Random(MIXED_STRUCTURE_SEED)
    fo = [f"x{i}" for i in range(1, 9)]
    so = [f"Y{i}" for i in range(1, 5)]
    model = _planted(rng, fo, so, 6)
    out: list[str] = []
    while len(out) < count:
        text = _fill(rng, rng.choice(MIXED_TEMPLATES), fo, so)
        if text not in out and evaluate(parse(text), model):
            out.append(text)
    return out


def _spread(rng: random.Random, start: int, stop: int, count: int) -> set[int]:
    """``count`` steps of ``range(start, stop)``, one drawn from each of
    ``count`` equal blocks."""
    bounds = [start + (stop - start) * k // count for k in range(count + 1)]
    return {rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])}


def mixed_unsat(
    seed: int,
    n: int = MIXED_N,
    contradiction: int = MIXED_CONTRADICTION_STEP,
    repeats: int = MIXED_REPEATS,
) -> Workload:
    """Skeleton lines with seeded exact repeats (memo hits) and, at a fixed
    step, the negation of the first line, which makes the rest unsat.

    The seed draws which steps repeat an earlier line and which line they
    repeat.  A fixed share of the repeats falls before the contradiction
    and none in the last tenth, so every seed pushes the same distinct
    conjuncts before the contradiction and the same final lines.  The
    repeats are spread one to each of equal blocks of steps: every
    repeat adds a component to the product, so a seed that drew its
    repeats early made every later node larger and moved peak RSS by
    20% between seeds.
    """
    rng = random.Random(seed)
    before = repeats * (contradiction - 1) // n
    repeat_at = _spread(rng, 2, contradiction, before)
    repeat_at |= _spread(rng, contradiction + 1, n - n // 10, repeats - before)
    fresh = iter(mixed_skeleton(n - repeats - 1))
    lines: list[str] = []
    for step in range(1, n + 1):
        if step == contradiction:
            lines.append(f"~({lines[0]})")
        elif step in repeat_at:
            lines.append(rng.choice(lines))
        else:
            lines.append(next(fresh))
    expected = tuple("sat" if step < contradiction else "unsat" for step in range(1, n + 1))
    return Workload("mixed-unsat", tuple(lines), expected, None, True)


GENERATORS = {
    "fresh-pairs": fresh_pairs,
    "succ-chain": succ_chain,
    "wide-conjuncts": wide_conjuncts,
    "mixed-unsat": mixed_unsat,
}
