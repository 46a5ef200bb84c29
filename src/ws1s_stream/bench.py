"""Benchmark families and the incremental vs from-scratch comparison harness."""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Sequence

from .errors import ModeDisagreement
from .stream import (
    FROM_SCRATCH,
    INCREMENTAL,
    StepReport,
    StreamSession,
    budget_caps,
    from_scratch_check,
)
from .syntax import Exists, Formula, In, Kind, VarId

CSV_COLUMNS = (
    "family",
    "mode",
    "step",
    "rep",
    "compile_ms",
    "process_ms",
    "cum_total_ms",
    "explored_step",
    "explored_total",
    "verdict",
)


def family1(n: int) -> list[Formula]:
    """Conjuncts x_i in Y_i, a fresh variable pair per index."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        In(VarId(f"x{i}", Kind.FIRST_ORDER), VarId(f"Y{i}", Kind.SECOND_ORDER))
        for i in range(1, n + 1)
    ]


def family2(n: int) -> list[Formula]:
    """Conjuncts ex2 Y_i: x_i in Y_i; each Y_i bound, each x_i free."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        Exists(
            VarId(f"Y{i}", Kind.SECOND_ORDER),
            In(VarId(f"x{i}", Kind.FIRST_ORDER), VarId(f"Y{i}", Kind.SECOND_ORDER)),
        )
        for i in range(1, n + 1)
    ]


FAMILIES = {1: family1, 2: family2}


@dataclass(frozen=True)
class BenchConfig:
    family: int
    n_max: int
    modes: tuple[str, ...] = (INCREMENTAL, FROM_SCRATCH)
    repetitions: int = 1
    out_path: str | None = None
    state_budget: int | None = None  # caps exploration and determinization alike

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        bad = set(self.modes) - {INCREMENTAL, FROM_SCRATCH}
        if bad or not self.modes or len(set(self.modes)) != len(self.modes):
            raise ValueError(f"invalid modes {self.modes}")


def _run_mode(mode: str, formulas: Sequence[Formula], budget: int | None) -> list[StepReport]:
    explore, determinize = budget_caps(budget)
    if mode == INCREMENTAL:
        session = StreamSession(state_budget=explore, determinize_budget=determinize)
        return [session.push(f) for f in formulas]
    _, reports = from_scratch_check(formulas, state_budget=explore,
                                    determinize_budget=determinize)
    return reports


def _ms(ns: int) -> float:
    return round(ns / 1e6, 3)  # microsecond resolution, reported in ms


def run_bench(cfg: BenchConfig) -> list[dict]:
    """Run the configured benchmark; returns the CSV rows (and writes them).

    Verdicts are cross-checked between modes before anything is written:
    a mismatch is an internal soundness failure, not a data point.
    """
    formulas = FAMILIES[cfg.family](cfg.n_max)
    rows: list[dict] = []
    per_mode_step: dict[tuple[str, int], list[dict]] = {}

    for rep in range(1, cfg.repetitions + 1):
        reports_by_mode = {
            mode: _run_mode(mode, formulas, cfg.state_budget) for mode in cfg.modes
        }
        if len(cfg.modes) > 1:
            for step_reports in zip(*reports_by_mode.values()):
                statuses = {r.verdict.status for r in step_reports}
                if len(statuses) != 1:
                    raise ModeDisagreement(
                        f"step {step_reports[0].step}: modes disagree: "
                        + ", ".join(f"{r.mode}={r.verdict.status}" for r in step_reports)
                    )
        for mode, reports in reports_by_mode.items():
            cum_ns = 0
            for r in reports:
                cum_ns += r.compile_ns + r.process_ns
                row = {
                    "family": cfg.family,
                    "mode": mode,
                    "step": r.step,
                    "rep": rep,
                    "compile_ms": _ms(r.compile_ns),
                    "process_ms": _ms(r.process_ns),
                    "cum_total_ms": _ms(cum_ns),
                    "explored_step": r.states_explored_step,
                    "explored_total": r.states_explored_total,
                    "verdict": r.verdict.status,
                }
                rows.append(row)
                per_mode_step.setdefault((mode, r.step), []).append(row)

    for _, reps in sorted(per_mode_step.items()):
        # counters and verdicts are the same in every repetition
        timings = {key: round(statistics.median(r[key] for r in reps), 3)
                   for key in ("compile_ms", "process_ms", "cum_total_ms")}
        rows.append(dict(reps[0], rep="median", **timings))

    if cfg.out_path is not None:
        with open(cfg.out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows
