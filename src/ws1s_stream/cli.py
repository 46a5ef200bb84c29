"""Command-line front end.

Exit codes: 0 all steps verdicted, 2 parse or kind error, a formula
nested too deeply to compile or evaluate, bad flag or a file that
cannot be opened, 3 budget exceeded, 4 incremental vs from-scratch
disagreement.  The environment variable ``WS1S_STATE_BUDGET`` is the
one budget of ``StreamSession(budget=...)``: it caps both the
exploration and the determinization in every subcommand, and it must
be a positive integer, otherwise the command exits 2.  ``stream`` fails
a line that parse or push rejects with exit 2 and, under
``--skip-bad-lines``, goes on with the next; a budget error ends it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import TextIO

from . import __version__
from .automata import dump, is_empty
from .bench import BenchConfig, run_bench
from .compiler import compile_formula
from .errors import EnumerationBudgetExceeded, ModeDisagreement, StateBudgetExceeded, WsError
from .oracle import sat_bounded
from .stream import FROM_SCRATCH, INCREMENTAL, StreamSession
from .syntax import free_vars, parse

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4


def _exit_code(exc: WsError) -> int:
    """The exit code for an error this package raises on purpose."""
    if isinstance(exc, (StateBudgetExceeded, EnumerationBudgetExceeded)):
        return EXIT_BUDGET
    return EXIT_DISAGREEMENT if isinstance(exc, ModeDisagreement) else EXIT_PARSE


def _state_budget() -> int | None:
    """``WS1S_STATE_BUDGET``, or None when it is unset or empty."""
    raw = os.environ.get("WS1S_STATE_BUDGET")
    if not raw:
        return None
    try:
        budget = int(raw)
        if budget > 0:
            return budget
    except ValueError:
        pass
    raise WsError(f"WS1S_STATE_BUDGET must be a positive integer, not {raw!r}")


def _int_at_least(least: int):
    """An argparse ``type`` that takes integers no smaller than ``least``."""

    def convert(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}")

    return convert


def _modes(text: str) -> tuple[str, ...]:
    """An argparse ``type`` for ``--modes``: comma-separated ``inc``/``scratch``,
    each named at most once."""
    names = {"inc": INCREMENTAL, "scratch": FROM_SCRATCH}
    try:
        modes = tuple(names[m.strip()] for m in text.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"unknown mode {exc}") from None
    if len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(f"a mode is named twice in {text!r}")
    return modes


def _session() -> StreamSession:
    return StreamSession(budget=_state_budget())


def cmd_check(args) -> int:
    """Decide one formula as a one-push session: the same compile and
    search as ``stream``, under the same ``WS1S_STATE_BUDGET`` caps."""
    session = _session()
    report = session.push(parse(args.formula))
    witness = session.witness_maps(report.verdict)
    if witness is None:
        print("unsat")
    else:
        print(f"sat witness={json.dumps(witness, separators=(',', ':'))}")
    return EXIT_OK


def cmd_compile(args) -> int:
    """The formula's automaton, its free variables on tracks in order of
    occurrence, under the registry, cache and determinization cap of a
    fresh session."""
    formula = parse(args.formula)
    session = _session()
    for v in free_vars(formula):
        session.registry.register(v)
    dfa = compile_formula(formula, session.registry, session.cache,
                          determinize_budget=session.determinize_budget)
    text = dump(dfa)
    if args.dump_automaton:
        with open(args.dump_automaton, "w") as fh:
            fh.write(text)
    print(f"states={dfa.num_states} tracks={len(dfa.tracks)} "
          f"accepting={len(dfa.accepting)} empty={is_empty(dfa)}")
    if not args.dump_automaton:
        sys.stdout.write(text)
    return EXIT_OK


def stream_command(
    lines: TextIO,
    out: TextIO,
    err: TextIO,
    *,
    skip_bad_lines: bool = False,
    log_jsonl: bool = False,
) -> int:
    """One formula per input line, one verdict per output line, flushed live."""
    session = _session()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            report = session.push(parse(text))
        except WsError as exc:  # push is atomic, so a skipped line leaves no trace
            print(f"line {lineno}: {exc}", file=err)
            err.flush()
            if skip_bad_lines and _exit_code(exc) == EXIT_PARSE:
                continue
            return _exit_code(exc)
        verdict = report.verdict
        witness = session.witness_maps(verdict)
        if log_jsonl:
            record = report.record()
            if witness is not None:
                record["witness"] = witness
            line = json.dumps(record, separators=(",", ":"))
        else:
            line = f"step={report.step} verdict={verdict.status}"
            if witness is not None:
                line += f" witness={json.dumps(witness, separators=(',', ':'))}"
        out.write(line + "\n")  # one write per record: print writes the newline apart
        out.flush()
    return EXIT_OK


def cmd_stream(args) -> int:
    # a byte that does not decode reaches the parser as a lone surrogate,
    # so it fails its own line like any other character the grammar lacks
    from_file = args.input and args.input != "-"
    if not from_file and hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    with open(args.input, errors="surrogateescape") if from_file else nullcontext(sys.stdin) as fh:
        return stream_command(fh, sys.stdout, sys.stderr,
                              skip_bad_lines=args.skip_bad_lines,
                              log_jsonl=args.log == "jsonl")


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        family=args.family,
        n_max=args.n,
        modes=args.modes,
        repetitions=args.reps,
        out_path=args.out,
        state_budget=_state_budget(),
    )
    rows = run_bench(cfg)
    summary = [r for r in rows if r["rep"] == "median"]
    for row in summary:
        print(f"family={row['family']} mode={row['mode']} step={row['step']} "
              f"total_ms={row['cum_total_ms']} explored={row['explored_total']} "
              f"verdict={row['verdict']}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    formula = parse(args.formula)
    model = sat_bounded(formula, args.k)
    if model is None:
        print(f"no model with at most {args.k} positions")
    else:
        fo = {name: pos for name, pos in sorted(model.first_order.items())}
        so = {name: sorted(s) for name, s in sorted(model.second_order.items())}
        print(f"sat k={model.length} first_order={fo} second_order={so}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ws1s-stream",
        description="Incremental WS1S satisfiability over streams of conjuncts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide satisfiability of one formula")
    p.add_argument("formula")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile one formula to its automaton")
    p.add_argument("formula")
    p.add_argument("--dump-automaton", metavar="PATH")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("stream", help="read conjuncts line by line, emit verdicts")
    p.add_argument("input", nargs="?", default="-", help="input file, '-' for stdin")
    p.add_argument("--skip-bad-lines", action="store_true")
    p.add_argument("--log", choices=["jsonl"], help="emit JSONL session records")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("bench", help="benchmark the two evaluation modes")
    p.add_argument("--family", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--modes", type=_modes, default="inc,scratch")
    p.add_argument("--reps", type=_int_at_least(1), default=1)
    p.add_argument("--out", metavar="CSV", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force semantics for debugging")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    pc = oracle_sub.add_parser("check", help="bounded model search")
    pc.add_argument("formula")
    pc.add_argument("--k", type=_int_at_least(0), required=True)
    pc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _state_budget()  # a bad value fails every subcommand, those without a budget too
        return args.func(args)
    except WsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except RecursionError:  # parsed, but too deep for a pass that recurses over it
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an input or output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
