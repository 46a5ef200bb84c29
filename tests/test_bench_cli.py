import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import pytest

from formula_gen import random_formula
import ws1s_stream
from ws1s_stream import bench
from ws1s_stream.automata import dump, language_equiv, minimize, parse_dump
from ws1s_stream.bench import BenchConfig, family1, family2, run_bench
from ws1s_stream.cli import main, stream_command
from ws1s_stream.compiler import MemoCache, TrackRegistry, compile_formula, restriction_automaton
from ws1s_stream.errors import ModeDisagreement
from ws1s_stream.oracle import sat_bounded
from ws1s_stream.stream import FROM_SCRATCH, INCREMENTAL, StepReport, StreamSession
from ws1s_stream.syntax import And, Kind, VarId, free_vars, parse, print_formula


def _conjunction(formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def test_family1_shape():
    assert [print_formula(f) for f in family1(1)] == ["x1 in Y1"]
    three = family1(3)
    assert len(three) == 3
    names = {v.name for f in three for v in free_vars(f)}
    assert len(names) == 6


def test_family2_shape():
    assert [print_formula(f) for f in family2(1)] == ["ex2 Y1: x1 in Y1"]
    assert all(len(free_vars(f)) == 1 for f in family2(5))


def test_family2_conjunct_is_bare_restriction():
    f = family2(1)[0]
    registry = TrackRegistry()
    for v in free_vars(f):
        registry.register(v)
    dfa = compile_formula(f, registry)
    assert language_equiv(dfa, restriction_automaton(0))


@pytest.mark.parametrize("family", [family1, family2])
def test_family_of_no_conjuncts_is_rejected(family):
    with pytest.raises(ValueError, match="n must be >= 1"):
        family(0)


@pytest.mark.parametrize("family", [family1, family2])
def test_family_prefixes_satisfiable_by_oracle(family):
    for n in range(1, 4):
        assert sat_bounded(_conjunction(family(n)), 2) is not None


def test_run_bench_rows(tmp_path):
    out = tmp_path / "bench.csv"
    cfg = BenchConfig(family=1, n_max=6, repetitions=2, out_path=str(out))
    rows = run_bench(cfg)

    data_rows = [r for r in rows if r["rep"] != "median"]
    median_rows = [r for r in rows if r["rep"] == "median"]
    assert len(data_rows) == 2 * 6 * 2  # modes x steps x reps
    assert len(median_rows) == 2 * 6
    assert all(r["verdict"] == "sat" for r in rows)

    # explored counts are deterministic across repetitions
    by_key = {}
    for r in data_rows:
        key = (r["mode"], r["step"])
        by_key.setdefault(key, set()).add((r["explored_step"], r["explored_total"]))
    assert all(len(v) == 1 for v in by_key.values())

    final_inc = next(r for r in median_rows
                     if r["mode"] == INCREMENTAL and r["step"] == 6)
    final_scr = next(r for r in median_rows
                     if r["mode"] == FROM_SCRATCH and r["step"] == 6)
    assert final_inc["explored_total"] <= final_scr["explored_total"]

    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    assert set(parsed[0]) == {"family", "mode", "step", "rep", "compile_ms",
                              "process_ms", "cum_total_ms", "explored_step",
                              "explored_total", "verdict"}


def test_run_bench_single_step_modes_match(tmp_path):
    cfg = BenchConfig(family=2, n_max=1, repetitions=1,
                      out_path=str(tmp_path / "one.csv"))
    rows = run_bench(cfg)
    counts = {r["mode"]: (r["explored_step"], r["explored_total"])
              for r in rows if r["rep"] == 1}
    assert counts[INCREMENTAL] == counts[FROM_SCRATCH]


def test_run_bench_raises_when_the_modes_disagree(monkeypatch, tmp_path):
    scratch = bench.from_scratch_check

    def flipped(formulas, *, budget=None):  # the last step answers unsat
        _, reports = scratch(formulas, budget=budget)
        unsat = replace(reports[-1].verdict, status="unsat", word=None)
        return unsat, reports[:-1] + [replace(reports[-1], verdict=unsat)]

    monkeypatch.setattr(bench, "from_scratch_check", flipped)
    out = tmp_path / "bench.csv"
    with pytest.raises(ModeDisagreement, match="step 2: modes disagree: Incremental=sat, FromScratch=unsat"):
        run_bench(BenchConfig(family=1, n_max=2, out_path=str(out)))
    assert not out.exists()  # nothing is written


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(family=3, n_max=4)
    with pytest.raises(ValueError):
        BenchConfig(family=1, n_max=0)
    with pytest.raises(ValueError):
        BenchConfig(family=1, n_max=4, repetitions=0)
    with pytest.raises(ValueError):
        BenchConfig(family=1, n_max=4, modes=("Sideways",))


def test_bench_config_rejects_a_repeated_mode():
    # a repeated mode would run its whole stream twice and keep one run
    with pytest.raises(ValueError):
        BenchConfig(family=1, n_max=2, modes=(INCREMENTAL, FROM_SCRATCH, INCREMENTAL))


def _run_stream(text, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = stream_command(io.StringIO(text), out, err, **kwargs)
    return code, out.getvalue(), err.getvalue()


def test_stream_command_basic():
    code, out, err = _run_stream("x in Y\n~(x in Y)\n")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("step=1 verdict=sat witness=")
    assert lines[1] == "step=2 verdict=unsat"
    assert err == ""


def test_stream_command_empty_input():
    code, out, err = _run_stream("")
    assert (code, out, err) == (0, "", "")


def test_stream_command_skips_blank_lines_and_counts_them_in_line_numbers():
    code, out, err = _run_stream("x in Y\n\n   \n~(x in Y)\nbad(\n")
    lines = out.splitlines()
    assert code == 2
    assert len(lines) == 2 and lines[0].startswith("step=1 verdict=sat ")
    assert lines[1] == "step=2 verdict=unsat"
    assert err == "line 5: 1:4: expected 'in', 'sub', '<' or '=', found '('\n"


def test_stream_command_bad_line_stops():
    code, out, err = _run_stream("x in\nx in Y\n")
    assert code == 2
    assert "line 1" in err
    assert out == ""


def test_stream_command_skip_bad_lines():
    code, out, err = _run_stream("x in\nx in Y\n", skip_bad_lines=True)
    assert code == 0
    assert "line 1" in err
    assert out.splitlines() == [out.splitlines()[0]]
    assert out.startswith("step=1 verdict=sat")


def test_stream_command_jsonl():
    code, out, _ = _run_stream("x in Y\n~(x in Y)\n", log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["step"] for r in records] == [1, 2]
    assert records[0]["verdict"] == "sat"
    assert records[0]["witness"] == [{"x": 1, "Y": 1}]
    assert records[0]["mode"] == "Incremental"
    assert "witness" not in records[1]
    assert records[1]["verdict"] == "unsat"


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("log_jsonl", [False, True], ids=["text", "jsonl"])
def test_stream_command_writes_each_record_once(log_jsonl):
    # a reader on a pipe gets one record per read only if each is one write
    out = _CountingWriter()
    lines = "x in Y\ny in Z\n~(x in Y)\n"
    assert stream_command(io.StringIO(lines), out, io.StringIO(), log_jsonl=log_jsonl) == 0
    assert len(out.writes) == 3
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in out.writes)


def test_stream_command_jsonl_records_expansions():
    text = "".join(print_formula(f) + "\n" for f in family1(3)) + "~(x1 in Y1)\nx9 in Y9\n"
    code, out, _ = _run_stream(text, log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # one expansion per sat step, replayed from the step before; the
    # contradiction searches, the step after it does not.  One of its four
    # expansions folds from the empty product: the prefix it would replay
    # was stored by the first search and released at the end of the third
    assert [(r["expanded"], r["replayed"]) for r in records] == [(1, 0), (1, 1), (1, 1), (4, 3), (0, 0)]
    # the edges the last two searches stored, all released at unsat
    assert [r["edges_held"] for r in records] == [2, 6, 12, 0, 0]


def test_stream_command_jsonl_records_skipped_states_and_bound_raises():
    text = ("ex1 z: z < x4 & z in Y3\n~(x4 = x2 + 1)\nx4 in Y3\n"
            "all1 z: z < x3 -> z in Y3\n~(x1 in Y3)\n")
    code, out, _ = _run_stream(text, log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # states whose accept distance exceeds what the bound leaves are not
    # expanded; the last step finds no witness of the last one's length and
    # raises its bound once
    assert [(r["skipped"], r["bound_raises"]) for r in records] == [
        (0, 0), (2, 0), (2, 0), (4, 0), (3, 1)]
    assert [len(r["witness"]) for r in records] == [2, 2, 2, 2, 3]


def test_stream_command_jsonl_records_memo_counters():
    text = "x1 = x0 + 1\nx2 = x1 + 1\nx3 = x2 + 1\n~(x2 = x1 + 1)\n"
    code, out, _ = _run_stream(text, log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # the atom and the top level miss per shape, then hit; line 1 registers
    # x1 before x0, so its atom has the other track order from the rest;
    # the negation is new, its atom is not
    assert [(r["memo_misses"], r["memo_hits"]) for r in records] == [(2, 0), (2, 0), (0, 2), (2, 1)]


def test_stream_command_jsonl_records_components():
    text = "x in Y & x in Z\nx in Y\n(ex1 z: z < x) & (ex1 z: z < x) & x in Z\n"
    code, out, _ = _run_stream(text, log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # a line adds the parts of its & chain that the product does not hold yet
    assert [(r["step"], r["components"]) for r in records] == [(1, 2), (2, 2), (3, 3)]


def test_stream_command_jsonl_record_shape(monkeypatch):
    import ws1s_stream.cli as cli

    session = StreamSession()
    monkeypatch.setattr(cli, "_session", lambda: session)
    code, out, _ = _run_stream("x in Y\nx in Y\n~(x in Y)\n", log_jsonl=True)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    # the report's fields from expanded on, in declaration order, the verdict aside
    names = [f.name for f in fields(StepReport)]
    counters = [name for name in names[names.index("expanded"):] if name != "verdict"]
    assert counters[-1] == "components"
    leading = ["step", "mode", "verdict", "compile_ms", "process_ms",
               "explored_step", "explored_total"]
    # a sat step, the same line again, then the contradiction
    assert [r["verdict"] for r in records] == ["sat", "sat", "unsat"]
    for record, report in zip(records, session.reports, strict=True):
        witness = ["witness"] if report.verdict.is_sat else []
        assert list(record) == leading + counters + witness
        assert record["compile_ms"] == round(report.compile_ns / 1e6, 3)
        assert record["process_ms"] == round(report.process_ns / 1e6, 3)


def test_stream_command_growing_witnesses():
    text = "".join(print_formula(f) + "\n" for f in family1(3))
    code, out, _ = _run_stream(text)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for n, line in enumerate(lines, start=1):
        assert f"step={n} verdict=sat" in line
        witness = json.loads(line.split("witness=", 1)[1])
        assert len(witness) == 1 and len(witness[0]) == 2 * n


def test_cli_check(capsys):
    assert main(["check", "x in Y"]) == 0
    assert capsys.readouterr().out.startswith("sat witness=")
    assert main(["check", "x in Y & ~(x in Y)"]) == 0
    assert capsys.readouterr().out.strip() == "unsat"


_README_FORMULAS = [
    "x in Y & (ex1 z: z < x)", "ex2 Y: x in Y", "x = y + 1",
    "x1 in Y1", "ex2 W: x2 in W", "~(x1 in Y1)",
    " & ".join(f"x{i} in Y{i}" for i in range(1, 9)),
]


def test_cli_check_output_is_pinned(monkeypatch, capsys):
    # exit code and stdout of check on a seeded corpus; the digest was taken
    # from find_witness on each compiled automaton, the reference search
    monkeypatch.delenv("WS1S_STATE_BUDGET", raising=False)
    rng = random.Random(2024)
    corpus = [print_formula(random_formula(rng, max_depth=4)) for _ in range(200)]
    digest = hashlib.sha256()
    for text in corpus + _README_FORMULAS:
        code = main(["check", text])
        digest.update(f"{code} {capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "9ce625877c2d10cbe081aace25ec0951bba56a593644e4b490dbc8fd03cea2b8"


@pytest.mark.parametrize("budget, code", [("3", 3), ("5", 0)])
def test_cli_check_honours_the_exploration_budget(budget, code, monkeypatch, capsys):
    monkeypatch.setenv("WS1S_STATE_BUDGET", budget)
    assert main(["check", "x1 in Y1 & x2 < x1"]) == code
    err = capsys.readouterr().err
    assert ("product exploration" in err) == (code == 3)


_DEEP = "(" * 2000 + "x in Y" + ")" * 2000


def test_cli_check_deep_nesting_exits_2(capsys):
    assert main(["check", _DEEP]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested less deeply" in err


@pytest.mark.parametrize("skip", [False, True])
def test_stream_command_deep_nesting_fails_its_line(skip):
    code, out, err = _run_stream(f"{_DEEP}\nx in Y\n", skip_bad_lines=skip)
    assert code == (0 if skip else 2)
    assert err.startswith("line 1: ") and "nested less deeply" in err
    assert out == ("step=1 verdict=sat witness=[{\"x\":1,\"Y\":1}]\n" if skip else "")


# formulas that parse (the parser builds & and | chains in a loop) but are
# too deep for the passes that recurse over the tree; a top-level & chain is
# split before any of them, so the & cases negate the chain
_LONG_AND = " & ".join(["x in Y"] * 1000)
_NEGATED_AND = f"~({_LONG_AND})"
_LONG_OR = " | ".join(["x in Y"] * 400)
# the oracle splits every & chain and evaluates 400 disjuncts within the
# stack, so its case puts a 1,000-part | chain inside a conjunct: splitting
# the chain must still report the too-deep part
_AND_OVER_LONG_OR = "x in Y & (" + " | ".join(["x in Y"] * 1000) + ")"


@pytest.mark.parametrize("argv, text", [
    (["check"], _NEGATED_AND), (["compile"], _NEGATED_AND),
    (["oracle", "check", "--k", "2"], _AND_OVER_LONG_OR),
    (["check"], _LONG_OR), (["compile"], _LONG_OR),
], ids=["check-and", "compile-and", "oracle-and", "check-or", "compile-or"])
def test_cli_formula_too_deep_to_compile_exits_2(argv, text, capsys):
    assert main(argv + [text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("text", [_NEGATED_AND, _LONG_OR], ids=["and", "or"])
def test_stream_command_formula_too_deep_to_compile_fails_its_line(text, skip):
    code, out, err = _run_stream(f"x in Y\n{text}\ny < x\n", skip_bad_lines=skip)
    assert code == (0 if skip else 2)
    assert err.startswith("line 2: ") and "nested too deeply" in err and err.count("\n") == 1
    assert out.startswith("step=1 verdict=sat")
    assert out.count("\n") == (2 if skip else 1)
    if skip:
        assert out.splitlines()[1].startswith("step=2 verdict=sat")


def test_a_flat_chain_of_any_length_checks_compiles_and_streams(capsys):
    chain = " & ".join(["x in Y"] * 3000)
    assert main(["check", chain]) == 0
    assert capsys.readouterr().out == 'sat witness=[{"x":1,"Y":1}]\n'
    assert main(["compile", chain]) == 0
    assert capsys.readouterr().out.startswith("states=3 ")
    assert _run_stream(chain + "\n") == (0, 'step=1 verdict=sat witness=[{"x":1,"Y":1}]\n', "")
    assert main(["oracle", "check", "--k", "1", chain]) == 0
    assert capsys.readouterr().out == "sat k=1 first_order={'x': 0} second_order={'Y': [0]}\n"


# flat, but over more tracks than product, which recurses once per track,
# has stack for; check and stream keep each part a component
_WIDE_SUB_CHAIN = " & ".join(f"Y{i} sub Y{i + 1}" for i in range(1, 1201))


def test_a_chain_too_wide_to_compile_is_decided_by_check_and_stream(capsys):
    # compile exits 2 and names the commands that answer the chain
    assert main(["compile", _WIDE_SUB_CHAIN]) == 2
    assert capsys.readouterr() == ("", "error: a chain of 1200 parts over 1201 tracks is too wide "
                                       "to compile into one automaton; check and stream decide "
                                       "it part by part\n")
    assert main(["check", _WIDE_SUB_CHAIN]) == 0
    assert capsys.readouterr().out == "sat witness=[]\n"
    assert _run_stream(_WIDE_SUB_CHAIN + "\n") == (0, "step=1 verdict=sat witness=[]\n", "")


@pytest.mark.parametrize("n, size", [(20, 25_573), (40, 185_843), (80, 1_422_783)])
def test_stream_command_output_of_the_succ_chain_is_pinned(n, size):
    # step i prints a witness of i + 1 symbols, each a map over i + 1
    # variables, so the output grows as n^3: about 7.5x per doubling
    text = "".join(f"x{i + 1} = x{i} + 1\n" for i in range(1, n + 1))
    code, out, err = _run_stream(text)
    assert (code, err, out.count("\n")) == (0, "", n)
    assert len(out.encode()) == size


def test_stream_command_skip_bad_lines_still_stops_at_a_budget_error(monkeypatch):
    monkeypatch.setenv("WS1S_STATE_BUDGET", "2")
    text = "".join(print_formula(f) + "\n" for f in family1(4))
    code, out, err = _run_stream(text, skip_bad_lines=True)
    assert code == 3
    assert "budget" in err and err.count("\n") == 1


def test_readme_stream_example_is_what_stream_prints():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    match = re.search(r"^\$ printf '(.*)' \| ws1s-stream stream\n(.*?)^```", readme, re.M | re.S)
    assert match is not None
    code, out, err = _run_stream(match[1].replace("\\n", "\n"))
    assert (code, err) == (0, "")
    assert out == match[2] and out.count("\n") == 3


def test_readme_library_example_prints_what_it_shows(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert match is not None
    exec(compile(match[1], "README.md", "exec"), {})
    assert capsys.readouterr().out == (
        "1 sat [{'x': 1, 'Y': 1}]\n"
        "2 sat [{'x': 1, 'Y': 1, 'y': 0}, {'x': 0, 'Y': 1, 'y': 1}]\n"
    )


def test_cli_parse_error_exit_code(capsys):
    assert main(["check", "x in"]) == 2
    assert "expected" in capsys.readouterr().err


def test_cli_compile_dump(tmp_path, capsys):
    path = tmp_path / "aut.txt"
    assert main(["compile", "x in Y", "--dump-automaton", str(path)]) == 0
    summary = capsys.readouterr().out
    assert "states=3" in summary
    dfa = parse_dump(path.read_text())
    assert dfa.num_states == 3


# language-equal formulas whose normalized top node is a negation, with no
# free first-order variable, or not; every compile output is minimize's form
_NEGATION_FORMS = [
    "~((Y sub Z) & (ex1 z: z in Y))",
    "~((Y sub Z) & (ex1 z: z in Y)) & Y sub Y",
    "(ex1 z: z in Y) -> ~(Y sub Z)",
    "~(Y sub Z) | ~(ex1 z: z in Y)",
]


def test_cli_compile_dumps_negations_in_normal_form(capsys):
    dumps = []
    for text in _NEGATION_FORMS:
        assert main(["compile", text]) == 0
        dumps.append(capsys.readouterr().out.split("\n", 1)[1])
        dfa = parse_dump(dumps[-1])
        assert dump(dfa) == dump(minimize(dfa))
    assert dumps == [dumps[0]] * len(dumps)


def test_readme_dump_format_is_what_compile_prints(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    match = re.search(r"^## Automaton dump format\n\n```\n(.*?)^\.\.\.\n```", readme, re.M | re.S)
    assert match is not None
    assert main(["compile", "x in Y"]) == 0
    assert capsys.readouterr().out.split("\n", 1)[1].startswith(match[1])


# two conjuncts of one shape, with a binder name for each
_TWO_SHAPES = "(ex2 W: x1 in W & ~(x2 in W)) & (ex2 V: x3 in V & ~(x4 in V))"


@pytest.mark.parametrize("budget", range(1, 9))
def test_cli_compile_memo_hits_keep_the_budget_exit(budget, monkeypatch):
    # the second conjunct is a memo hit that skips its determinization;
    # it would build as many subsets as the first, so the exit is the same
    monkeypatch.setenv("WS1S_STATE_BUDGET", str(budget))
    assert main(["compile", _TWO_SHAPES]) == (3 if budget <= 3 else 0)


def test_second_conjunct_of_one_shape_is_served_from_the_cache():
    both = parse(_TWO_SHAPES)
    registry, cache = TrackRegistry(), MemoCache()
    for v in free_vars(both):
        registry.register(v)
    compile_formula(both.left, registry, cache)
    misses = cache.misses
    compile_formula(both, registry, cache)
    # both parts hit the restricted entry of their shape, and a chain built
    # from its parts adds no entry for the top-level & or its restriction
    assert cache.misses == misses


def test_cli_stream_from_file(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("x in Y\n")
    assert main(["stream", str(path)]) == 0
    assert capsys.readouterr().out.startswith("step=1 verdict=sat")


def test_cli_bench(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["bench", "--family", "1", "--n", "3", "--reps", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "mode=Incremental" in capsys.readouterr().out


@pytest.mark.parametrize("text, renamed", [
    ("(ex1 z: z < x) & (ex1 z: z in Y)", "(ex1 z: z < x) & (ex1 w: w in Y)"),
    ("(ex1 z: z < x) & (all1 z: ~(z < x))", "(ex1 z: z < x) & (all1 w: ~(w < x))"),
], ids=["sat", "unsat"])
def test_binder_name_reused_in_a_sibling_scope(text, renamed, capsys):
    # two sibling scopes may bind one name: check decides the line, compile
    # dumps it as with the second binder renamed, and the oracle agrees
    assert main(["check", text]) == 0
    checked = capsys.readouterr().out
    assert main(["compile", text]) == 0
    dumped = capsys.readouterr().out
    assert main(["compile", renamed]) == 0
    assert capsys.readouterr().out == dumped
    assert main(["oracle", "check", text, "--k", "4"]) == 0
    oracle = capsys.readouterr().out
    assert checked.split()[0] == ("sat" if oracle.startswith("sat ") else "unsat")
    assert (sat_bounded(parse(text), 4) is None) == (checked == "unsat\n")


def test_cli_oracle_check(capsys):
    assert main(["oracle", "check", "x < y", "--k", "4"]) == 0
    assert "k=2" in capsys.readouterr().out
    assert main(["oracle", "check", "x < x", "--k", "3"]) == 0
    assert "no model" in capsys.readouterr().out


def test_cli_state_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("WS1S_STATE_BUDGET", "2")
    text = "".join(print_formula(f) + "\n" for f in family1(4))
    path_in = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    code = stream_command(path_in, out, err)
    assert code == 3
    assert "budget" in err.getvalue()


def test_cli_mode_disagreement_exit_code(monkeypatch, capsys):
    from ws1s_stream.errors import ModeDisagreement

    def boom(cfg):
        raise ModeDisagreement("forced")

    monkeypatch.setattr(bench, "run_bench", boom)  # cmd_bench reads it from bench
    code = main(["bench", "--family", "1", "--n", "2", "--out", "/dev/null"])
    assert code == 4


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n" == ws1s_stream.__version__ + "\n"


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_cli_bad_state_budget_env_exits_2(value, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("WS1S_STATE_BUDGET", value)
    source = tmp_path / "stream.txt"
    source.write_text("x in Y\n")
    for argv in (["stream", str(source)], ["check", "x in Y"], ["compile", "x in Y"],
                 ["bench", "--family", "1", "--n", "2", "--out", str(tmp_path / "b.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: WS1S_STATE_BUDGET") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_cli_bad_state_budget_env_fails_the_oracle_too(value, monkeypatch, capsys):
    # the oracle sets no budget, and the variable is still checked
    monkeypatch.setenv("WS1S_STATE_BUDGET", value)
    assert main(["oracle", "check", "x in Y", "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: WS1S_STATE_BUDGET") and err.count("\n") == 1


def test_cli_state_budget_env_caps_both_in_bench(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("WS1S_STATE_BUDGET", " 1")  # anything int() takes
    assert main(["bench", "--family", "2", "--n", "2", "--out", str(tmp_path / "b.csv")]) == 3
    assert "determinization" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--family", "1", "--n", "0", "--out", "unused.csv"],
    ["bench", "--family", "1", "--n", "2", "--reps", "0", "--out", "unused.csv"],
    ["oracle", "check", "x < y", "--k", "-1"],
    ["bench", "--family", "1", "--n", "2", "--modes", "inc,foo", "--out", "unused.csv"],
    ["bench", "--family", "1", "--n", "2", "--modes", "", "--out", "unused.csv"],
    ["bench", "--family", "1", "--n", "2", "--modes", "inc,inc", "--out", "unused.csv"],
    ["bench", "--family", "1", "--n", "abc", "--out", "unused.csv"],
])
def test_cli_out_of_range_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["stream", "{missing}/in.txt"],
    ["compile", "x in Y", "--dump-automaton", "{missing}/a.txt"],
])
def test_cli_path_that_cannot_be_opened_exits_2(argv, tmp_path, capsys):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_stream_undecodable_byte_fails_its_line(source, skip, tmp_path, monkeypatch, capsys):
    data = b"x in Y\n\xff in Y\ny in Y\n"
    if source == "file":
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        argv = ["stream", str(path)]
    else:  # a stdin that decodes strictly, as under PYTHONIOENCODING=utf-8:strict
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        argv = ["stream"]
    if skip:
        argv.append("--skip-bad-lines")
    assert main(argv) == (0 if skip else 2)
    captured = capsys.readouterr()
    assert captured.err.startswith("line 2: 1:1: expected a token") and captured.err.count("\n") == 1
    assert captured.out.count("verdict=sat") == (2 if skip else 1)


def test_benchmark_worker_runs_on_this_tree(tmp_path):
    # the benchmark's tracer wraps stream and automata functions by name and
    # its one-shot unpacks ProductExplorer.search's triple; both run here
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    job = json.dumps({"lines": ["x1 in Y1", "x2 = x1 + 1", "~(x1 in Y1)"]})

    def work(*args):
        done = subprocess.run([sys.executable, str(root / "perfbench" / "worker.py"), *args],
                              input=job, capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    streamed = work("stream", "--trace")
    assert streamed["error"] is None
    assert [status for status, _ in streamed["steps"]] == ["sat", "sat", "unsat"]
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    added_by_run = {"cli.bytes_out", "trace.overhead_s"}
    assert set(streamed["layers"]) == {m["name"] for m in declared} - added_by_run
    assert work("oneshot")["status"] == "unsat"


def test_a_session_loads_only_the_modules_it_uses():
    # a fresh interpreter, since this one has loaded every module already
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent("""\
        import json, sys
        import ws1s_stream

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("ws1s_stream."))

        seen = {"import": loaded()}
        ws1s_stream.StreamSession()
        seen["session"] = loaded()
        from ws1s_stream import cli
        seen["code"] = cli.main(["stream"])
        seen["stream"] = [m for m in ("ws1s_stream.bench", "ws1s_stream.oracle", "statistics",
                                      "csv") if m in sys.modules]
        print(json.dumps(seen))
    """)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", script], input="", capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["session"] == [f"ws1s_stream.{m}"
                               for m in ("automata", "compiler", "errors", "stream", "syntax")]
    assert seen["code"] == 0 and seen["stream"] == []


_PUBLIC = {
    "automata": ["Dfa", "Nfa", "Track", "Witness", "accepts", "complement", "cylindrify",
                 "determinize", "dump", "find_witness", "intersect", "is_empty",
                 "language_equiv", "minimize", "parse_dump", "product", "project"],
    "bench": ["BenchConfig", "family1", "family2", "run_bench"],
    "compiler": ["MemoCache", "TrackRegistry", "compile_atom", "compile_formula",
                 "restriction_automaton"],
    "errors": ["WsError"],
    "oracle": ["Interpretation", "evaluate", "interpretation_from_word", "sat_bounded"],
    "stream": ["SessionStats", "StepReport", "StepVerdict", "StreamSession",
               "from_scratch_check", "session_stats"],
    "syntax": ["Formula", "Kind", "VarId", "free_vars", "normalize", "parse", "print_formula"],
}


def test_package_exports_each_public_name_from_its_module():
    import importlib

    assert set(ws1s_stream.__all__) == {n for names in _PUBLIC.values() for n in names}
    assert len(ws1s_stream.__all__) == 44
    for module, names in _PUBLIC.items():
        home = importlib.import_module(f"ws1s_stream.{module}")
        for name in names:
            assert getattr(ws1s_stream, name) is getattr(home, name)
    namespace = {}
    exec("from ws1s_stream import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ws1s_stream.__all__)
    assert set(ws1s_stream.__all__) <= set(dir(ws1s_stream))
    with pytest.raises(AttributeError, match="no_such_name"):
        ws1s_stream.no_such_name
    from ws1s_stream import bench as imported
    assert imported is sys.modules["ws1s_stream.bench"]
