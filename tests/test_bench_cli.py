import csv
import io
import json
import sys

import pytest

from ws1s_stream.automata import language_equiv, parse_dump
from ws1s_stream.bench import BenchConfig, family1, family2, run_bench
from ws1s_stream.cli import main, stream_command
from ws1s_stream.compiler import TrackRegistry, compile_formula, restriction_automaton
from ws1s_stream.oracle import sat_bounded
from ws1s_stream.stream import FROM_SCRATCH, INCREMENTAL
from ws1s_stream.syntax import And, Kind, VarId, free_vars, print_formula


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
    assert main(["compile", "x in Y", "--no-memo"]) == 0


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
    import ws1s_stream.cli as cli
    from ws1s_stream.errors import ModeDisagreement

    def boom(cfg):
        raise ModeDisagreement("forced")

    monkeypatch.setattr(cli, "run_bench", boom)
    code = main(["bench", "--family", "1", "--n", "2", "--out", "/dev/null"])
    assert code == 4


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
