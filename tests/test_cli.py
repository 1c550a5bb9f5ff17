"""Exit codes and output shapes of the command-line entry points."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_joints import cli
from matroid_joints.cli import USAGE_ERROR, VERIFY_ERROR, main
from matroid_joints.construct import ConstructionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_behrend_basic(capsys):
    code, out, _ = run(capsys, "behrend", "--n", "16")
    assert code == 0
    obj = json.loads(out)
    assert obj["members"] == [1, 4]
    assert (obj["n"], obj["s"], obj["size"]) == (2, 2, 2)


def test_behrend_verify(capsys):
    code, out, _ = run(capsys, "behrend", "--n", "100", "--verify")
    assert code == 0
    assert json.loads(out)["has_3ap"] is False


def test_behrend_oracle_small(capsys):
    code, out, _ = run(capsys, "behrend", "--n", "3", "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_size"] == 2
    assert obj["fallback"] is True
    assert len(obj["members"]) <= obj["oracle_size"]


def test_behrend_oracle_too_large(capsys):
    code, _, err = run(capsys, "behrend", "--n", "40", "--oracle")
    assert code == USAGE_ERROR
    assert "oracle" in err


def test_behrend_bad_n(capsys):
    code, _, err = run(capsys, "behrend", "--n", "0")
    assert code == USAGE_ERROR
    assert err.startswith("error:")


def test_missing_subcommand(capsys):
    assert main([]) == USAGE_ERROR
    capsys.readouterr()


def test_construct_verify_and_dump(capsys, tmp_path):
    dump = tmp_path / "n50.json"
    code, out, _ = run(capsys, "construct", "--n", "50", "--verify", "--out", str(dump))
    assert code == 0
    assert out == ""
    obj = json.loads(dump.read_text())
    assert obj["N"] == 50
    assert obj["checks"]["axioms_ok"] is True
    assert obj["checks"]["properties_ok"] is True
    assert len(obj["points"]) >= 1


def test_verify_round_trip(capsys, tmp_path):
    dump = tmp_path / "n50.json"
    assert main(["construct", "--n", "50", "--out", str(dump)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--dump", str(dump))
    assert code == 0
    obj = json.loads(out)
    assert obj["triangle_free"] is True
    assert obj["N"] == 50
    # N = 50 keeps 5 points and no line: the matroid checks still run
    assert obj["lines"] == 0
    assert obj["axioms_mode"] == "exhaustive"
    assert obj["axioms_ok"] is True
    assert obj["axioms_inconclusive"] is False
    assert obj["properties_ok"] is True


def test_verify_runs_the_construct_checks(capsys, tmp_path):
    dump = tmp_path / "n200.json"
    assert main(["construct", "--n", "200", "--verify", "--out", str(dump)]) == 0
    checks = json.loads(dump.read_text())["checks"]
    code, out, _ = run(capsys, "verify", "--dump", str(dump))
    assert code == 0
    obj = json.loads(out)
    assert {k: obj[k] for k in checks} == checks
    assert obj["axioms_mode"] == "sampled"
    assert obj["axioms_ok"] is True
    assert obj["axioms_inconclusive"] is False
    assert obj["properties_ok"] is True


@pytest.mark.parametrize("option", ["--budget", "--seed"])
def test_axiom_check_options_are_gone(capsys, tmp_path, option):
    dump = tmp_path / "n50.json"
    assert main(["construct", "--n", "50", "--out", str(dump)]) == 0
    capsys.readouterr()
    for argv in (["verify", "--dump", str(dump)], ["construct", "--n", "5", "--verify"]):
        code, out, err = run(capsys, *argv, option, "100000")
        assert code == USAGE_ERROR
        assert out == ""
        assert "unrecognized arguments" in err


def test_construct_gate_failure_exits_3(capsys, monkeypatch):
    def broken(n):
        raise ConstructionError(f"triangle found in pruned configuration for N={n}")

    monkeypatch.setattr(cli, "build_construction", broken)
    code, out, err = run(capsys, "construct", "--n", "50")
    assert code == VERIFY_ERROR
    assert out == ""
    assert err == "error: triangle found in pruned configuration for N=50\n"


def test_one_parser_per_process():
    # the parser is built once; its subcommands look their callees up at
    # call time, so test_construct_gate_failure_exits_3's monkeypatch of
    # cli.build_construction still takes effect
    assert cli.build_parser() is cli.build_parser()


def test_no_exhaustive_option(capsys, tmp_path):
    # the axiom check follows the point count; there is no option to pick it
    dump = tmp_path / "n5.json"
    assert main(["construct", "--n", "5", "--out", str(dump)]) == 0
    assert main(["construct", "--n", "5", "--verify", "--exhaustive"]) == USAGE_ERROR
    assert main(["verify", "--dump", str(dump), "--exhaustive"]) == USAGE_ERROR
    capsys.readouterr()


def test_verify_rejects_triangle(capsys, tmp_path):
    dump = tmp_path / "bad.json"
    data = {
        "points": [[1, 1], [1, 2], [2, 2]],
        "lines": [
            {"A": 1, "B": 0, "C": 1},   # x = 1
            {"A": 0, "B": 1, "C": 2},   # y = 2
            {"A": 1, "B": -1, "C": 0},  # y = x
        ],
    }
    dump.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--dump", str(dump))
    assert code == VERIFY_ERROR
    assert "triangle" in err


def test_verify_rejects_unpruned(capsys, tmp_path):
    dump = tmp_path / "unpruned.json"
    data = {
        "points": [[1, 1], [2, 1]],
        "lines": [{"A": 0, "B": 1, "C": 1}, {"A": 0, "B": 1, "C": 9}],
    }
    dump.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--dump", str(dump))
    assert code == VERIFY_ERROR
    assert "pruned" in err


_TWO_POINTS = [[1, 1], [2, 1]]
_LINE = {"A": 0, "B": 1, "C": 1}


@pytest.mark.parametrize(
    "data",
    [
        {"lines": [_LINE]},
        {"points": _TWO_POINTS, "lines": [{"A": 0, "B": 1}]},
        {"points": [[1.9, 2], [2, 2]], "lines": [{"A": 0, "B": 1, "C": 2}]},
        {"points": _TWO_POINTS, "lines": [{"A": False, "B": True, "C": 1}]},
        {"points": [[1, 1, 7], [2, 1]], "lines": [_LINE]},
        {"points": 5, "lines": [_LINE]},
        {"points": _TWO_POINTS, "lines": [_LINE], "N": [1]},
        {"points": _TWO_POINTS, "lines": [_LINE], "triple_points": "x"},
    ],
    ids=[
        "no-points",
        "line-without-C",
        "float-coordinate",
        "bool-coefficient",
        "point-triple",
        "points-not-a-list",
        "N-not-an-int",
        "triple-points-not-an-int",
    ],
)
def test_verify_rejects_malformed_dump(capsys, tmp_path, data):
    dump = tmp_path / "malformed.json"
    dump.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--dump", str(dump))
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith("error:")


def test_verify_rejects_deeply_nested_dump(capsys, tmp_path):
    # json.load gives up on deep nesting with a RecursionError
    dump = tmp_path / "nested.json"
    dump.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "verify", "--dump", str(dump))
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith("error:")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["points", "lines", "A", "B", "C", "N", "triple_points", ""]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _dumps(draw):
    """Dump-shaped JSON on at most 10 points (the axiom check stays
    exhaustive), lines through pairs of them or with small coefficients,
    optional fields of any JSON, or any JSON at all."""
    points = draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=10))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if len(points) >= 2 and draw(st.booleans()):
            (x1, y1), (x2, y2) = draw(st.lists(st.sampled_from(points), min_size=2, max_size=2))
            a, b = y2 - y1, x1 - x2
            lines.append({"A": a, "B": b, "C": a * x1 + b * y1})
        else:
            lines.append({k: draw(st.integers(-3, 3)) for k in "ABC"})
    data = {"points": points, "lines": lines}
    for key in ("N", "triple_points"):
        if draw(st.booleans()):
            data[key] = draw(st.integers(0, 4) | _JSON)
    return draw(st.just(data) | _JSON)


@settings(max_examples=100, deadline=None)
@given(data=_dumps())
def test_verify_fuzzed_dump_exits_with_a_documented_code(tmp_path_factory, data):
    dump = tmp_path_factory.getbasetemp() / "fuzzed.json"
    dump.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--dump", str(dump)])
    assert code in (0, USAGE_ERROR, VERIFY_ERROR)
    if code == USAGE_ERROR:
        assert err.getvalue().startswith("error:")


def test_verify_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--dump", str(tmp_path / "absent.json"))
    assert code == USAGE_ERROR


def test_sweep_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--ns", "16,50,200")
    assert code == 0
    rows = json.loads(out)
    assert [r["N"] for r in rows] == [16, 50, 200]
    assert all(set(r) >= {"N", "L", "joints"} for r in rows)


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_sweep_at_epsilon_one_matches_golden(capsys):
    # at epsilon = 1 the heavy-plane prune takes 76 and 109 steps, so the
    # survivors are indexed afresh; the file holds the stdout of this command
    code, out, _ = run(capsys, "sweep", "--ns", "250,400", "--epsilon", "1")
    assert code == 0
    assert out.encode() == (GOLDEN / "sweep_250_400_eps1.json").read_bytes()


def test_construct_matches_golden(capsys):
    # the file holds this command's stdout from before the build indexed
    # only the grid lines that hold points: the same lines and pruned_lines
    code, out, _ = run(capsys, "construct", "--n", "200")
    assert code == 0
    assert out.encode() == (GOLDEN / "construct_200.json").read_bytes()


def test_sweep_csv_and_json_mirror(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--ns", "16", "--out", str(csv_path))
    assert code == 0
    assert csv_path.exists()
    mirror = tmp_path / "sweep.json"
    assert mirror.exists()
    assert json.loads(mirror.read_text())[0]["N"] == 16


def test_sweep_strict_flags_errors(capsys):
    code, out, _ = run(capsys, "sweep", "--ns", "0,16", "--strict")
    assert code == VERIFY_ERROR
    rows = json.loads(out)
    assert "error" in rows[0]
    code, _, _ = run(capsys, "sweep", "--ns", "0,16")
    assert code == 0


def test_sweep_bad_epsilon(capsys):
    code, _, _ = run(capsys, "sweep", "--ns", "16", "--epsilon", "0")
    assert code == USAGE_ERROR
    code, _, _ = run(capsys, "sweep", "--ns", "16", "--epsilon", "nope")
    assert code == USAGE_ERROR


@pytest.mark.parametrize("ns", [",", "", ",,"])
def test_sweep_without_n_is_a_usage_error(capsys, ns):
    code, out, err = run(capsys, "sweep", "--ns", ns)
    assert code == USAGE_ERROR
    assert out == ""
    assert err.startswith("error:") and "--ns" in err


def test_grid3d(capsys):
    code, out, _ = run(capsys, "grid3d", "--k", "2", "--verify")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"k": 2, "points": 8, "lines": 12, "joints": 8}


def test_grid3d_bad_k(capsys):
    code, _, _ = run(capsys, "grid3d", "--k", "1")
    assert code == USAGE_ERROR
