"""End-to-end tests for the command-line interface."""

import json

import pytest

from toporna.cli import main
from toporna.diagram import parse_structure
from toporna.genfun import (
    StructureClass,
    expected_marks,
    pk_marked_dg_jet,
    structure_counts,
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_with_oracle(capsys):
    code, out, err = run(
        capsys, "count", "5", "--genus", "1", "--oracle", "--format", "json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["values"] == {"count": "5", "oracle_count": "5", "agree": True}
    assert doc["meta"]["n"] == "5"


def test_count_arc_breakdown_csv(capsys):
    code, out, _ = run(
        capsys, "count", "10", "--genus", "1", "--arcs", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "arcs,count"
    assert lines[-1] == "total,5880"
    assert "4,3150" in lines


def test_series_families(capsys):
    code, out, _ = run(
        capsys, "series", "dg", "--genus", "1", "--order", "10", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["coefficient"] for r in rows[:6]] == ["0", "0", "0", "0", "1", "5"]
    code, out, _ = run(capsys, "series", "cg", "--order", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["coefficient"] for r in rows] == ["1", "1", "2", "5", "14", "42"]


def test_shapes_marked_polynomial(capsys):
    code, out, _ = run(
        capsys, "shapes", "--genus", "1", "--mark", "H", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    got = {(r["x_power"], r["y_power"]): r["coefficient"] for r in rows}
    assert got == {
        ("2", "1"): "1",
        ("3", "0"): "2",
        ("3", "1"): "1",
        ("4", "0"): "3",
        ("5", "0"): "1",
    }


def test_irreducibles(capsys):
    code, out, _ = run(capsys, "irreducibles", "--genus", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["x_power"], r["coefficient"]) for r in rows] == [
        ("2", "1"),
        ("3", "2"),
        ("4", "1"),
    ]


def test_structure_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "genus", "([)]", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["genus"] == "1" and row["boundary_components"] == "1"

    code, out, _ = run(capsys, "classify", "([)]", "--format", "json")
    assert json.loads(out)["rows"][0]["labels"] == "H"

    path = tmp_path / "structs.txt"
    path.write_text("([)]\n((..))\n")
    code, out, _ = run(capsys, "genus", "--file", str(path), "--format", "json")
    rows = json.loads(out)["rows"]
    assert [r["genus"] for r in rows] == ["1", "0"]

    code, out, _ = run(capsys, "decompose", "(([.)].)([)]", "--format", "json")
    assert code == 0
    blocks = json.loads(out)["values"]["structures"][0]["blocks"]
    assert blocks[0]["label"] == "secondary"
    assert blocks[0]["children"][0]["label"] == "H"
    assert blocks[1]["label"] == "H"


def test_clt_cell_and_grid(capsys):
    code, out, _ = run(capsys, "clt", "--format", "json")
    assert code == 0
    values = json.loads(out)["values"]
    assert values["mean_arc_fraction"] == "0.3333"
    assert values["singularity"] == "0.3333"

    code, out, _ = run(capsys, "clt", "--grid", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "min_arc,min_stack,mean"
    assert len(lines) == 27  # admissible cells with min_arc, min_stack <= 6
    assert "2,1,0.2764" in lines
    assert "6,6,0.3359" in lines


def test_expect_matches_library(capsys):
    code, out, _ = run(
        capsys, "expect", "--type", "H", "--n", "20", "--format", "json"
    )
    assert code == 0
    values = json.loads(out)["values"]
    jet = pk_marked_dg_jet(StructureClass(1, 1), 1, "H", 21)
    exact = expected_marks(jet, 20)
    assert values["expected_blocks"] == f"{exact.numerator}/{exact.denominator}"
    assert "leading_term" in values
    code, out, _ = run(
        capsys,
        "expect", "--type", "H", "--n", "20",
        "--lambda", "2", "--r", "2", "--format", "json",
    )
    assert "leading_term" not in json.loads(out)["values"]


def test_sample_deterministic_and_valid(capsys):
    args = (
        "sample", "--n", "12", "--genus", "1",
        "--count", "8", "--seed", "7", "--format", "json",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["generator"] == "python-random-mt19937"
    assert doc["meta"]["method"] == "grammar"
    samples = doc["samples"]
    assert len(samples) == 8
    for text in samples:
        d = parse_structure(text)
        assert d.n == 12 and d.genus().genus == 1
    code, out2, _ = run(capsys, *args)
    assert json.loads(out2)["samples"] == samples

    code, out, _ = run(
        capsys,
        "sample", "--n", "8", "--genus", "1", "--count", "5",
        "--seed", "3", "--enumerative", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["meta"]["method"] == "enumerative"
    assert all(parse_structure(t).genus().genus == 1 for t in doc["samples"])


def test_sample_stats(capsys):
    code, out, _ = run(
        capsys,
        "sample", "--n", "10", "--genus", "1", "--count", "500",
        "--seed", "1", "--stats", "--format", "json",
    )
    assert code == 0
    values = json.loads(out)["values"]
    assert values["draws"] == "500"
    assert values["pk"]["higher"] == "0"
    assert sum(int(v) for v in values["arc_hist"].values()) == 500


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--n", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_genus = {r["genus"]: r for r in rows}
    assert by_genus["1"]["count"] == "420"
    assert by_genus["2"]["pk_higher"] == "17"


def test_error_exits(capsys):
    cases = [
        ("count", "6", "--genus", "1", "--lambda", "3", "--r", "1"),
        ("clt", "--precision", "5"),
        ("count", "5", "--ceiling", "30"),
        ("genus", "((("),
        ("census", "--n", "20"),
        ("sample", "--n", "300", "--genus", "1"),
        ("sample", "--n", "60", "--genus", "2"),
        ("genus",),
    ]
    for case in cases:
        code, _, err = run(capsys, *case)
        assert code == 2, case
        assert err.startswith("error:"), case


@pytest.mark.parametrize(
    "case, flag",
    [
        (("census", "--n", "-1"), "--n"),
        (("census", "--n", "4", "--max-genus", "-1"), "--max-genus"),
        (("sample", "--n", "10", "--count", "-1"), "--count"),
    ],
)
def test_oracle_inputs_rejected_by_flag(capsys, case, flag):
    code, out, err = run(capsys, *case)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "case, flag",
    [
        (("count", "-1"), "n"),
        (("count", "5", "--genus", "-1"), "--genus"),
        (("series", "dg", "--order", "0"), "--order"),
        (("series", "d0", "--order", "-3"), "--order"),
        (("series", "dg", "--genus", "-1"), "--genus"),
        (("series", "cg", "--genus", "-1", "--order", "5"), "--genus"),
        (("expect", "--type", "H", "--n", "-1"), "--n"),
        (("expect", "--type", "H", "--n", "10", "--genus", "0"), "--genus"),
    ],
)
def test_series_inputs_rejected_by_flag(capsys, case, flag):
    code, out, err = run(capsys, *case)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def _digits_to_int(text):
    """Parse a decimal string of any length, 4000 digits at a time."""
    value = 0
    for start in range(0, len(text), 4000):
        chunk = text[start : start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_prints_beyond_the_int_digit_limit(capsys):
    expect = structure_counts(StructureClass(1, 1), 2, 10001)[10000]
    code, out, err = run(capsys, "count", "10000", "--genus", "2")
    assert code == 0 and err == ""
    text = out.splitlines()[-1].removeprefix("count: ")
    assert len(text) > 4300
    assert _digits_to_int(text) == expect
    code, out, err = run(capsys, "count", "10000", "--genus", "2", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["values"]["count"] == text
