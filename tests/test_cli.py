"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toporna import asymptotics
from toporna.cli import build_parser, main
from toporna.diagram import parse_structure
from toporna.genfun import (
    StructureClass,
    expected_marks,
    pk_marked_dg_jet,
    structure_counts,
)


README = Path(__file__).resolve().parent.parent / "README.md"


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
    # below the first genus-1 structure the breakdown is empty, not an error
    code, out, err = run(
        capsys, "count", "1", "--genus", "1", "--arcs", "--format", "csv"
    )
    assert code == 0 and err == ""
    assert out.strip().splitlines() == ["arcs,count", "total,0"]


def test_count_arc_breakdown_total_matches_count_at_200(capsys):
    code, out, err = run(
        capsys, "count", "200", "--genus", "1", "--arcs", "--format", "json"
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert rows[-1]["arcs"] == "total"
    assert sum(int(r["count"]) for r in rows[:-1]) == int(rows[-1]["count"])
    code, out, _ = run(capsys, "count", "200", "--genus", "1", "--format", "json")
    assert code == 0
    assert rows[-1]["count"] == json.loads(out)["values"]["count"]


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


def readme_examples():
    """(argv, shown output lines) for each ``$ toporna`` line in README.md's code blocks."""
    examples, current, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ toporna"):
            current = (line, shlex.split(line)[2:], [])
            examples.append(current)
        elif current is not None:
            current[2].append(line)
    return examples


def test_readme_examples_parse():
    examples = readme_examples()
    assert examples
    parser = build_parser()
    for line, argv, _ in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_examples_print_what_they_show(capsys):
    """Each README example that shows output prints exactly those lines.

    The ``#`` meta lines are left out of the README; ``...`` between two
    digits elides digits.  Every printed line is shown, ``leading_term`` included.
    """
    shown = [(line, argv, lines) for line, argv, lines in readme_examples() if lines]
    assert [argv[0] for _, argv, _ in shown] == [
        "count", "genus", "classify", "decompose", "clt", "expect", "sample"
    ]
    for line, argv, lines in shown:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", line
        printed = [text for text in out.splitlines() if not text.startswith("#")]
        assert len(printed) == len(lines), line
        for want, got in zip(lines, printed):
            pattern = r"\d+".join(map(re.escape, re.split(r"(?<=\d)\.\.\.(?=\d)", want)))
            assert re.fullmatch(pattern, got), (line, want, got)


def test_main_parses_with_one_parser_per_process(capsys, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(capsys, "count", "6")[0] == 0
    assert run(capsys, "shapes", "--genus", "1")[0] == 0
    assert len(used) == 2 and used[0] is used[1]
    fresh = build_parser()
    assert fresh is not build_parser() and fresh is not used[0]


@pytest.mark.parametrize(
    "refused",
    [
        ("count", "10", "--genus", "x"),
        ("count", "10", "--genus", "1", "--format", "json", "--bogus"),
        ("expect", "--type", "H", "--genus", "2"),
        ("nope",),
    ],
)
def test_a_refused_argv_leaves_later_requests_unchanged(capsys, refused):
    valid = ("count", "10", "--format", "json")
    alone = run(capsys, *valid)
    with pytest.raises(SystemExit) as exit_info:
        main(list(refused))
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert run(capsys, *valid) == alone
    assert json.loads(alone[1])["meta"]["genus"] == "0"


def test_defaults_do_not_leak_between_requests(capsys):
    code, out, _ = run(capsys, "count", "10", "--genus", "1", "--format", "json")
    assert code == 0 and json.loads(out)["meta"]["genus"] == "1"
    code, out, _ = run(capsys, "count", "10")
    assert code == 0
    assert "# genus=0\n" in out and "# format=plain\n" in out and "count: 2188\n" in out
    code, out, _ = run(capsys, "sample", "--n", "8", "--seed", "3", "--count", "2")
    assert code == 0 and "# seed=3\n" in out
    code, out, _ = run(capsys, "sample", "--n", "8", "--count", "2")
    assert code == 0 and "# seed=none\n" in out


def test_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch):
    widths = []
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["count", "--help"])
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] <= 50 < widths[1] <= 150


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


def test_plain_decompose_prints_each_block_indented_by_depth(capsys, tmp_path):
    """One line per block, with the fields of the csv row, two spaces per level."""
    path = tmp_path / "structs.txt"
    path.write_text("(([)]).(.[.).]\n{[}(])..\n(([{)]}).\n")
    code, out, _ = run(capsys, "decompose", "--file", str(path), "--format", "csv")
    assert code == 0
    header, *csv_rows = [line.split(",") for line in out.splitlines()]
    code, out, _ = run(capsys, "decompose", "--file", str(path))
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == len(csv_rows) == 6
    for line, values in zip(lines, csv_rows):
        depth = int(values[header.index("depth")])
        assert line == "  " * depth + "  ".join(f"{k}={v}" for k, v in zip(header, values))
    assert lines[1] == "  structure=(([)]).(.[.).]  depth=1  span=2-5  arcs=2  genus=1  label=H"


@pytest.mark.parametrize("command", ["genus", "classify", "decompose"])
def test_a_structure_and_a_file_are_refused_together(capsys, tmp_path, command):
    good = tmp_path / "good.txt"
    good.write_text("(())\n")
    code, out, err = run(capsys, command, "(())", "--file", str(good))
    assert (code, out) == (2, "")
    assert err == (
        "error: supply a structure argument or --file, not both: "
        f"got '(())' and --file {good}\n"
    )


@pytest.mark.parametrize("command", ["genus", "classify", "decompose"])
def test_a_parse_error_in_the_file_names_the_file_and_the_line(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("(())\n\n  ((.x))\n(.)\n")
    code, out, err = run(capsys, command, "--file", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}, line 3: unmatched 'x' at column 4\n"


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


def test_clt_and_grid_pass_digits_to_the_arc_law(capsys, monkeypatch):
    seen = []
    law = asymptotics.arc_law

    def spy(cls_, dps=50):
        seen.append(dps)
        return law(cls_, dps)

    monkeypatch.setattr(asymptotics, "arc_law", spy)
    argv = ("clt", "--grid", "--max-lambda", "2", "--max-r", "1", "--format", "json")
    code, out, _ = run(capsys, *argv, "--digits", "30")
    assert code == 0 and seen == [30, 30]
    assert "precision" not in json.loads(out)["meta"]
    seen.clear()
    assert run(capsys, "clt", "--digits", "7")[0] == 0 and seen == [7]
    seen.clear()
    assert run(capsys, "clt")[0] == 0 and seen == [4]


def test_expect_matches_library(capsys):
    code, out, _ = run(
        capsys, "expect", "--type", "H", "--n", "20", "--format", "json"
    )
    assert code == 0
    values = json.loads(out)["values"]
    jet = pk_marked_dg_jet(StructureClass(1, 1), 1, "H", 21)
    exact = expected_marks(jet, 20)
    assert values["expected_blocks"] == f"{exact.numerator}/{exact.denominator}"
    # the limits are probabilities only from n = 35, where K's numerator
    # -432 + 24 sqrt(3 pi n) turns nonnegative; below that none is printed
    assert "leading_term" not in values
    for n, shown in (("4", False), ("34", False), ("35", True), ("102", True)):
        code, out, _ = run(capsys, "expect", "--type", "K", "--n", n, "--format", "json")
        values = json.loads(out)["values"]
        assert code == 0 and ("leading_term" in values) == shown, n
        if shown:
            limit = asymptotics.genus1_type_probability("K", int(n))
            assert values["leading_term"] == float(limit)
    code, out, _ = run(capsys, "expect", "--type", "H", "--n", "4", "--format", "json")
    assert "leading_term" not in json.loads(out)["values"]
    code, out, _ = run(
        capsys,
        "expect", "--type", "H", "--n", "40",
        "--lambda", "2", "--r", "2", "--format", "json",
    )
    assert "leading_term" not in json.loads(out)["values"]


def test_expect_refuses_lengths_below_every_structure_at_once(capsys):
    # a genus-g structure has at least 2g stacks of r arcs: length 4gr
    start = time.process_time()
    code, out, err = run(capsys, "expect", "--type", "H", "--n", "4", "--genus", "20")
    assert time.process_time() - start < 1
    assert (code, out, err) == (2, "", "error: no structures of length 4\n")
    code, _, err = run(capsys, "expect", "--type", "K", "--n", "15", "--genus", "2", "--r", "2")
    assert (code, err) == (2, "error: no structures of length 15\n")
    code, out, err = run(capsys, "expect", "--type", "H", "--n", "16", "--genus", "2", "--r", "2")
    assert code == 0 and err == "" and "expected_blocks:" in out


def test_counts_below_the_shortest_structure_are_zero_at_once(capsys):
    # no genus-g structure is shorter than 4gr, so no series is built
    for argv, last in (
        (("count", "4", "--genus", "1000"), "count: 0"),
        (("series", "dg", "--genus", "1000", "--order", "3"), "n=2  coefficient=0"),
        (("count", "20", "--genus", "200", "--arcs"), "arcs=total  count=0"),
    ):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1, argv
        assert (code, err, out.splitlines()[-1]) == (0, "", last), argv


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


def test_seeded_sampling_output_is_pinned(capsys):
    requests = [
        "sample --n 200 --genus 1 --count 200 --seed 5",
        "sample --n 150 --genus 0 --lambda 2 --r 2 --count 200 --seed 6",
        "sample --n 14 --genus 2 --count 50 --seed 7",
        "sample --n 104 --genus 1 --count 300 --seed 8 --stats --format json",
    ]
    text = ""
    for request in requests:
        code, out, err = run(capsys, *request.split())
        assert code == 0 and err == ""
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3cc7edfddb1d17b1fad286c163d6dd210b99287a20863ca3268df9e51526e498"
    )


def _clt_strings(capsys, digit_range):
    """Every clt constant of each class with lambda, r <= 6 and lambda <= r + 1."""
    strings = []
    for lam in range(1, 7):
        for r in range(1, 7):
            if lam > r + 1:
                continue
            for digits in digit_range:
                request = f"clt --lambda {lam} --r {r} --digits {digits} --format json"
                code, out, err = run(capsys, *request.split())
                assert code == 0 and err == ""
                values = json.loads(out)["values"]
                strings += [values[k] for k in ("singularity", "mean_arc_fraction", "variance_fraction")]
    return strings


def _digest(strings):
    return hashlib.sha256(("\n".join(strings) + "\n").encode()).hexdigest()


def test_clt_strings_are_pinned(capsys):
    """Every class with lambda, r <= 6 and lambda <= r + 1, each constant at 1..15 digits."""
    strings = _clt_strings(capsys, range(1, 16))
    assert len(strings) == 1170
    assert _digest(strings) == (
        "464e20262654dc3102f89650673524fddde0a6c1c3873a9bc6c69f229f9a83e9"
    )


def test_clt_strings_to_a_hundred_digits_are_pinned(capsys):
    """The same constants at 16..100 digits.

    The digest was recorded while clt still enclosed the law at 50 working
    digits or more; it shows that working at ``--digits`` moves no digit.
    """
    strings = _clt_strings(capsys, range(16, 101))
    assert len(strings) == 6630
    assert _digest(strings) == (
        "380f65ee53599f92f2b2fe2c6cd95414eb814ab8ae0e38cf13cdc035965098ce"
    )


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
    "case",
    [
        ("count", "3", "--genus", "5"),
        ("count", "6", "--genus", "1", "--oracle"),
        ("series", "dg", "--genus", "1", "--order", "10"),
        ("expect", "--type", "H", "--n", "10"),
        ("sample", "--n", "10", "--genus", "1", "--seed", "1"),
    ],
)
def test_class_that_cannot_inflate_is_rejected_by_flag(capsys, case):
    code, out, err = run(capsys, *case, "--lambda", "3", "--r", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --lambda must be at most --r + 1 at positive genus")
    assert "got --lambda 3, --r 1" in err


def test_class_that_cannot_inflate_still_serves_genus_zero_and_enumeration(capsys):
    for case in (
        ("count", "6", "--lambda", "3", "--r", "1"),
        ("series", "d0", "--genus", "1", "--lambda", "3", "--r", "1"),
        ("sample", "--n", "8", "--genus", "1", "--lambda", "3", "--r", "1", "--enumerative"),
    ):
        code, _, err = run(capsys, *case)
        assert code == 0 and err == "", case


@pytest.mark.parametrize(
    "case, flag",
    [
        (("count", "5", "--ceiling", "0"), "--ceiling"),
        (("sample", "--n", "5", "--ceiling", "25"), "--ceiling"),
        (("census", "--n", "5", "--ceiling", "0"), "--ceiling"),
        (("count", "5", "--ceiling", "30"), "--ceiling"),
        (("sample", "--n", "5", "--ceiling", "0"), "--ceiling"),
        (("census", "--n", "5", "--ceiling", "25"), "--ceiling"),
    ],
)
def test_config_inputs_rejected_by_flag(capsys, case, flag):
    code, out, err = run(capsys, *case)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_flags_belong_to_the_commands_that_read_them(capsys):
    for case in (
        ("genus", "(.)", "--threads", "4"),
        ("census", "--n", "6", "--threads", "2"),
        ("census", "--n", "6", "--genus", "1"),
        ("clt", "--genus", "1"),
        ("clt", "--precision", "30"),
        ("shapes", "--lambda", "2"),
        ("shapes", "--r", "2"),
        ("irreducibles", "--lambda", "2"),
        ("irreducibles", "--r", "2"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(list(case))
        assert exit_info.value.code == 2, case
        flag = " ".join(case[-2:])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, case


@pytest.mark.parametrize(
    "case, flag",
    [
        (("census", "--n", "-1"), "--n"),
        (("census", "--n", "4", "--max-genus", "-1"), "--max-genus"),
        (("sample", "--n", "10", "--count", "-1"), "--count"),
        (("census", "--n", "5", "--r", "0"), "--r"),
        (("census", "--n", "6", "--lambda", "-2"), "--lambda"),
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


@pytest.mark.parametrize(
    "case, flag",
    [
        (("sample", "--n", "-1"), "--n"),
        (("sample", "--n", "-1", "--enumerative"), "--n"),
        (("sample", "--n", "10", "--genus", "-1"), "--genus"),
        (("shapes", "--genus", "-1"), "--genus"),
        (("shapes", "--genus", "-1", "--mark", "H"), "--genus"),
        (("irreducibles", "--genus", "-1"), "--genus"),
        (("irreducibles", "--genus", "0"), "--genus"),
    ],
)
def test_sample_and_shape_inputs_rejected_by_flag(capsys, case, flag):
    code, out, err = run(capsys, *case)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "case, flag",
    [
        (("clt", "--lambda", "2", "--r", "2", "--digits", "101"), "--digits"),
        (("clt", "--digits", "0"), "--digits"),
        (("clt", "--digits", "-1"), "--digits"),
        (("clt", "--grid", "--max-lambda", "0"), "--max-lambda"),
        (("clt", "--grid", "--max-r", "-1"), "--max-r"),
        (("clt", "--grid", "--lambda", "0"), "--lambda"),
        (("clt", "--grid", "--r", "-5"), "--r"),
    ],
)
def test_clt_inputs_rejected_by_flag(capsys, case, flag):
    code, out, err = run(capsys, *case)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_clt_prints_up_to_fifteen_digits(capsys):
    code, out, _ = run(capsys, "clt", "--lambda", "2", "--r", "2", "--digits", "15")
    assert code == 0
    assert "mean_arc_fraction: 0.317239507847332\n" in out


def test_clt_prints_thirty_certified_digits(capsys):
    code, out, err = run(capsys, "clt", "--digits", "30", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["values"] == {
        "singularity": "0.333333333333333333333333333333",
        "mean_arc_fraction": "0.333333333333333333333333333333",
        "variance_fraction": "0.055555555555555555555555555556",
    }


@pytest.mark.parametrize(
    "lam, r, line",
    [
        # 0.35648361896725349...: a float rounds it up to ...254
        ("2", "5", "mean_arc_fraction: 0.356483618967253\n"),
        # 0.52659176997772049...: a float rounds it up to ...721
        ("3", "2", "singularity: 0.526591769977720\n"),
    ],
)
def test_clt_rounds_the_exact_value_not_a_float(capsys, lam, r, line):
    code, out, _ = run(capsys, "clt", "--lambda", lam, "--r", r, "--digits", "15")
    assert code == 0
    assert line in out


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


def _argv(*parts):
    """Requests made of fixed words and drawn values, as an argv list."""
    drawn = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    return st.tuples(*drawn).map(lambda words: [str(w) for w in words])


_LENGTH = st.integers(-2, 12)
_SMALL = st.integers(-1, 3)
_CLASS = ("--lambda", _SMALL, "--r", _SMALL)
_REQUESTS = st.one_of(
    _argv("count", _LENGTH, "--genus", _SMALL, *_CLASS).flatmap(
        lambda argv: st.sampled_from(
            [argv, argv + ["--arcs"], argv + ["--oracle"], argv + ["--arcs", "--oracle"]]
        )
    ),
    _argv("series", st.sampled_from(("d0", "dg", "cg")), "--order", _LENGTH,
          "--genus", _SMALL, *_CLASS),
    _argv("expect", "--type", st.sampled_from("HKLM"), "--n", _LENGTH,
          "--genus", _SMALL, *_CLASS),
    _argv("sample", "--n", _LENGTH, "--genus", _SMALL, *_CLASS,
          "--count", _SMALL, "--seed", 1),
    _argv("census", "--n", _LENGTH, "--max-genus", _SMALL, *_CLASS),
    _argv("shapes", "--genus", _SMALL),
    _argv("irreducibles", "--genus", _SMALL),
    _argv("clt", *_CLASS),
)


@settings(max_examples=300, deadline=None)
@given(argv=_REQUESTS)
def test_bounded_integer_arguments_never_traceback(argv):
    """Every request answers or is refused with exit status 2, never raises."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the request
            code = exc.code
    assert code in (0, 2), argv
