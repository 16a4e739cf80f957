"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

They stay out of the repository's own test suite, which collects ``tests/``
only, and none of them depends on timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402

worker.import_toporna()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from toporna import cli, genfun, oracle  # noqa: E402
from toporna.series import TruncatedSeries  # noqa: E402


def _refs(workload: str) -> dict:
    with open(worker.BENCH_DIR / "refs" / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _menu_keys(workload: str) -> list[str]:
    return [req.key for options in workloads.menu(workload) for req in options]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_seed_gives_the_same_pass(workload):
    assert workloads.make_pass(workload, 5) == workloads.make_pass(workload, 5)
    assert workloads.make_pass(workload, 5) != workloads.make_pass(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_within_a_pass_are_distinct(workload):
    keys = _menu_keys(workload)
    assert len(keys) == len(set(keys))
    for seed in range(20):
        chosen = workloads.make_pass(workload, seed)
        assert len({req.key for req in chosen}) == len(chosen) == len(workloads.menu(workload))
    assert not {req.key for req in workloads.WARMUP[workload]} & set(keys)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_request_starts_worker_processes(workload):
    for options in workloads.menu(workload) + [workloads.WARMUP[workload]]:
        for req in options:
            assert "--threads" not in getattr(req, "argv", ())


@pytest.mark.parametrize("workload", ["analytic", "census"])
def test_references_cover_the_whole_menu(workload):
    assert set(_refs(workload)) == set(_menu_keys(workload))


def test_checker_rejects_a_reference_value_with_one_digit_flipped():
    req = workloads.menu("analytic")[0][0]
    code, out, _ = worker.call_cli(cli, req.argv)
    assert code == 0
    doc = json.loads(out)
    expected = _refs("analytic")[req.key]
    assert checks.check_reference(doc, expected) is None
    doc["meta"]["format"] = "ignored"
    assert checks.check_reference(doc, expected) is None
    count = doc["values"]["count"]
    doc["values"]["count"] = count[:-1] + str((int(count[-1]) + 1) % 10)
    assert checks.check_reference(doc, expected) is not None


def test_checker_rejects_a_library_result_with_one_digit_flipped():
    req = next(r for r in workloads.menu("analytic")[-1])
    value = worker.call_lib(genfun, req)
    expected = _refs("analytic")[req.key]
    assert checks.check_reference(worker.lib_document(value), expected) is None
    flipped = type(value)(value.numerator + 1, value.denominator)
    assert checks.check_reference(worker.lib_document(flipped), expected) is not None


SAMPLE_ARGV = ("sample", "--n", "20", "--genus", "1", "--lambda", "1", "--r", "1",
               "--count", "4", "--seed", "3")


def test_checker_rejects_a_sampled_structure_of_the_wrong_genus():
    code, out, _ = worker.call_cli(cli, SAMPLE_ARGV + ("--format", "json"))
    assert code == 0
    doc = json.loads(out)
    assert checks.check_sample(SAMPLE_ARGV, doc) is None
    doc["samples"][2] = "(" * 10 + ")" * 10
    assert "genus 0, not 1" in checks.check_sample(SAMPLE_ARGV, doc)
    doc["samples"] = doc["samples"][:3]
    assert "3 draws, not 4" in checks.check_sample(SAMPLE_ARGV, doc)


def test_checker_rejects_stats_that_do_not_sum_to_the_count():
    argv = SAMPLE_ARGV + ("--stats",)
    code, out, _ = worker.call_cli(cli, argv + ("--format", "json"))
    assert code == 0
    doc = json.loads(out)
    assert checks.check_sample(argv, doc) is None
    hist = doc["values"]["arc_hist"]
    key = next(iter(hist))
    hist[key] = str(int(hist[key]) + 1)
    assert checks.check_sample(argv, doc) is not None


def test_checker_rejects_analysis_claiming_the_wrong_genus():
    text = "((.[))]"
    code, out, _ = worker.call_cli(cli, ("genus", text, "--format", "json"))
    assert code == 0
    doc = json.loads(out)
    assert checks.check_on_sampled("genus", [text], 1, doc) is None
    assert checks.check_on_sampled("genus", [text], 2, doc) is not None
    code, out, _ = worker.call_cli(cli, ("classify", text, "--format", "json"))
    assert checks.check_on_sampled("classify", [text], 1, json.loads(out)) is None
    assert checks.check_on_sampled("classify", [text], 0, json.loads(out)) is not None


def test_times_are_scaled_to_the_speed_of_the_reference_slice():
    def report(slowdown):
        return {
            "requests": [{"ms": 10.0 * slowdown * (i + 1)} for i in range(12)],
            "reference_ms": [run.REFERENCE_MS * slowdown] * 13,
            "setup_s": 0.5 * slowdown,
            "peak_rss_mb": 30.0,
        }

    assert run.wall_s(report(2.0)) == pytest.approx(0.78)
    # a pass on a machine 1.7 times slower reports the same metrics
    assert run.end_to_end([report(1.7)], 12) == pytest.approx(run.end_to_end([report(1.0)], 12))


def test_self_time_of_a_synthetic_nested_span_tree():
    # root 0..10 holds a 1..4 span (itself holding 2..3) and a 5..9 span;
    # a second root 20..21 has no children
    spans = [
        [-1, 0, 0.0, 10.0],
        [0, 1, 1.0, 4.0],
        [1, 2, 2.0, 3.0],
        [0, 1, 5.0, 9.0],
        [-1, 0, 20.0, 21.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def _traced(fn):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        span = tracer.begin_request()
        result = fn()
        tracer.end_request(span)
    finally:
        uninstall()
    return tracer, result


def test_tracing_changes_no_output_and_accounts_for_the_wall_time():
    argv = ("count", "30", "--genus", "1", "--format", "json")
    original = genfun.dg_series
    plain = worker.call_cli(cli, argv)
    tracer, traced = _traced(lambda: worker.call_cli(cli, argv))
    assert traced == plain
    assert genfun.dg_series is original and cli.genfun.dg_series is original
    m = tracing.layer_metrics(tracer, 0.0, 0)
    assert m["cli.requests"] == 1 and m["genfun.calls"] >= 1 and m["series.mul.calls"] > 0
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self + m["trace.harness_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.accounted_fraction"] == pytest.approx(layer_self / m["trace.wall_s"])


def test_coefficient_products_are_counted_from_the_operands():
    a = TruncatedSeries([1, 0, 2], 3)
    b = TruncatedSeries([3, 4, 0], 3)
    tracer, product = _traced(lambda: a * b)
    # a0*b0, a0*b1 and a2*b0 lie below the order; a2*b1 does not
    assert tracer.counts["series.mul.coeff_products"] == 3
    assert product.coeffs == [3, 4, 6]
    m = tracing.layer_metrics(tracer, 0.0, 0)
    assert m["series.mul.calls"] == 1 and m["series.max_coeff_bits"] == 3


def test_generators_are_timed_over_their_whole_iteration():
    expected = sum(1 for _ in oracle.enumerate_diagrams(7, genus=1))
    tracer, yielded = _traced(lambda: sum(1 for _ in oracle.enumerate_diagrams(7, genus=1)))
    assert yielded == expected == tracer.counts["oracle.enumerate.diagrams"]
    m = tracing.layer_metrics(tracer, 0.0, 0)
    resumes = [s for s in tracer.spans if tracer.names[s[1]] == "oracle.enumerate_diagrams"]
    assert len(resumes) == expected + 1
    assert m["oracle.enumerate.s"] == pytest.approx(sum(end - start for _, _, start, end in resumes))
