"""Tests of the benchmark itself: inputs, oracles and span arithmetic.

Run with ``python3 -m pytest bench/tests -q``.
"""

import json
import sys
from pathlib import Path

import pytest

import calibration
import polyomino_ideals as pkg
import shapes
import spans
import workloads


def test_free_polyomino_counts_match_a000105():
    levels = shapes.free_polyominoes(7)
    counts = {n: len(v) for n, v in levels.items()}
    assert counts == {**shapes.FREE_POLYOMINO_COUNTS, 7: 108}


def test_oracles_on_known_shapes():
    assert shapes.has_hole(shapes.frame(3, 3))
    assert not shapes.has_hole(shapes.block(3, 2))
    assert shapes.admissible_rank(shapes.frame(3, 3)) == 9  # one more than |P|
    assert shapes.admissible_rank(shapes.block(3, 2)) == 6
    assert shapes.tree_like(shapes.STAPLE)
    assert not shapes.tree_like(shapes.block(2, 2))
    assert shapes.degree_histogram(shapes.STAPLE) == (0, 3, 2, 1, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    generate = workloads.WORKLOADS[name].generate
    first = workloads.input_digest(generate(3))
    assert workloads.input_digest(generate(3)) == first
    assert workloads.input_digest(generate(4)) != first


def test_certify_inputs_are_tree_like_and_admissible():
    for unit in workloads.certify_generate(0)[:10]:
        cells = unit["cells"]
        assert shapes.tree_like(cells)
        assert workloads.CERTIFY_CELLS[0] <= len(cells) <= workloads.CERTIFY_CELLS[1]
        assert all(shapes.is_admissible(cells, lab) for lab in unit["labelings"])


def test_census_reference_flags_wrong_verdicts():
    unit = {"cells": shapes.frame(3, 3)}
    right = workloads.census_run(pkg, {"cells": shapes.STAPLE})
    assert workloads.census_check({"cells": shapes.STAPLE}, right)[0] == []
    wrong = workloads.census_run(pkg, unit) | {"balanced": True}
    assert workloads.census_check(unit, wrong)[0]


def test_certificate_oracle_flags_a_tampered_certificate():
    unit = workloads.certify_generate(0)[0]
    unit = {**unit, "labelings": unit["labelings"][:2]}
    verdict = workloads.certify_run(pkg, unit)
    assert workloads.certify_check(unit, verdict)[0] == []
    cert, expanded = verdict["certificates"][0]
    multiplier, minor = cert[0]
    verdict["certificates"][0] = ([(multiplier + multiplier, minor)] + cert[1:], expanded)
    problems = workloads.certify_check(unit, verdict)[0]
    assert "certificate does not re-expand to the labeling's binomial" in problems


def package_modules():
    return [m for name, m in sys.modules.items() if name.startswith(spans.PACKAGE)]


def wrapped_originals():
    import importlib

    return {
        id(getattr(importlib.import_module(f"{spans.PACKAGE}.{layer}"), fn))
        for layer, fns in spans.LAYERS.items()
        for fn in fns
    }


def test_rebinding_reaches_every_namespace_and_undoes():
    originals = wrapped_originals()
    holders = [
        (m, attr) for m in package_modules() for attr, v in vars(m).items() if id(v) in originals
    ]
    assert len({m.__name__ for m, _ in holders}) > len(spans.LAYERS)  # re-exported names too
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert all(id(getattr(m, attr)) not in originals for m, attr in holders)
    finally:
        spans.uninstall(undo)
    assert all(id(getattr(m, attr)) in originals for m, attr in holders)


def traced(call):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        unit = tracer.open("unit")
        call()
        tracer.close(unit)
    finally:
        spans.uninstall(undo)
    return tracer


def test_saturate_buchberger_normal_form_nest():
    P = pkg.Polyomino(shapes.block(2, 2))
    tracer = traced(lambda: pkg.is_prime(P))
    (unit,) = tracer.roots
    (prime,) = unit.children
    assert prime.name == "ideals.is_prime"
    saturate = next(c for c in prime.children if c.name == "groebner.saturate")
    buchberger = next(c for c in saturate.children if c.name == "groebner.buchberger")
    assert buchberger.hot["groebner.normal_form"][0] > 0
    metrics = spans.layer_metrics(tracer)
    assert metrics["groebner.saturate.calls"][0] == 1
    assert metrics["groebner.reductions"][0] > 0


def test_self_time_on_a_synthetic_tree():
    parent = spans.Span("p", None, 0.0, 10.0)
    for start, end in ((1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.5, 12.0)):
        parent.children.append(spans.Span("c", parent, start, end))
    parent.hot["h"] = [4, 0.75, 0.5, 0]
    # covered: [1, 5] + [7, 8] + [9.5, 10] = 5.5; hot self time 0.5
    assert spans.self_time(parent) == pytest.approx(10.0 - 5.5 - 0.5)
    leaf = parent.children[0]
    assert spans.self_time(leaf) == pytest.approx(2.0)


def test_exact_counters_repeat_and_verdicts_match_untraced():
    units = workloads.census_generate(0)[:12] + [{"cells": shapes.frame(3, 3)}]
    runs = []
    for _ in range(2):
        fps = []
        tracer = traced(
            lambda: fps.extend(
                workloads.census_check(u, workloads.census_run(pkg, u))[1] for u in units
            )
        )
        metrics = spans.layer_metrics(tracer)
        runs.append(({k: metrics[k] for k in spans.EXACT_COUNTERS}, fps))
    untraced = [workloads.census_check(u, workloads.census_run(pkg, u))[1] for u in units]
    assert runs[0] == runs[1]
    assert runs[0][1] == untraced


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    per_layer = set(spans.layer_metrics(spans.Tracer()))
    per_layer |= {"tracing_overhead_s", "setup.package_import_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    one = run.Pass(1, calibration.Scale())
    one.scale.after()
    one.times, one.attempted = [[1.0]], 1
    assert {m["name"] for m in spec["end_to_end"]} == set(one.end_to_end(0.5)[0])


def test_traced_run_flags_counters_that_do_not_repeat(tmp_path):
    import run

    metrics = {name: (3, "count") for name in spans.EXACT_COUNTERS}
    stored = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    previous = tmp_path / "result.json"
    previous.write_text(json.dumps({"digest": "d", "source": "s", "metrics": stored}))
    drifted = metrics | {"cycles.candidates": (4, "count")}
    assert run.counters_drift(previous, "d", "s", metrics) == []
    assert run.counters_drift(previous, "d", "s", drifted) == ["cycles.candidates"]
    assert run.counters_drift(previous, "other inputs", "s", drifted) == []
    assert run.counters_drift(previous, "d", "other source", drifted) == []


def test_setup_sample_times_a_fresh_interpreter():
    import run

    total, package_import = run.setup_sample("census", 0, calibration.Scale())
    assert 0 < package_import < total < 60


def test_scaled_times_use_the_bursts_on_both_sides():
    scale = calibration.Scale()
    assert calibration.scaled(1.0, calibration.NOMINAL_S, calibration.NOMINAL_S) == pytest.approx(1.0)
    assert calibration.scaled(1.0, calibration.NOMINAL_S, 3 * calibration.NOMINAL_S) == pytest.approx(0.5)
    first = scale.before()
    assert scale.before() == first and scale.bursts == [first]
    second = scale.after()
    assert scale.before() == second and scale.bursts == [first, second]


def test_calibration_burst_is_fixed_work():
    assert calibration.work() == calibration.CHECKSUM
    assert 0 < calibration.burst() < 60


def write_result(directory, workload="census", seed=1, digest="d", correct=True, value=1.0):
    directory.mkdir(exist_ok=True)
    (directory / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "trace": 0, "digest": digest,
        "correct": correct, "metrics": {"verdict_p50_s": {"value": value, "unit": "s"}},
    }))


def test_compare_reports_the_ratio_of_medians(tmp_path, capsys):
    import compare

    write_result(tmp_path / "base", value=2.0)
    write_result(tmp_path / "change", value=1.0)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 0
    assert "change/base 0.5000" in capsys.readouterr().out


def test_compare_refuses_runs_with_other_inputs(tmp_path):
    import compare

    write_result(tmp_path / "base", digest="a")
    write_result(tmp_path / "change", digest="b")
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 2


def test_compare_refuses_runs_that_were_not_correct(tmp_path, capsys):
    import compare

    write_result(tmp_path / "base")
    write_result(tmp_path / "change", correct=False)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "change")]) == 2
    assert "wrong verdicts" in capsys.readouterr().err
