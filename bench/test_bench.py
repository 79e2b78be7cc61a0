"""Self-tests of the benchmark: statistics, self time, tracing, verification, inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from wellspec import cli, model, spectrum, wavefn  # noqa: E402


# --- sample counts -------------------------------------------------


def beyond_p90(n: int) -> int:
    xs = np.arange(n, dtype=float)
    return int((xs > np.percentile(xs, 90.0)).sum())


def test_tail_sample_count():
    n = 11  # smallest sample with ten values beyond its p90
    while beyond_p90(n) < 10:
        n += 1
    assert n == 92
    for w in workloads.WORKLOADS.values():
        assert len(w.generate(1)) >= n, w.name


# --- self time -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root 0..10; A 1..4 with grandchild 2..3; B 5..8 and C 7..9 overlap (two threads);
    # D 9.5..12 runs past the root and is clipped
    spans = [
        (1, 0.0, 10.0, 0),
        (2, 1.0, 4.0, 1),
        (3, 2.0, 3.0, 2),
        (4, 5.0, 8.0, 1),
        (5, 7.0, 9.0, 1),
        (6, 9.5, 12.0, 1),
    ]
    sids, starts, ends, parents = zip(*spans)
    selfs = tracing.self_times(sids, starts, ends, parents)
    assert selfs == pytest.approx([10.0 - (3.0 + 4.0 + 0.5), 2.0, 1.0, 3.0, 2.0, 2.5])
    # the same spans in another order, with ids that are not positions
    perm = [3, 5, 0, 2, 4, 1]
    cols = [np.array(col)[perm] for col in (sids, starts, ends, parents)]
    assert tracing.self_times(*cols) == pytest.approx(np.array(selfs)[perm])


def test_layer_metrics_sums_per_name():
    names = ["outer", "inner"]
    spans = np.array(
        [
            [1, 0, 0.0, 1.0, 0, 0, 0.0],
            [2, 1, 0.1, 0.2, 1, 0, 3.0],
            [3, 1, 0.3, 0.4, 1, 0, 4.0],
        ]
    )
    m = tracing.layer_metrics(spans, names)
    assert m["outer.calls"] == 1 and m["inner.calls"] == 2
    assert m["outer.total_ms"] == pytest.approx(1000.0)
    assert m["outer.self_ms"] == pytest.approx(800.0)
    assert m["inner.self_ms"] == pytest.approx(200.0)
    assert m["inner.work"] == 7.0


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (spectrum.full_spectrum, wavefn.dispersion_residual, cli.main, model.DimensionlessConfig.__dict__["generic"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectrum.dispersion_residual is wavefn.dispersion_residual is not originals[1]
        with tracer.operation(0):
            spectrum.full_spectrum(model.DimensionlessConfig.generic(0.3, 0.7), 4.0 * math.pi)
        with tracer.operation(1):
            code, _ = workloads.run_cli(["sweep-ground", "--f-list", "0.7", "--signs", "repel", "--rho-steps", "5"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert (spectrum.full_spectrum, wavefn.dispersion_residual, cli.main) == originals[:3]
    assert model.DimensionlessConfig.__dict__["generic"] is originals[3]

    spans = tracer.spans()
    names = tracer.names
    by_id = {int(s[0]): s for s in spans}
    kind = lambda s: names[int(s[1])]  # noqa: E731
    counts = {}
    for s in spans:
        counts[kind(s)] = counts.get(kind(s), 0) + 1
    assert counts["cli.main.sweep-ground"] == 1
    assert counts["spectrum.ground_state"] == 5
    assert counts["model.DimensionlessConfig.generic"] == 6
    # sweep points run on pool threads but hang under the CLI call that started them
    for s in spans:
        if kind(s) == "spectrum.ground_state":
            assert kind(by_id[int(s[4])]) == "cli.main.sweep-ground"
            assert int(s[5]) == 1
        if kind(s) == "spectrum.dispersion_residual":
            assert kind(by_id[int(s[4])]) == "spectrum.find_ordinary_positive"
            assert s[6] > 1000  # scan-grid points
    m = tracing.layer_metrics(spans, names)
    assert m["spectrum.full_spectrum.calls"] == 1 + 5
    assert m["cli.main.sweep-ground.self_ms"] < m["cli.main.sweep-ground.total_ms"]


def test_tracer_thread_stacks_are_separate():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(100)], "outer")
    threads = [threading.Thread(target=outer) for _ in range(4)]
    with tracer.operation(0):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans()
    by_id = {int(s[0]): s for s in spans}
    for s in spans:
        if tracer.names[int(s[1])] == "inner":
            assert tracer.names[int(by_id[int(s[4])][1])] == "outer"
    assert len(spans) == 4 * 101 + 1


# --- verification ----------------------------------------------------------------


def test_verifier_rejects_planted_defects():
    verdicts = workloads.planted_defects()
    assert verdicts["good_spectrum"] == []
    assert verdicts["good_sweep"] == []
    assert "level_count" in verdicts["dropped_level"]
    assert "residual" in verdicts["shifted_root"]
    assert "sweep_residual" in verdicts["flipped_sign"]
    assert workloads.planted_defects_rejected()


def test_interlacing_count_matches_a_correct_spectrum():
    for rho, f in ((0.37, 0.7), (0.21, -3.0), (0.61, 0.05), (0.437, 40.0)):
        cfg = model.DimensionlessConfig.generic(rho, f)
        for k_max in (20.3 * math.pi, 57.8 * math.pi):
            spec = spectrum.full_spectrum(cfg, k_max)
            assert len(spec.entries) in verify.interlacing_counts(k_max, rho, f)
            assert abs(len(spec.entries) - math.floor(k_max / math.pi)) <= 1


def test_verifier_flags_the_known_silent_drop():
    cfg = model.DimensionlessConfig.generic(0.5, -0.2)
    spec = spectrum.full_spectrum(cfg, 200.5 * math.pi)
    entries = [(s.kind, s.k, s.energy) for s in spec.entries]
    reasons, _ = verify.check_spectrum(entries, 0.5, -0.2, 200.5 * math.pi, None)
    assert "level_count" in reasons


def test_exact_position_nodal_levels():
    cfg = model.DimensionlessConfig.exact(2, 5, 0.3)
    k_max = 31.5 * math.pi
    entries = [(s.kind, s.k, s.energy) for s in spectrum.full_spectrum(cfg, k_max).entries]
    assert verify.check_spectrum(entries, cfg.rho, cfg.f, k_max, 5)[0] == []
    moved = [(kind, k * (1 + 1e-15) if kind == verify.NODAL else k, e) for kind, k, e in entries]
    assert "nodal" in verify.check_spectrum(moved, cfg.rho, cfg.f, k_max, 5)[0]


def test_dispersion_curve_check():
    code, text = workloads.run_cli(["dispersion-curve", "--rho", "2/7", "--kmax", "3"])
    assert code == 0
    assert verify.check_dispersion(text, 2 / 7, 3, 400) == []
    lines = text.splitlines()
    row = lines[5].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-6))
    bad = "\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n"
    assert verify.check_dispersion(bad, 2 / 7, 3, 400) == ["dispersion_value"]
    assert verify.check_dispersion("\n".join(lines[:-1]) + "\n", 2 / 7, 3, 400) == ["row_count"]


def test_certify_check_reasons():
    table = [[0.0, 0.5, 0.0]]
    assert verify.check_certify(0, "PASS  x: 1\n", table) == []
    out = "PASS  gram_max_offdiag: 1e-16\nFAIL  oracle_max_delta: 3.4e+02\n"
    assert verify.check_certify(4, out, table) == ["check.oracle_max_delta"]
    assert verify.check_certify(3, "", table) == ["exit_3"]
    assert verify.check_certify(0, "", [[0.0, math.nan, 0.0]]) == ["wave_nonfinite"]
    assert verify.check_certify(0, "", [[0.1, 0.5, 0.0]]) == ["wave_wall"]


# --- inputs and report shape ---------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        a = [op.params for op in w.generate(3)]
        assert a == [op.params for op in w.generate(3)]
        assert a != [op.params for op in w.generate(4)]


def test_input_mix():
    deep = [op.params for op in workloads.WORKLOADS["spectrum-deep"].generate(5)]
    assert 0.25 <= sum(1 for p in deep if p.get("exact")) / len(deep) <= 0.35
    assert all(20 * math.pi <= p["k_max"] <= 2000 * math.pi for p in deep)
    figs = [op.params for op in workloads.WORKLOADS["figures"].generate(5)]
    sweeps = [p for p in figs if "sign" in p]
    assert len(sweeps) == 4 * (len(figs) - len(sweeps))
    assert {0.1, 0.4, 0.5} <= {p["f"] for p in sweeps}
    cert = [op.params for op in workloads.WORKLOADS["certify"].generate(5)]
    assert any(p.get("exact") == [2, 5] and p["f"] == -0.01 for p in cert)
    assert all(p["f"] >= workloads.CERTIFY_MIN_ATTRACTIVE_F or -10.0 <= p["f"] <= -0.01 for p in cert)


def test_timed_inputs_avoid_known_defect_regions():
    for seed in (1, 2):
        for p in (op.params for op in workloads.WORKLOADS["spectrum-deep"].generate(seed)):
            rho = p["exact"][0] / p["exact"][1] if p.get("exact") else p["rho"]
            assert not workloads.level_near_cutoff(rho, p["f"], p["k_max"])
            if not p.get("exact"):
                assert not workloads.near_rational(rho, math.ceil(p["k_max"] / math.pi))
    assert workloads.near_rational(0.398963729912964, 193)
    assert not workloads.near_rational(0.398963729912964, 192)
    assert workloads.level_near_cutoff(0.2801753075844777, 0.007367996012206104, 83.3884553474475)


def test_known_reproducers_fail_only_as_expected():
    for name in ("spectrum-deep", "certify"):
        known = run.check_known(workloads.WORKLOADS[name])
        assert known
        assert all(set(reasons) <= expected for _, reasons, expected in known), known


def test_any_failed_operation_makes_the_run_incorrect():
    known = [("a", ["level_count"], {"level_count"}), ("b", [], {"level_count"})]
    assert run.is_correct(True, 0, known)
    assert not run.is_correct(True, 1, known)
    assert not run.is_correct(False, 0, known)
    assert not run.is_correct(True, 0, known + [("c", ["residual"], {"level_count"})])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    names = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
