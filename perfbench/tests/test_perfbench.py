"""Tests of the benchmark itself: inputs, tracer and failure counting.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import frgc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _same_pool(a, b) -> bool:
    return len(a) == len(b) and all(
        x.label == y.label and x.spec == y.spec
        and np.array_equal(x.xs, y.xs)
        and (x.predictions is None and y.predictions is None
             or np.array_equal(x.predictions, y.predictions))
        for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_per_seed_and_differ_across_seeds(name):
    gen = workloads.WORKLOADS[name].generate
    first = gen(7)
    assert _same_pool(first, gen(7))
    assert not _same_pool(first, gen(8))
    assert all(s.xs.dtype == np.int64 for s in first)


def test_fixed_m_is_the_programs_lookup():
    for theta, m in workloads.FIXED_M.items():
        assert frgc.lookup_m(theta) == m


def test_laplace_residuals_follow_theta():
    rng = workloads.make_rng(3, "test")
    xs, pred = workloads.laplace_predictions(rng, 200_000, (0.5,))
    tail = np.mean(np.abs(xs - pred) >= 2.0)
    assert tail == pytest.approx(0.25, abs=0.01)


def _small_pool():
    rng = workloads.make_rng(1, "small")
    pool = []
    for spec in (workloads.fixed_spec(0.5, 1, 4), workloads.adaptive_spec(1, 16)):
        xs, pred = workloads.laplace_predictions(rng, 300, (0.5,))
        pool.append(workloads.Stream(spec["mode"], xs, pred, spec, 0.5))
    lpc = dict(workloads.adaptive_spec(1, 8), lpc=(2, 8, 1))
    pool.append(workloads.Stream("lpc", workloads.ar2_signal(rng, 300), None, lpc))
    return pool


def _entry_attrs():
    out = {}
    for module, path, _ in spans.ENTRY_POINTS:
        found = spans._resolve(module, path)
        assert found is not None, f"{module}.{path} missing"
        out[(module, path)] = getattr(*found)
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _entry_attrs()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(*spans._resolve(m, p)) is not f
                   for (m, p), f in before.items())
    finally:
        tracer.uninstall()
    assert _entry_attrs() == before
    assert all(getattr(*spans._resolve(m, p)) is f for (m, p), f in before.items())


def test_self_time_plus_children_equals_duration():
    runner = run.Runner(frgc, _small_pool(), spans.Tracer())
    runner.tracer.install()
    try:
        for i in range(len(runner.cases)):
            runner.run_case(i)
    finally:
        runner.tracer.uninstall()
    assert runner.failed == 0
    t = runner.tracer.table()
    names = runner.tracer.names
    seen = {names[k] for k in t["name"]}
    assert {"codec.encode", "codec.decode", "backend.golomb_encode",
            "predictor.fit", "bitcoder.decode_symbol"} <= seen
    for k, sid in enumerate(t["id"]):
        children = t["dur"][t["parent"] == sid].sum()
        assert children + t["self"][k] == t["dur"][k]
        assert t["self"][k] >= 0
    roots = t["parent"] == -1
    assert np.array_equal(np.unique(t["call"]), np.sort(t["id"][roots]))


def test_net_self_time_takes_tracer_cost_per_direct_child():
    tracer = spans.Tracer(())
    assert tracer.calibrate() > 0
    tracer.overhead_ns = 5.0
    # Root 0 with children 1 and 3; span 2 is a child of 1.
    for sid, parent, t0, t1 in ((1, 0, 10, 50), (2, 1, 20, 30),
                                (3, 0, 60, 90), (0, -1, 0, 100)):
        tracer._record(sid, parent, 0, t0, t1)
    t = tracer.table()
    assert t["self"].tolist() == [30, 30, 10, 30]
    assert t["self_net"].tolist() == [20.0, 25.0, 10.0, 30.0]


def test_child_time_sums_direct_children_only():
    ids = np.array([0, 1, 2, 3])
    parents = np.array([-1, 0, 1, 0])
    dur = np.array([100, 40, 10, 30])
    assert spans.child_time(ids, parents, dur).tolist() == [70, 10, 0, 0]


def test_absent_entry_point_is_reported_not_fatal():
    entries = spans.ENTRY_POINTS + (
        ("frgc.codec", "_gone_in_a_later_version", "qmap.gone"),
        ("frgc.no_such_module", "f", "qmap.nowhere"),
    )
    tracer = spans.Tracer(entries)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["frgc.codec._gone_in_a_later_version",
                             "frgc.no_such_module.f"]


def test_wrong_predictions_count_as_failures_without_aborting():
    def decode_off_by_one(data, predictions=None):
        shifted = None if predictions is None else predictions + 1.0
        return frgc.decode_stream(data, predictions=shifted)

    api = SimpleNamespace(encode_stream=frgc.encode_stream,
                          decode_stream=decode_off_by_one,
                          StreamHeader=frgc.StreamHeader,
                          LpcConfig=frgc.LpcConfig)
    runner = run.Runner(api, _small_pool())
    for i in range(len(runner.cases)):
        runner.run_case(i)
    # The two streams with external predictions decode wrongly (or raise);
    # lpc streams carry no predictions and still round-trip.
    assert runner.attempted == 6
    assert runner.failed == 2
    assert [len(c.enc) for c in runner.cases] == [1, 1, 1]
    assert [len(c.dec) for c in runner.cases] == [0, 0, 1]


def test_raising_encode_is_counted():
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    api = SimpleNamespace(encode_stream=broken, decode_stream=frgc.decode_stream,
                          StreamHeader=frgc.StreamHeader, LpcConfig=frgc.LpcConfig)
    runner = run.Runner(api, _small_pool()[:1])
    runner.run_case(0)
    assert (runner.attempted, runner.failed) == (2, 2)
    assert "boom" in runner.errors[0]


def test_calls_are_scaled_by_the_reference_around_them():
    runner = run.Runner(frgc, _small_pool()[:1])
    nominal = run.reference.NOMINAL_NS
    runner._reference_at = [100, 1_000, 2_000]
    runner.reference_ns = [nominal, 3 * nominal, nominal]
    case = runner.cases[0]
    case.enc = [(150, 950)]      # between the first two measurements
    case.dec = [(1_100, 1_900)]  # between the last two
    runner._normalise()
    assert case.enc_norm == [800 / 2]
    assert case.dec_norm == [800 / 2]


def test_reference_coder_round_trips():
    assert run.reference.rice_decode(
        run.reference.rice_encode([0, 5, 17, 3], 2), 4, 2) == [0, 5, 17, 3]
    assert run.reference.measure() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frames",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
