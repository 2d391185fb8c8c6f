"""Tests for the benchmark's own helpers. Run with

    python3 -m pytest perfbench
"""
from __future__ import annotations

import gc
import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from measure import (REFERENCE_KERNEL_MS, SpeedLog, at_reference_speed,  # noqa: E402
                     percentile, reference_ms, row_digest, spread)
from tracer import ATTACK_SPAN, Patches, Span, SpanIndex, Tracer, self_cpu  # noqa: E402


# ---------------------------------------------------------------------------
# Percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1, 2], 0.0)


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


# ---------------------------------------------------------------------------
# Host-speed reference


def test_time_is_scaled_by_the_speed_around_it():
    ref = REFERENCE_KERNEL_MS
    assert at_reference_speed(150.0, (ref, ref)) == pytest.approx(150.0)
    # The host ran at half speed throughout: the attack counts half its time.
    assert at_reference_speed(150.0, (2 * ref, 2 * ref)) == pytest.approx(75.0)
    # Speed changed during the attack: the samples are averaged.
    assert at_reference_speed(150.0, (ref, 3 * ref)) == pytest.approx(75.0)
    assert at_reference_speed(150.0, [ref, ref, 4 * ref]) == pytest.approx(75.0)


def test_speed_log_scales_by_the_samples_near_the_interval():
    ref = REFERENCE_KERNEL_MS
    log = SpeedLog()
    assert log.window_s == 0.5
    log.samples = [(0.0, ref), (1.0, 2 * ref), (1.2, 2 * ref), (3.0, 4 * ref)]
    assert log.scale(100.0, 0.1, 0.3) == pytest.approx(100.0)
    # [0.6, 1.8] holds the two half-speed samples only.
    assert log.scale(100.0, 1.1, 1.3) == pytest.approx(50.0)
    # Nothing within [1.3, 2.8]: the nearest sample on each side.
    assert log.scale(100.0, 1.8, 2.3) == pytest.approx(100.0 / 3.0)


def test_reference_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert reference_ms() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_ms()
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Self time


def _span(sid, parent, name, start, end, cpu=None, thread=1):
    return Span(sid, parent, name, None, thread, start, end,
                end - start if cpu is None else cpu)


def test_self_cpu_subtracts_same_thread_children_only():
    parent = _span(1, None, "harness.run", 0.0, 10.0, cpu=3.0)
    kids = [_span(2, 1, "perturbset.build", 0.0, 0.5, cpu=0.5),
            _span(3, 1, "detectors.train", 0.5, 1.5, cpu=1.0),
            # Worker threads: their CPU time was never on the parent's clock.
            _span(4, 1, ATTACK_SPAN, 1.5, 9.0, cpu=4.0, thread=2),
            _span(5, 1, ATTACK_SPAN, 1.5, 9.0, cpu=3.5, thread=3)]
    assert self_cpu(parent, kids) == pytest.approx(3.0 - 0.5 - 1.0)
    assert self_cpu(parent, []) == 3.0


def test_span_index_busy_waited_calls_and_self():
    spans = [
        _span(1, None, "harness.run", 0.0, 10.0, cpu=2.0),
        _span(2, 1, ATTACK_SPAN, 1.0, 4.0, cpu=2.5, thread=2),
        _span(3, 2, "detectors.query.ensemble", 1.5, 3.5, cpu=1.5, thread=2),
        _span(4, 3, "detectors.query.linear", 2.0, 2.5, thread=2),
        _span(5, 3, "detectors.query.linear", 2.5, 3.0, thread=2),
        _span(6, 1, "harness.select_tp", 5.0, 6.0, cpu=0.75),
        _span(7, 6, "detectors.query.linear", 5.0, 5.5),
    ]
    idx = SpanIndex(spans)
    assert idx.calls("detectors.query.", prefix=True) == 4
    assert idx.calls("detectors.query.", prefix=True, under=ATTACK_SPAN) == 1
    assert idx.busy("detectors.query.linear") == pytest.approx(1.5)
    assert idx.busy("detectors.query.linear", under="harness.select_tp") == pytest.approx(0.5)
    assert idx.waited(ATTACK_SPAN) == pytest.approx(3.0 - 2.5)
    assert idx.self_busy(ATTACK_SPAN) == pytest.approx(2.5 - 1.5)
    assert idx.self_busy("harness.run") == pytest.approx(2.0 - 0.75)
    assert idx.busy("absent.name") == 0.0


# ---------------------------------------------------------------------------
# Row digest


def test_digest_ignores_wall_clock_only():
    rows = [{"sample_id": "m1", "outcome": "success", "queries_used": 3, "wall_ms": 1.5},
            {"sample_id": "m2", "outcome": "failure", "queries_used": 10, "wall_ms": 9.0}]
    slower = [dict(r, wall_ms=r["wall_ms"] * 7) for r in rows]
    assert row_digest(rows) == row_digest(slower)
    assert row_digest([dict(rows[0], wall_time=0.1)]) == row_digest([dict(rows[0], wall_time=0.2)])
    assert row_digest(rows) != row_digest([dict(rows[0], queries_used=4), rows[1]])
    assert row_digest(rows) != row_digest(rows[::-1])


# ---------------------------------------------------------------------------
# Grid checks


def _grid(budgets=(10, 20), samples=("m1", "m2"), masters=(0, 5)):
    """Rows of a small grid, one algorithm, every attack spending 3 queries."""
    from pst_evade.harness import derive_seed
    from workloads import AttackRecord

    rows = [{"sample_id": s, "algorithm": "pst", "budget": b, "seed": m,
             "queries_used": 3, "outcome": "failure"}
            for m in masters for b in budgets for s in samples]

    def record(row, budget=None, used=3, trace_len=4, cpu_ms=1.0):
        return AttackRecord(row["sample_id"], "pst",
                            derive_seed(row["seed"], row["sample_id"]),
                            budget or row["budget"], used, trace_len, cpu_ms)
    return rows, record


def test_grid_with_one_attack_per_row_passes():
    from workloads import check_grid

    rows, record = _grid()
    failed, problems, groups = check_grid(rows, [record(r) for r in rows])
    assert (failed, problems) == (set(), [])
    # One sample per (sample, algorithm, seed), summed over both budgets.
    assert sorted(sum(r.cpu_ms for r in g) for g in groups) == [2.0] * 4


def test_grid_rows_derived_from_the_largest_budget_pass():
    from workloads import check_grid

    rows, record = _grid()
    # A budget-prefix harness: one attack at budget 20 gives both rows.
    records = [record(r, cpu_ms=1.5) for r in rows if r["budget"] == 20]
    failed, problems, groups = check_grid(rows, records)
    assert (failed, problems) == (set(), [])
    assert sorted(sum(r.cpu_ms for r in g) for g in groups) == [1.5] * 4


def test_grid_flags_bad_reports_and_uncovered_rows():
    from workloads import check_grid

    rows, record = _grid()
    records = [record(r) for r in rows]
    records[0] = record(rows[0], used=11, trace_len=12)  # over budget 10
    records[1] = record(rows[1], trace_len=3)            # trace too short
    del records[-1]                                      # a row with no attack
    failed, problems, _ = check_grid(rows, records)
    assert failed == {0, 1, 2, 3, len(rows) - 1}  # both budgets of m1/m2 at seed 0
    assert len(problems) == 3


def test_grid_flags_a_row_that_disagrees_with_its_attack():
    from workloads import check_grid

    rows, record = _grid()
    records = [record(r) for r in rows]
    rows[2] = dict(rows[2], queries_used=4)
    failed, problems, _ = check_grid(rows, records)
    assert failed == {2} and len(problems) == 1


# ---------------------------------------------------------------------------
# Wrapping and restoring


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def parse(s):
        return len(s)

    def pool():
        workers = [threading.Thread(target=mod.outer, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    mod.inner, mod.outer, mod.parse, mod.pool = inner, outer, parse, pool
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


TARGETS = (
    ("perfbench_fake", "outer", ATTACK_SPAN, "span"),
    ("perfbench_fake", "inner", "fake.inner", "span"),
    ("perfbench_fake", "parse", "fake.parse", "count"),
    ("perfbench_fake", "pool", "fake.root", "span"),
    ("perfbench_fake", "removed_later", "fake.gone", "span"),
    ("perfbench_fake_missing_module", "anything", "fake.gone", "span"),
)


def test_tracer_restores_originals_and_reports_absent(fake_module):
    originals = (fake_module.inner, fake_module.outer, fake_module.parse)
    with Tracer(TARGETS) as tracer:
        assert fake_module.inner is not originals[0]
        tracer.recording = True
        assert fake_module.outer(1) == 4
        fake_module.parse("abc")
        fake_module.parse("de")
        assert tracer.count("fake.parse") == 2
        fake_module.parse("x")
        assert tracer.count("fake.parse") == 3
        assert tracer.count("fake.unknown") == 0
    assert (fake_module.inner, fake_module.outer, fake_module.parse) == originals
    assert tracer.absent == ["perfbench_fake.removed_later",
                             "perfbench_fake_missing_module.anything"]
    outer, inner = sorted(tracer.spans, key=lambda s: s.id)
    assert (outer.name, inner.name) == (ATTACK_SPAN, "fake.inner")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attack == outer.attack == outer.id
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert 0.0 <= inner.cpu <= outer.cpu


def test_tracer_restores_after_an_exception(fake_module):
    original = fake_module.inner
    with pytest.raises(RuntimeError):
        with Tracer(TARGETS):
            raise RuntimeError("boom")
    assert fake_module.inner is original


def test_nested_patches_unwind_in_reverse(fake_module):
    original = fake_module.inner
    with Tracer(TARGETS) as tracer:
        traced = fake_module.inner
        with Patches() as patches:
            patches.replace("perfbench_fake", "inner", lambda f: lambda x: f(x) + 100)
            assert fake_module.inner(1) == 102
        assert fake_module.inner is traced
        assert tracer.recording is False
    assert fake_module.inner is original


def test_worker_thread_spans_hang_under_the_open_root(fake_module):
    with Tracer(TARGETS) as tracer:
        tracer.recording = True
        fake_module.pool()
    roots = [s for s in tracer.spans if s.name == "fake.root"]
    attacks = [s for s in tracer.spans if s.name == ATTACK_SPAN]
    assert len(roots) == 1 and len(attacks) == 2
    assert all(a.parent == roots[0].id for a in attacks)
    assert all(a.thread != roots[0].thread for a in attacks)
    assert len({a.attack for a in attacks}) == 2


# ---------------------------------------------------------------------------
# BENCHMARK.json and the workloads' seeds


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"linear-grid", "ensemble-attack"}


def test_seed_zero_is_the_stock_bench_corpus():
    from workloads import seeds_for

    assert seeds_for(0) == (101, 0)
    assert seeds_for(1) == (202, 7)
    with pytest.raises(ValueError):
        seeds_for(-1)
