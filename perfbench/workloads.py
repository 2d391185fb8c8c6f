"""The benchmark's two workloads: set-up, timed passes and output checks.

Each workload is built from one seed. Seed ``n`` gives corpus seed
``101 * (n + 1)`` over ``DEFAULT_BENCH_SPEC`` and master attack seed ``7 * n``,
so seed 0 reproduces the stock ``bench`` corpus (seed 101) with master seed 0.
The ensemble also attacks with master seed ``7 * n + 1``.

A pass is the workload's unit of timed work and is deterministic: every pass
over the same set-up must give the same row digest.
"""
from __future__ import annotations

import dataclasses
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from pst_evade import attack, catalog, corpus, detectors, harness, perturbset

from measure import SpeedLog, at_reference_speed, row_digest
from tracer import Patches

clock = time.perf_counter

ALGORITHMS = ("pst", "mab", "random")
BUDGETS = (10, 20, 30, 40)
# Run length. The grid makes 3 x 4 x 100 attacks for one master seed, 10-20 s
# on the reference machine; the ensemble attacks 120 of the 140 malicious test
# apps once for each of two master seeds, 25-40 s. The ensemble's latencies
# vary more from app to app, so it gets the longer pass. Together with set-up,
# the 48 runs of a regression check fit in an hour.
GRID_SAMPLES = 100
GRID_MASTER_SEEDS = 1
ENSEMBLE_TARGETS = 120
ENSEMBLE_MASTER_SEEDS = 2
ENSEMBLE_BUDGET = 10
# How often a harness worker samples the host's speed: often next to speed
# swings that last seconds. Sampling takes about 5 % of the pass's wall time,
# which attacks_per_s leaves out.
SAMPLE_EVERY_S = 0.1
# Harness thread count of the stock grid: one per core of the 2-core
# reference machine, as `pst-evade bench` would be configured there.
GRID_WORKERS = 2


def seeds_for(seed: int) -> tuple[int, int]:
    """(corpus seed, master attack seed) for a benchmark seed."""
    if seed < 0:
        raise ValueError("benchmark seed must be >= 0")
    return harness.DEFAULT_BENCH_SPEC.seed * (seed + 1), 7 * seed


@dataclass
class Pass:
    """One timed pass: what it did, what it cost and what went wrong."""

    wall_s: float
    attacks: int
    # Latency samples: one per attack on ensemble-attack, one per (sample,
    # algorithm, master seed) on linear-grid.
    attack_ms: list[float]
    # Seconds of attack work that attacks_per_s divides by.
    busy_s: float
    # The same as measured, where attack_ms and busy_s are scaled to the
    # reference speed; None where they are as measured.
    measured_ms: list[float] | None = None
    measured_busy_s: float | None = None
    digest: str = ""
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    quality_note: str = ""
    # Oracle queries the reports account for: each report's queries_used plus
    # the one gate query every attack makes before its budget starts.
    reported_queries: int = 0
    successes: int = 0
    applicable: int = 0


def _check_report(problems, sample_id, budget, queries_used, trace_len) -> bool:
    ok = True
    if queries_used > budget:
        problems.append(f"{sample_id}: {queries_used} queries over budget {budget}")
        ok = False
    if trace_len != queries_used + 1:
        problems.append(f"{sample_id}: trace length {trace_len} != "
                        f"queries_used {queries_used} + 1")
        ok = False
    return ok


class AttackRecord(NamedTuple):
    """What the grid's output checks need from one ``run_attack`` call."""

    sample_id: str
    algorithm: str
    attack_seed: int
    budget: int
    queries_used: int
    trace_len: int
    cpu_ms: float
    # cpu_ms at the reference speed.
    scaled_ms: float = 0.0


def check_grid(rows, records) -> tuple[set[int], list[str], list[list[AttackRecord]]]:
    """Check the grid's rows against the attack reports behind them.

    Rows and reports are matched by (sample id, algorithm, master seed), not
    one to one: a harness may derive the rows of smaller budgets from one
    attack at the largest budget. A row is produced by the report with the
    smallest budget at or above its own. Returns the indices of failed rows,
    the problems found, and the records of each (sample id, algorithm, master
    seed): one latency sample is the time of all of them, every budget together.
    """
    problems: list[str] = []
    # The harness seeds each attack with derive_seed(master, sample id).
    master_of = {harness.derive_seed(r["seed"], r["sample_id"]): r["seed"] for r in rows}
    by_key: dict[tuple, list[AttackRecord]] = {}
    bad_keys = set()
    for rec in records:
        master = master_of.get(rec.attack_seed)
        if master is None:
            problems.append(f"{rec.sample_id}: attack with seed {rec.attack_seed} "
                            f"belongs to no row")
            continue
        key = (rec.sample_id, rec.algorithm, master)
        by_key.setdefault(key, []).append(rec)
        if not _check_report(problems, rec.sample_id, rec.budget, rec.queries_used,
                             rec.trace_len):
            bad_keys.add(key)

    failed_rows = set()
    for i, row in enumerate(rows):
        key = (row["sample_id"], row["algorithm"], row["seed"])
        budget, used = row["budget"], row["queries_used"]
        producers = [r for r in by_key.get(key, ()) if r.budget >= budget]
        if not producers:
            problems.append(f"{key}: no attack ran at budget {budget} or above")
            failed_rows.add(i)
            continue
        if key in bad_keys:
            failed_rows.add(i)
            continue
        producer = min(producers, key=lambda r: r.budget)
        if used > budget or used > producer.queries_used or (
                producer.budget == budget and used != producer.queries_used):
            problems.append(f"{key} budget {budget}: row reports {used} queries, "
                            f"its attack at budget {producer.budget} used "
                            f"{producer.queries_used}")
            failed_rows.add(i)
    return failed_rows, problems, list(by_key.values())


class LinearGrid:
    """`pst-evade gen-corpus` then `pst-evade bench` on the stock grid."""

    name = "linear-grid"
    latency_unit = "samples x algorithm x seed, CPU time of their attacks at every budget"

    def __init__(self, seed: int, work_dir: Path):
        self.corpus_seed, self.master_seed = seeds_for(seed)
        self.work_dir = work_dir
        self.json_mb = 0.0
        # The JSON shape `pst-evade bench --config` reads.
        self.config = harness.config_from_dict({
            "detectors": [{"name": "linear", "kind": "linear", "features": "binary"}],
            "algorithms": list(ALGORITHMS),
            "budgets": list(BUDGETS),
            "sample_count": GRID_SAMPLES,
            "seeds": [self.master_seed + i for i in range(GRID_MASTER_SEEDS)],
            "workers": GRID_WORKERS,
        })
        self.expected_rows = (len(ALGORITHMS) * len(BUDGETS) * GRID_SAMPLES
                              * GRID_MASTER_SEEDS)

    def setup(self) -> None:
        spec = dataclasses.replace(harness.DEFAULT_BENCH_SPEC, seed=self.corpus_seed)
        path = self.work_dir / f"corpus-{os.getpid()}.json"
        try:
            generated = corpus.generate_corpus(spec)
            corpus.save_corpus(generated, path)
            # gen-corpus and bench are separate processes: drop the generated
            # corpus before loading, as the CLI flow does.
            del generated
            self.corpus = corpus.load_corpus(path)
            self.json_mb = path.stat().st_size / 1e6
        finally:
            path.unlink(missing_ok=True)

    def run_pass(self) -> Pass:
        timed = []
        speed = SpeedLog()
        last_sample = threading.local()

        def checking(original):
            # run_experiment keeps only rows; the reports pass through here.
            # The attack's time is its worker thread's CPU time: its wall time
            # mostly measures how the two workers handed the interpreter lock
            # to each other, in steps of the 5 ms switch interval. A worker
            # samples the host's speed holding the lock, so the other runs no
            # Python meanwhile.
            def run_attack(oracle, apk, pset, config):
                if clock() - getattr(last_sample, "at", -1.0) >= SAMPLE_EVERY_S:
                    last_sample.at = speed.sample()
                start = clock()
                cpu = time.thread_time()
                report = original(oracle, apk, pset, config)
                cpu_ms = (time.thread_time() - cpu) * 1000.0
                timed.append((AttackRecord(
                    apk.id, config.algorithm, config.seed, config.budget,
                    report.queries_used, len(report.confidence_trace), cpu_ms),
                    start, clock()))
                return report
            return run_attack

        with Patches() as patches:
            patches.replace("pst_evade.harness", "run_attack", checking)
            start = clock()
            try:
                report = harness.run_experiment(self.config, self.corpus)
            except Exception:
                wall = clock() - start
                traceback.print_exc()
                return Pass(wall_s=wall, attacks=self.expected_rows, attack_ms=[],
                            busy_s=wall,
                            failed=self.expected_rows,
                            problems=["run_experiment raised"])
            wall = clock() - start
        speed.sample()
        records = [rec._replace(scaled_ms=speed.scale(rec.cpu_ms, t0, t1))
                   for rec, t0, t1 in timed]

        rows = report.rows
        failed_rows, problems, groups = check_grid(rows, records)
        # The workers' samples cover the pass evenly in time; their mean is
        # the pass's speed. The time spent sampling is not the program's.
        busy = wall - speed.sampling_s(start, start + wall)
        out = Pass(wall_s=wall, attacks=len(rows),
                   attack_ms=[sum(r.scaled_ms for r in g) for g in groups],
                   busy_s=at_reference_speed(busy, [ms for _, ms in speed.samples]),
                   measured_ms=[sum(r.cpu_ms for r in g) for g in groups],
                   measured_busy_s=busy,
                   digest=row_digest(rows), problems=problems)
        if len(rows) != self.expected_rows:
            out.problems.append(f"{len(rows)} rows, grid needs {self.expected_rows}")
        by_cell: dict[tuple, dict[int, float]] = {}
        for cell in report.cells:
            by_cell.setdefault((cell["algorithm"], cell["seed"]), {})[
                cell["budget"]] = cell["asr"]
        for (algo, seed), by_budget in sorted(by_cell.items()):
            rates = [by_budget[b] for b in sorted(by_budget)]
            if any(later < earlier for earlier, later in zip(rates, rates[1:])):
                failed_rows.update(i for i, r in enumerate(rows)
                                   if r["algorithm"] == algo and r["seed"] == seed)
                out.problems.append(f"ASR of {algo} seed {seed} drops with "
                                    f"budget: {rates}")
        out.failed = len(failed_rows)
        for entry in report.grid:
            if entry["budget"] == BUDGETS[0]:
                out.quality[f"asr{BUDGETS[0]}.{entry['algorithm']}"] = entry["asr_mean"]
        out.quality_note = (f"mean over {len(self.config.seeds)} seed(s) of "
                            f"{GRID_SAMPLES} attacks at budget {BUDGETS[0]}")
        out.reported_queries = sum(r["queries_used"] + 1 for r in rows)
        out.applicable = sum(r["outcome"] != "not_applicable" for r in rows)
        out.successes = sum(r["outcome"] == "success" for r in rows)
        return out

    def verify(self, first: Pass) -> None:
        """Every grid check runs inside the pass."""


class EnsembleAttack:
    """`pst-evade attack` with pst against the stock 20-member ensemble."""

    name = "ensemble-attack"
    latency_unit = f"attacks at budget {ENSEMBLE_BUDGET}"

    def __init__(self, seed: int, work_dir: Path):
        self.corpus_seed, self.master_seed = seeds_for(seed)
        self.work_dir = work_dir
        self.json_mb = 0.0
        self.successes = []

    def setup(self) -> None:
        spec = dataclasses.replace(harness.DEFAULT_BENCH_SPEC, seed=self.corpus_seed)
        generated = corpus.generate_corpus(spec)
        self.pset = perturbset.build_perturbation_set(catalog.load_default_catalog(),
                                                      generated.donors)
        model = harness.make_default_ensemble(generated, seed=0, size=20)
        path = self.work_dir / f"model-{os.getpid()}.json"
        try:
            detectors.save_model(model, path)
            self.model = detectors.load_model(path)
        finally:
            path.unlink(missing_ok=True)
        _, test = generated.train_test_split()
        malicious = [a for a in test if a.ground_truth == "malicious"]
        self.targets = harness.select_true_positives(
            self.model, malicious, ENSEMBLE_TARGETS, self.master_seed, "ensemble")

    def run_pass(self) -> Pass:
        reports = []
        failed = 0
        problems: list[str] = []
        # Every target at the first master seed, then every target at the
        # next: an app's attacks are a pass apart, as in the grid.
        attacks = [(master, apk)
                   for master in range(self.master_seed,
                                       self.master_seed + ENSEMBLE_MASTER_SEEDS)
                   for apk in self.targets]
        speed = SpeedLog()
        timed = []
        start = clock()
        # The host's speed swings by a third within seconds, so each attack
        # is scaled by the speed sampled around it.
        speed.sample()
        for master, apk in attacks:
            config = attack.AttackConfig(
                budget=ENSEMBLE_BUDGET, algorithm="pst",
                seed=harness.derive_seed(master, apk.id))
            t0 = clock()
            try:
                report = attack.run_attack(attack.Oracle(self.model), apk, self.pset, config)
            except Exception:
                failed += 1
                traceback.print_exc()
                problems.append(f"{apk.id} master seed {master}: run_attack raised")
                continue
            finally:
                t1 = clock()
                speed.sample()
            timed.append((t0, t1))
            reports.append((apk, report))
        wall = clock() - start
        measured_ms = [(t1 - t0) * 1000.0 for t0, t1 in timed]
        attack_ms = [speed.scale(ms, t0, t1) for ms, (t0, t1) in zip(measured_ms, timed)]

        out = Pass(wall_s=wall, attacks=len(attacks), attack_ms=attack_ms,
                   busy_s=sum(attack_ms) / 1000.0, measured_ms=measured_ms,
                   measured_busy_s=sum(measured_ms) / 1000.0,
                   failed=failed, problems=problems)
        rows = []
        reduced = 0
        for apk, r in reports:
            rows.append({"sample_id": r.sample_id, "outcome": r.outcome,
                         "queries_used": r.queries_used, "applied": list(r.applied),
                         "confidence_trace": list(r.confidence_trace),
                         "failure_reason": r.failure_reason})
            if not _check_report(problems, r.sample_id, ENSEMBLE_BUDGET,
                                 r.queries_used, len(r.confidence_trace)):
                out.failed += 1
                continue
            if r.outcome == "not_applicable":
                continue
            out.applicable += 1
            reduced += min(r.confidence_trace[1:]) < r.confidence_trace[0]
            if r.outcome == "success":
                out.successes += 1
                self.successes.append((apk, r.adversarial))
        out.digest = row_digest(rows)
        out.reported_queries = sum(r.queries_used + 1 for _, r in reports)
        if out.applicable:
            out.quality = {f"asr{ENSEMBLE_BUDGET}.pst": out.successes / out.applicable,
                           "reduced_frac": reduced / out.applicable}
            out.quality_note = f"{out.applicable} applicable attacks"
        return out

    def verify(self, first: Pass) -> None:
        """Adversarial apps must be valid, contain the original, keep injected
        code isolated, and read benign when queried again."""
        for apk, adversarial in self.successes:
            try:
                corpus.validate_apk(adversarial)
                ok = (corpus.contains(apk, adversarial)
                      and corpus.verify_isolation(adversarial)
                      and detectors.query(self.model, adversarial).label == "benign")
            except ValueError as exc:
                ok = False
                first.problems.append(f"{apk.id}: {exc}")
            if not ok:
                first.failed += 1
                first.problems.append(f"{apk.id}: adversarial app fails its checks")
        self.successes.clear()


WORKLOADS = {w.name: w for w in (LinearGrid, EnsembleAttack)}
