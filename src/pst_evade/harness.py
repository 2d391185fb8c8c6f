"""Experiment orchestration: seeded benchmark runs over detector, algorithm,
and budget grids, with success rates read off the rows.

Every attack seed is derived from (master seed, sample id), so rows do not
depend on the order in which the grid's cells run.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from .attack import ALGORITHMS, AttackConfig, AttackReport, Oracle, run_attack
from .catalog import fields_of, integer, integers, items, number, only, replacing, string, strings
from .corpus import GROUND_TRUTHS, Corpus, CorpusSpec, load_corpus, load_default_catalog
from .detectors import (
    DETECTOR_KINDS,
    FEATURE_KINDS,
    DetectorModel,
    Ensemble,
    FeatureSpace,
    query as model_query,
    train,
)
from .features import build_api_cluster_map, build_vocab
from .perturbset import PerturbationSet, build_perturbation_set

REPORT_FORMAT = 3
# A report row's columns in the order a report file lists them, each with its reader.
REPORT_COLUMNS = {"sample_id": string, "detector": string, "algorithm": string,
                  "budget": integer, "seed": integer, "outcome": string,
                  "queries_used": integer, "wall_ms": number}
# The columns that name a row's attack; a report holds one row of each, sorted by them.
_ROW_KEY = ("detector", "algorithm", "budget", "seed", "sample_id")
# The keys of an attack's detail, one per (detector, algorithm, seed, sample_id) sorted by
# those four, from its run at the largest budget: a smaller budget saw a prefix of its trace.
DETAIL_KEYS = ("detector", "algorithm", "seed", "sample_id",
               "applied", "confidence_trace", "failure_reason")

# Corpus behind the stock benchmark: large enough that the linear detector
# leaves well over the default 100 attackable true positives in the test split.
DEFAULT_BENCH_SPEC = CorpusSpec(n_benign=300, n_malicious=560, donor_count=100,
                                seed=101)


@dataclass(frozen=True)
class DetectorSpec:
    """One detector to train for an experiment."""

    name: str
    kind: str = "linear"
    features: str = "binary"
    train_seed: int = 0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind: {self.kind}")
        if self.features not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind: {self.features}")
        if self.kind == "ensemble" and self.features != "binary":
            raise ValueError(f"detector {self.name!r}: an ensemble's members bring their "
                             f"own feature spaces; leave features unset, not {self.features!r}")
        integer(self.train_seed, "train_seed", lo=0)


def _refuse_repeats(what: str, values) -> None:
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ValueError(f"{what} {repeated!r} is repeated")


@dataclass(frozen=True)
class GridSettings:
    """A grid's algorithms, budgets, true positives per (detector, master seed)
    and master seeds, checked when built: before any file is read."""

    algorithms: tuple[str, ...] = ("pst", "mab", "random")
    budgets: tuple[int, ...] = (10, 20, 30, 40)
    sample_count: int = 100
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm: {algo}")
        if len(self.budgets) == 0 or any(b < 1 for b in self.budgets):
            raise ValueError("budgets must be positive")
        if list(self.budgets) != sorted(set(self.budgets)):
            raise ValueError("budgets must be strictly increasing")
        if len(self.seeds) == 0:
            raise ValueError("experiment needs at least one seed")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        # A repeat would attack its cells twice.
        _refuse_repeats("algorithm", self.algorithms)
        _refuse_repeats("seed", self.seeds)


@dataclass(frozen=True)
class ExperimentConfig(GridSettings):
    """A bench config: the grid settings, the detectors to train and the corpus."""

    corpus_path: str | None = None
    detectors: tuple[DetectorSpec, ...] = field(kw_only=True)

    def __post_init__(self):
        if len(self.detectors) == 0:
            raise ValueError("experiment needs at least one detector")
        super().__post_init__()
        # A repeat would drop the first detector of that name.
        _refuse_repeats("detector name", tuple(d.name for d in self.detectors))


@dataclass(frozen=True)
class MetricsReport:
    """A grid run: the config it records, its rows and its attacks' details
    (``DETAIL_KEYS``); its per-seed ``cells`` and ``grid`` of means over seeds
    are read off its rows."""

    config: dict
    rows: tuple[dict, ...]
    details: tuple[tuple, ...]

    @property
    def cells(self) -> list[dict]:
        return cells_from_rows(self.rows)

    @property
    def grid(self) -> list[dict]:
        return grid_from_rows(self.rows)


def derive_seed(master_seed: int, sample_id: str) -> int:
    """Stable per-sample attack seed, independent of scheduling order."""
    digest = hashlib.sha256(f"{master_seed}:{sample_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Metrics


def compute_asr(rows) -> float:
    """Successes over attacked true positives, from report rows; gate rejections
    do not count."""
    applicable = [r for r in rows if r["outcome"] != "not_applicable"]
    if len(applicable) == 0:
        raise ValueError("no applicable attack reports")
    wins = sum(1 for r in applicable if r["outcome"] == "success")
    return wins / len(applicable)


def group_by(dicts, columns: tuple[str, ...]) -> list[tuple[tuple, list[dict]]]:
    """The dicts grouped by their values of ``columns``: (values, group) pairs
    sorted by values, each group in input order."""
    groups: dict[tuple, list[dict]] = {}
    for d in dicts:
        groups.setdefault(tuple(d[c] for c in columns), []).append(d)
    return sorted(groups.items())


def cells_from_rows(rows) -> list[dict]:
    """The ASR of each (detector, algorithm, budget, seed), in that order."""
    columns = _ROW_KEY[:4]
    return [{**dict(zip(columns, values)), "asr": compute_asr(members)}
            for values, members in group_by(rows, columns)]


def grid_from_rows(rows) -> list[dict]:
    """The mean over seeds of each (detector, algorithm, budget)'s cell ASRs,
    summed in seed order."""
    columns = _ROW_KEY[:3]
    return [{**dict(zip(columns, values)),
             "asr_mean": sum(cell["asr"] for cell in cells) / len(cells)}
            for values, cells in group_by(cells_from_rows(rows), columns)]


# ---------------------------------------------------------------------------
# Detector construction


def _corpus_api_ids(corpus: Corpus) -> list[str]:
    # Donor components can be injected mid-attack, so their calls must be
    # mapped too or the cluster features would raise on adversarial samples.
    ids = set()
    for apps in (corpus.benign, corpus.malicious, corpus.donors):
        for apk in apps:
            for comp in apk.components:
                ids.update(comp.api_calls)
    return sorted(ids)


def _featurize(features: str, apks, corpus: Corpus, seed: int) -> tuple[FeatureSpace, np.ndarray]:
    """The feature space of a feature kind, built over ``apks`` and the corpus,
    and the (apps x features) matrix of ``apks`` in it."""
    if features == "binary":
        space = FeatureSpace(features, keys=build_vocab(apks))
    elif features == "markov":
        space = FeatureSpace(features)
    else:
        space = FeatureSpace(features, cluster_map=build_api_cluster_map(
            _corpus_api_ids(corpus), seed))
    # Filled in place: stacking a list of rows would hold the matrix twice.
    x = np.empty((len(apks), space.width))
    for i, a in enumerate(apks):
        x[i] = space.extract(a)
    return space, x


def train_detector(spec: DetectorSpec, corpus: Corpus) -> DetectorModel | Ensemble:
    """Train the detector a spec describes on the corpus train split, which
    must hold apps of both classes."""
    train_apks, _ = corpus.train_test_split()
    for label in GROUND_TRUTHS:
        if not any(a.ground_truth == label for a in train_apks):
            raise ValueError(f"corpus train split holds no {label} apps")
    if spec.kind == "ensemble":
        return make_default_ensemble(corpus, seed=spec.train_seed)
    space, x = _featurize(spec.features, train_apks, corpus, spec.train_seed)
    labels = [a.ground_truth for a in train_apks]
    return train(spec.kind, space, x, labels, seed=spec.train_seed)


# Member mix for the stock ensemble: mostly linear plus a spread of other
# model families and feature views, echoing a many-engine scanning service.
_ENSEMBLE_PLAN = (
    [("linear", "binary")] * 8 + [("forest", "binary")] * 3 +
    [("knn", "binary")] * 2 + [("mlp", "binary")] +
    [("linear", "markov")] * 3 + [("linear", "api_cluster")] * 3
)


def make_default_ensemble(corpus: Corpus, seed: int = 0, size: int = 20) -> Ensemble:
    """Ensemble of `size` detectors, each fit on a stratified bootstrap of the
    corpus train split.

    Each train app is extracted once per feature kind, and a member's matrix is
    read off by row: a binary member's space, the sorted key union of its
    sample, is the columns its sampled rows use of the full-vocabulary matrix.
    An api_cluster member has its own cluster map and extracts its distinct
    sampled apps in it."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    train_apks = list(corpus.train_test_split()[0])
    by_class: dict[str, list[int]] = {}
    for r, apk in enumerate(train_apks):
        by_class.setdefault(apk.ground_truth, []).append(r)

    # Built on first use: the train matrix per feature kind.
    full: dict[str, tuple[FeatureSpace, np.ndarray]] = {}
    members = []
    for i in range(size):
        kind, features = _ENSEMBLE_PLAN[i % len(_ENSEMBLE_PLAN)]
        member_seed = seed * 977 + i
        rng = random.Random(derive_seed(seed, f"member:{i}"))
        rows: list[int] = []
        for picks in by_class.values():
            rows.extend(rng.choice(picks) for _ in range(len(picks)))
        if features == "api_cluster":
            distinct, inverse = np.unique(rows, return_inverse=True)
            space, x = _featurize(features, [train_apks[r] for r in distinct], corpus,
                                  member_seed)
            x = x[inverse]
        else:
            if features not in full:
                full[features] = _featurize(features, train_apks, corpus, member_seed)
            space, x = full[features]
            if features == "binary":
                cols = np.flatnonzero(x[np.unique(rows)].any(axis=0))
                space = FeatureSpace(features, keys=tuple(space.keys[c] for c in cols))
                x = x[np.ix_(rows, cols)]
            else:
                x = x[rows]
        labels = [train_apks[r].ground_truth for r in rows]
        members.append(train(kind, space, x, labels, seed=member_seed))
    return Ensemble(members)


# ---------------------------------------------------------------------------
# The runner


def select_true_positives(model: DetectorModel | Ensemble, candidates, count: int,
                           master_seed: int, detector_name: str):
    """First `count` detected malicious samples of the first 10 * `count` in seeded order."""
    pool = list(candidates)
    random.Random(master_seed).shuffle(pool)
    picked = []
    for apk in pool[:10 * count]:
        if model_query(model, apk).label == "malicious":
            picked.append(apk)
            if len(picked) == count:
                return picked
    raise ValueError(
        f"detector {detector_name!r} yielded only {len(picked)} true positives "
        f"after examining {min(len(pool), 10 * count)} candidates (requested {count})")


def budget_rows(report: AttackReport, budgets) -> list[tuple[int, str, int, float]]:
    """(budget, outcome, queries_used, wall_ms) of each budget, read off one
    report of an attack run at a budget no smaller than any of them.

    An attack never reads its budget, so a budget-b attack is the first b
    queries of a longer one with the same seed. Where the report ended within
    b queries, the budget-b attack ends the same way; otherwise it is a failure
    that has spent b queries, and its wall time is the report's elapsed time at
    the last answer that attack saw, q - b answers before the report's last.
    """
    q = report.queries_used
    return [(b, report.outcome, q, report.wall_time * 1000.0) if q <= b
            else (b, "failure", b, report.elapsed_trace[b - q - 1] * 1000.0) for b in budgets]


def run_grid(settings: GridSettings, models: dict[str, DetectorModel | Ensemble],
             corpus: Corpus, pset: PerturbationSet, config: dict) -> MetricsReport:
    """Run the grid of ``settings`` against each named model, on the malicious
    apps of the corpus test split, with perturbations from ``pset``; the report
    records ``config``.

    Each (detector, master seed, algorithm, true positive) is attacked once, at
    the largest budget, with its own ``Oracle`` and the seed derived from
    (master seed, sample id). Every budget's row is derived from that report R
    (``budget_rows``). With q = R's ``queries_used`` and b the row's budget:

    - R not applicable: the row is ``not_applicable`` with 0 queries;
    - R a success with q <= b: the row is a ``success`` with q queries;
    - otherwise (the tree depleted, the budget ran out, or the success came
      after b queries): the row is a ``failure`` with min(q, b) queries.

    ``wall_ms`` is R's wall time where q <= b, since the budget-b attack ends
    where R ended, and otherwise R's elapsed time at its b-th answer after the
    gate query (``AttackReport.elapsed_trace``), the last answer the budget-b
    attack would have seen. The rows equal those of one attack per budget,
    wall clock aside, so success rates never drop as the budget grows. R's
    detail keeps its own tuples, not R, which holds the adversarial app.
    """
    _, test_apks = corpus.train_test_split()
    malicious_test = [a for a in test_apks if a.ground_truth == "malicious"]
    # Every (detector, master seed) has its true positives before the first
    # attack, so a grid that cannot run fails before any attack does.
    true_positives = {(name, master): select_true_positives(
        model, malicious_test, settings.sample_count, master, name)
        for name, model in models.items() for master in settings.seeds}

    rows, details = [], []
    for name, model in models.items():
        for master in settings.seeds:
            for algo in settings.algorithms:
                for apk in true_positives[name, master]:
                    report = run_attack(Oracle(model), apk, pset, AttackConfig(
                        budget=settings.budgets[-1], algorithm=algo,
                        seed=derive_seed(master, apk.id)))
                    rows.extend(dict(zip(REPORT_COLUMNS, (apk.id, name, algo, budget, master,
                                                          *ending)))
                                for budget, *ending in budget_rows(report, settings.budgets))
                    details.append((name, algo, master, apk.id, report.applied,
                                    report.confidence_trace, report.failure_reason))
    rows.sort(key=itemgetter(*_ROW_KEY))
    details.sort(key=itemgetter(0, 1, 2, 3))
    return MetricsReport(config=config, rows=tuple(rows), details=tuple(details))


def run_experiment(config: ExperimentConfig,
                   corpus: Corpus | None = None) -> MetricsReport:
    """Train the config's detectors and run their grid (``run_grid``) with the
    pset of the bundled catalog and the corpus's donors. The corpus may be
    passed directly; otherwise it is loaded from the configured path. Attack
    wall times never include this setup work."""
    if corpus is None:
        if config.corpus_path is None:
            raise ValueError("config has no corpus path and no corpus was given")
        corpus = load_corpus(config.corpus_path)  # FileNotFoundError when missing

    pset = build_perturbation_set(load_default_catalog(), corpus.donors)
    models = {spec.name: train_detector(spec, corpus) for spec in config.detectors}
    return run_grid(config, models, corpus, pset, config_to_dict(config))


# ---------------------------------------------------------------------------
# Serialization and presentation


def detector_spec_to_dict(spec: DetectorSpec) -> dict:
    return asdict(spec)


def detector_spec_from_dict(d: dict) -> DetectorSpec:
    """Inverse of ``detector_spec_to_dict``; a key that is not a field, or a field
    of the wrong JSON type, is a ValueError naming it."""
    return DetectorSpec(**fields_of(DetectorSpec, d, "detector", name=string, kind=string,
                                    features=string))


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "corpus_path": config.corpus_path,
        "detectors": [detector_spec_to_dict(s) for s in config.detectors],
        "algorithms": list(config.algorithms),
        "budgets": list(config.budgets),
        "sample_count": config.sample_count,
        "seeds": list(config.seeds),
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of ``config_to_dict``. The ``"workers"`` key of older configs is
    ignored; any other key that is not a field, or a field of the wrong JSON
    type, is a ValueError naming it."""
    return ExperimentConfig(**fields_of(
        ExperimentConfig, d, "config", retired=("workers",),
        detectors=lambda v, name: tuple(map(detector_spec_from_dict, items(v, name))),
        corpus_path=partial(string, null=True),
        algorithms=lambda v, name: tuple(items(v, name)),
        budgets=integers, sample_count=integer, seeds=integers))


def save_report(report: MetricsReport, path: str | Path) -> None:
    """Write a report file through ``replacing``: the format, the config, the
    column names, one list of values per row and one object per detail."""
    rows = [[row[c] for c in REPORT_COLUMNS] for row in report.rows]
    details = [dict(zip(DETAIL_KEYS, detail)) for detail in report.details]
    with replacing(path) as fh:
        fh.write(json.dumps({"format": REPORT_FORMAT, "config": report.config,
                             "columns": list(REPORT_COLUMNS), "rows": rows,
                             "details": details}) + "\n")


def rows_from_dict(doc: dict) -> list[dict]:
    """The rows of a report document, as ``run_grid`` made them; its config and
    details are not read. A key other than ``format``, ``config``, ``columns``,
    ``rows`` and ``details``, a row of the wrong length, a value of the wrong
    JSON type, an unknown outcome or a second row of one (detector, algorithm,
    budget, seed, sample_id) is a ValueError naming the key, or the row and the
    column or the earlier row."""
    only(doc, ("format", "config", "columns", "rows", "details"), "report")
    if strings(doc["columns"], "columns") != tuple(REPORT_COLUMNS):
        raise ValueError(f"columns are not {', '.join(REPORT_COLUMNS)}")
    rows, first, row_key = [], {}, itemgetter(*_ROW_KEY)
    for i, values in enumerate(items(doc["rows"], "rows")):
        if len(items(values, f"row {i}")) != len(REPORT_COLUMNS):
            raise ValueError(f"row {i} has {len(values)} values, not {len(REPORT_COLUMNS)}")
        row = {column: read(value, f"row {i} {column}")
               for (column, read), value in zip(REPORT_COLUMNS.items(), values)}
        if row["outcome"] not in ("success", "failure", "not_applicable"):
            raise ValueError(f"row {i} outcome is {json.dumps(row['outcome'])}, "
                             "not success, failure or not_applicable")
        # A repeat would count one attack twice in its cell's ASR.
        j = first.setdefault(row_key(row), i)
        if j != i:
            raise ValueError(f"row {i} repeats row {j}: one attack per "
                             "detector, algorithm, budget, seed and sample_id")
        rows.append(row)
    return rows


def format_grid(grid) -> str:
    """Success-rate table of grid entries, detectors and algorithms down,
    budgets across."""
    budgets = sorted({entry["budget"] for entry in grid})
    header = f"{'detector':<12} {'algorithm':<10}" + "".join(
        f"  N={b:<5}" for b in budgets)
    lines = [header, "-" * len(header)]
    for (det, algo), entries in group_by(grid, _ROW_KEY[:2]):
        by_budget = {entry["budget"]: entry["asr_mean"] for entry in entries}
        cells = "".join(f"  {by_budget.get(b, float('nan')):<7.3f}"
                        for b in budgets)
        lines.append(f"{det:<12} {algo:<10}{cells}")
    return "\n".join(lines)
