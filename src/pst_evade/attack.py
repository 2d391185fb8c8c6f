"""Query-budgeted attacks against a black-box detector oracle: one attack loop
and three selection policies, the tree-guided attack plus multi-armed-bandit and
uniform-random baselines."""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .corpus import ApkModel
from .detectors import DetectorModel, Ensemble, Feedback, block_states, query as model_query
from .features import added_parts
from .perturbset import PerturbationSet, apply_perturbation
from .pstree import EPSILON, PSTree, adjust, build_tree, sample_path


class Oracle:
    """Black-box view of a detector: label + confidence per query.

    Perturbations only add to an app, so an attack's candidate is the kept
    sample plus the parts its picks added. The oracle remembers two apps: the
    last one it answered that added something, and the app that one extended.
    For each, it keeps the state (``FeatureSpace.state``) and row of each of
    the model's feature spaces, and the state of each of its scoring blocks
    (``detectors.block_states``): a forest block's node choices, a kNN block's
    distances. An app that extends either of them (``added_parts``) is
    answered from that app's space states plus the added parts'
    contribution, and its blocks' states from that app's and the columns the
    parts set. An app that adds nothing to one of them is answered from what
    it keeps and leaves the memory as it is, so a rejected candidate proposed
    again does not push out the kept sample. Any other app is extracted and
    scored in full, so every answer equals ``detectors.query(model, apk)`` bit
    for bit.
    """

    def __init__(self, model: DetectorModel | Ensemble):
        self.model = model
        # (app, space states, rows, block states), the latest first.
        self._remembered: list[tuple[ApkModel, dict, dict, dict]] = []

    def query(self, apk: ApkModel) -> Feedback:
        return model_query(self.model, apk, self._view)

    def _view(self, apk: ApkModel) -> tuple[dict, dict]:
        for kept in self._remembered:
            parts = added_parts(kept[0], apk)
            if parts is None:
                continue
            _, states, rows, blocks = kept
            if parts.empty:
                return rows, blocks
            states = {space: space.extended(state, parts) for space, state in states.items()}
            new_rows = {space: space.row(state) for space, state in states.items()}
            if blocks:  # a model without blocks keeps none
                blocks = block_states(self.model, new_rows, (rows, blocks))
            self._remembered = [(apk, states, new_rows, blocks), kept]
            return new_rows, blocks
        states = {space: space.state(apk) for space in self.model.spaces}
        rows = {space: space.row(state) for space, state in states.items()}
        blocks = block_states(self.model, rows)
        self._remembered = [(apk, states, rows, blocks)]
        return rows, blocks


@dataclass(frozen=True)
class AttackConfig:
    budget: int
    algorithm: str = "pst"
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("query budget must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm}")


@dataclass(frozen=True)
class AttackReport:
    sample_id: str
    outcome: str
    queries_used: int
    wall_time: float
    applied: tuple[str, ...]
    confidence_trace: tuple[float, ...]
    failure_reason: str | None = None
    adversarial: ApkModel | None = None
    # Seconds from the attack's start to each answer in confidence_trace. Wall
    # clock, so reports that differ only here still compare equal.
    elapsed_trace: tuple[float, ...] = field(default=(), compare=False, repr=False)


def reference_tree(pset: PerturbationSet) -> PSTree:
    """The pset's selection tree, built on first use; attacks copy it as is."""
    if pset.tree is None:
        object.__setattr__(pset, "tree", build_tree(pset.groups))
    return pset.tree


class _TreePolicy:
    """Tree-guided selection: sample a leaf group to apply whole, adjust the
    tree on the answer, keep unless the confidence rose. Each attack works on
    its own copy of the pset's reference tree."""

    def __init__(self, pset: PerturbationSet):
        self.tree = reference_tree(pset).copy()

    def propose(self, rng: random.Random):
        if self.tree.is_empty():
            return None
        self.leaf_id = sample_path(self.tree, rng)
        return self.tree.groups[self.leaf_id].members

    def observe(self, y_prev: float, y_new: float) -> bool:
        adjust(self.tree, self.leaf_id, y_prev, y_new)
        return y_new <= y_prev


class _BanditPolicy:
    """Thompson sampling over second-layer arms with a Beta(1, 1) prior; one
    perturbation per pull, rewarded when the confidence drops beyond ``EPSILON``,
    kept unless the confidence rose."""

    def __init__(self, pset: PerturbationSet):
        self.arms = pset.arms
        self.labels = list(self.arms)
        self.posterior = {lab: [1.0, 1.0] for lab in self.labels}  # (alpha, beta)

    def propose(self, rng: random.Random):
        draws = [(rng.betavariate(*self.posterior[lab]), i)
                 for i, lab in enumerate(self.labels)]
        self.arm = self.labels[max(draws)[1]]
        return (rng.choice(self.arms[self.arm]),)

    def observe(self, y_prev: float, y_new: float) -> bool:
        self.posterior[self.arm][0 if y_new < y_prev - EPSILON else 1] += 1
        return y_new <= y_prev


class _RandomPolicy:
    """Uniform draws with replacement; every candidate is kept, so the sample
    accumulates and never reverts."""

    def __init__(self, pset: PerturbationSet):
        self.perturbations = pset.perturbations

    def propose(self, rng: random.Random):
        return (rng.choice(self.perturbations),)

    def observe(self, y_prev: float, y_new: float) -> bool:
        return True


_POLICIES = {"pst": _TreePolicy, "mab": _BanditPolicy, "random": _RandomPolicy}
ALGORITHMS = tuple(_POLICIES)


def run_attack(oracle, apk: ApkModel, pset: PerturbationSet,
               config: AttackConfig) -> AttackReport:
    """Run one query-budgeted attack with the policy named by ``config.algorithm``.

    This loop owns the protocol every algorithm shares. One gate query on the
    unmodified app ends the attack as not applicable unless it is malicious;
    that query never counts against the budget.
    Each later query tries a candidate: the policy's picks applied in order to
    the kept sample with the attack's rng. A benign answer ends the attack as a
    success; otherwise the candidate becomes the kept sample when the policy
    says so.

    A policy is built per attack, after the gate, from the perturbation set,
    and has two methods:

    - ``propose(rng)`` returns the perturbations to try together, or ``None``
      when nothing is left to try, which ends the attack as ``tree_depleted``.
    - ``observe(y_prev, y_new)`` is called after each malicious answer with the
      kept sample's confidence and the candidate's, and returns whether to keep
      the candidate.
    """
    rng = random.Random(config.seed)
    t0 = time.perf_counter()
    fb = oracle.query(apk)
    trace = [fb.confidence]
    elapsed = [time.perf_counter() - t0]
    if fb.label != "malicious":
        return AttackReport(
            sample_id=apk.id, outcome="not_applicable", queries_used=0,
            wall_time=time.perf_counter() - t0, applied=(),
            confidence_trace=tuple(trace), elapsed_trace=tuple(elapsed))
    policy = _POLICIES[config.algorithm](pset)
    y = fb.confidence
    current = apk
    applied: list[str] = []
    outcome, reason = "failure", "budget_exhausted"
    for _ in range(config.budget):
        picks = policy.propose(rng)
        if picks is None:
            reason = "tree_depleted"
            break
        candidate = current
        for p in picks:
            candidate = apply_perturbation(candidate, p, rng)
        fb = oracle.query(candidate)
        trace.append(fb.confidence)
        elapsed.append(time.perf_counter() - t0)
        evaded = fb.label == "benign"
        if evaded or policy.observe(y, fb.confidence):
            current, y = candidate, fb.confidence
            applied.extend(p.key for p in picks)
        if evaded:
            outcome, reason = "success", None
            break
    return AttackReport(
        sample_id=apk.id, outcome=outcome, queries_used=len(trace) - 1,
        wall_time=time.perf_counter() - t0, applied=tuple(applied),
        confidence_trace=tuple(trace), failure_reason=reason,
        adversarial=current, elapsed_trace=tuple(elapsed))

