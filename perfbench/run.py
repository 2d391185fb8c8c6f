"""Attack-pipeline benchmark for pst-evade.

    python3 perfbench/run.py --workload linear-grid --seed 0 --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory. ``--workload all`` runs every workload in its own process.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans go to ``perfbench/.work/``. Lines before it give
every metric with its unit and sample count, the quality figures and the row
digest, which depends only on the seed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import subprocess
import sys
import time
from pathlib import Path

from measure import peak_rss_mb, percentile
from tracer import ATTACK_SPAN, SpanIndex, Tracer, span_to_dict

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

clock = time.perf_counter

# name -> unit. Both lists are mirrored in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "attacks_per_s": "attacks/s",
    "attack_ms_p50": "ms",
    "attack_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.generate_s": "s",
    "corpus.save_s": "s",
    "corpus.load_s": "s",
    "corpus.json_mb": "MB",
    "corpus.apply_calls": "count",
    "corpus.apply_ms": "ms",
    "perturbset.build_s": "s",
    **{f"features.extract_calls.{k}": "count" for k in ("binary", "markov", "api_cluster")},
    **{f"features.extract_ms.{k}": "ms" for k in ("binary", "markov", "api_cluster")},
    "features.family_parses": "count",
    "detectors.train_s": "s",
    "detectors.model_save_s": "s",
    "detectors.model_load_s": "s",
    "detectors.query_calls": "count",
    **{f"detectors.score_ms.{k}": "ms" for k in ("linear", "mlp", "knn", "forest")},
    "pstree.build_calls": "count",
    "pstree.build_ms": "ms",
    "pstree.sample_ms": "ms",
    "pstree.adjust_calls": "count",
    "pstree.adjust_ms": "ms",
    "attack.oracle_queries": "count",
    "attack.oracle_ms": "ms",
    "attack.self_ms": "ms",
    "attack.wait_ms": "ms",
    "attack.success_ratio": "ratio",
    "harness.select_tp_s": "s",
    "harness.self_ms": "ms",
    "harness.query_reuse": "ratio",
    "runtime.gc_ms": "ms",
    "runtime.gc_gen2": "count",
    "runtime.setup_gc_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program comes from there, not from an installed copy."""
    package = SRC / "pst_evade"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import pst_evade
    if Path(pst_evade.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: pst_evade imported from {pst_evade.__file__}, "
                 f"not from {package}")


def marks(tracer) -> dict[str, float]:
    """Running totals that the traced run splits into set-up and timed pass."""
    return {"gc_s": tracer.gc_seconds, "gc_gen2": tracer.gc_gen2,
            "parses": tracer.count("features.family_parse")}


def layer_metrics(tracer, wl, traced, untraced, before, after) -> dict[str, float]:
    idx = SpanIndex(tracer.spans)
    oracle = idx.select("detectors.query.", prefix=True, under=ATTACK_SPAN)
    oracle_queries = len(oracle)
    m = {
        "corpus.generate_s": idx.busy("corpus.generate"),
        "corpus.save_s": idx.busy("corpus.save"),
        "corpus.load_s": idx.busy("corpus.load"),
        "corpus.json_mb": wl.json_mb,
        "corpus.apply_calls": idx.calls("corpus.apply"),
        "corpus.apply_ms": idx.busy("corpus.apply") * 1e3,
        "perturbset.build_s": idx.busy("perturbset.build"),
        # Timed pass only: parses while attacks query the detector.
        "features.family_parses": after["parses"] - before["parses"],
        "detectors.train_s": idx.busy("detectors.train"),
        "detectors.model_save_s": idx.busy("detectors.model_save"),
        "detectors.model_load_s": idx.busy("detectors.model_load"),
        # Queries of single detectors; an ensemble query fans out to its members.
        "detectors.query_calls": (idx.calls("detectors.query.", prefix=True)
                                  - idx.calls("detectors.query.ensemble")),
        "pstree.build_calls": idx.calls("pstree.build"),
        "pstree.build_ms": idx.busy("pstree.build") * 1e3,
        "pstree.sample_ms": idx.busy("pstree.sample") * 1e3,
        "pstree.adjust_calls": idx.calls("pstree.adjust"),
        "pstree.adjust_ms": idx.busy("pstree.adjust") * 1e3,
        "attack.oracle_queries": oracle_queries,
        "attack.oracle_ms": sum(s.cpu for s in oracle) * 1e3,
        "attack.self_ms": idx.self_busy(ATTACK_SPAN) * 1e3,
        "attack.wait_ms": idx.waited(ATTACK_SPAN) * 1e3,
        "attack.success_ratio": traced.successes / max(1, traced.applicable),
        "harness.select_tp_s": idx.busy("harness.select_tp"),
        "harness.self_ms": idx.self_busy("harness.run") * 1e3,
        "harness.query_reuse": traced.reported_queries / max(1, oracle_queries),
        "runtime.gc_ms": (after["gc_s"] - before["gc_s"]) * 1e3,
        "runtime.gc_gen2": after["gc_gen2"] - before["gc_gen2"],
        "runtime.setup_gc_ms": before["gc_s"] * 1e3,
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s - 1.0,
    }
    for k in ("binary", "markov", "api_cluster"):
        m[f"features.extract_calls.{k}"] = idx.calls(f"features.extract.{k}")
        m[f"features.extract_ms.{k}"] = idx.busy(f"features.extract.{k}") * 1e3
    for k in ("linear", "mlp", "knn", "forest"):
        # Scoring inside a query; holdout scoring during training is left out.
        m[f"detectors.score_ms.{k}"] = idx.busy(f"detectors.score.{k}",
                                                under="detectors.query.") * 1e3
    return m


def timings(attacks: int, busy_s, attack_ms) -> dict[str, float]:
    """Throughput and latency percentiles of the timed passes."""
    samples = [x for ms in attack_ms for x in ms] or [0.0]
    return {
        "attacks_per_s": attacks / (sum(busy_s) or math.inf),
        "attack_ms_p50": percentile(samples, 0.5),
        "attack_ms_p90": percentile(samples, 0.9),
    }


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span_to_dict(span)) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # workloads imports pst_evade, so it waits until import_program has run.
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed, WORK)
    print(f"workload {workload}  seed {seed}  corpus seed {wl.corpus_seed}  "
          f"master seed {wl.master_seed}  trace {int(trace)}")
    tracer = Tracer() if trace else None
    passes = []
    with tracer or contextlib.nullcontext():
        if tracer:
            tracer.recording = True
        t0 = clock()
        wl.setup()
        # Set-up's garbage is set-up's cost: collected here, it cannot land
        # in the timed phase at a point that depends on the seed.
        gc.collect()
        setup_end = clock()
        before = marks(tracer) if tracer else None
        start = clock()
        # Whole passes until the time is used; a traced run makes one.
        while not passes or (not trace and clock() - start < seconds):
            passes.append(wl.run_pass())
        end = clock()
        after = marks(tracer) if tracer else None
    timed = list(passes)
    if trace:
        # The same pass with every original restored: the gap between
        # the two is the tracing cost.
        passes.append(wl.run_pass())
    wl.verify(passes[0])

    first = passes[0]
    problems = [p for ps in passes for p in ps.problems]
    failed = sum(p.failed for p in passes)
    for i, p in enumerate(passes[1:], start=2):
        if p.digest != first.digest:
            failed += p.attacks
            problems.append(f"pass {i} row digest differs from pass 1")
    attempted = sum(p.attacks for p in passes)

    attacks = sum(p.attacks for p in timed)
    samples = [x for p in timed for x in p.attack_ms]
    n = len(samples)
    if not samples:
        # Fails the run rather than reading as a 0 ms latency.
        problems.append("no latency samples")
    e2e = {
        "setup_s": setup_end - t0,
        **timings(attacks, [p.busy_s for p in timed], [p.attack_ms for p in timed]),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": "1 set-up, as measured",
        "attacks_per_s": f"{attacks} attacks in {len(timed)} pass(es), {end - start:.2f} s",
        "attack_ms_p50": f"n={n} {wl.latency_unit}",
        "attack_ms_p90": f"n={n}, {n - math.ceil(0.9 * n)} beyond",
    }
    if first.measured_ms is not None:
        measured = timings(attacks, [p.measured_busy_s for p in timed],
                           [p.measured_ms for p in timed])
        for name, value in measured.items():
            notes[name] += f"; {value:.4f} as measured"
    if trace:
        print("  (traced run: the end-to-end figures include the tracing cost)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:>12.4f} {unit:<10} {notes.get(name, '')}")
    print(f"  {'failed_frac':<16} {failed / attempted:>12.4f} {'ratio':<10} "
          f"{failed}/{attempted} attacks")
    for name, value in first.quality.items():
        print(f"  {name:<16} {value:>12.4f} {'ratio':<10} {first.quality_note}")
    print(f"  row digest {first.digest}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    if trace:
        metrics = layer_metrics(tracer, wl, passes[0], passes[-1], before, after)
        units = PER_LAYER
        for name in tracer.absent:
            print(f"  span absent: {name} is no longer defined")
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        write_spans(tracer, spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path}")
        for name, unit in units.items():
            print(f"  {name:<34} {metrics[name]:>14.4f} {unit}")
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def spawn(workload: str, seed: int, seconds: float = 10.0, trace: int = 0):
    """Run one workload in a process of its own. Returns its output lines
    before the result, and the result; exits if the process failed."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: workload {workload} seed {seed} exited with "
                 f"{proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> dict:
    """Every workload in a process of its own, so each has its own peak RSS."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result = spawn(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "linear-grid", "ensemble-attack"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
