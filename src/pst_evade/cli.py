"""Command line front end: corpus generation, detector training, attack runs
against one model file, and full benchmark sweeps; both of the latter write the
report file that ``compare`` reads."""
from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

from .attack import ALGORITHMS, reference_tree
from .catalog import load_default_catalog, read_document
from .corpus import (
    CorpusSpec,
    generate_corpus,
    load_corpus,
    save_corpus,
    spec_from_dict,
)
from .detectors import DETECTOR_KINDS, FEATURE_KINDS, Ensemble, load_model, save_model
from .harness import (
    DetectorSpec,
    GridSettings,
    compute_asr,
    config_from_dict,
    format_grid,
    grid_from_rows,
    load_rows,
    run_experiment,
    run_grid,
    save_report,
    train_detector,
)
from .perturbset import build_perturbation_set
from .pstree import dump_tree


def _cmd_gen_corpus(args) -> int:
    spec = read_document(args.spec, spec_from_dict) if args.spec else CorpusSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    corpus = generate_corpus(spec)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.benign)} benign / {len(corpus.malicious)} "
          f"malicious / {len(corpus.donors)} donors to {args.out}")
    return 0


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    spec = DetectorSpec(name=args.kind, kind=args.kind, features=args.features,
                        train_seed=args.seed)
    model = train_detector(spec, corpus)
    save_model(model, args.out)
    trained = (f"an ensemble of {len(model.members)} members" if isinstance(model, Ensemble)
               else f"{args.kind} on {args.features} features; "
               f"f1={model.report.f1:.3f} (holdout={model.report.on_holdout})")
    print(f"trained {trained}; saved to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    settings = GridSettings(algorithms=(args.algorithm,), budgets=(args.budget,),
                            sample_count=args.samples, seeds=(args.seed,))
    # Each output is refused before any file is read, in the words saving into
    # it would give.
    for out in filter(None, (args.out, args.dump_tree)):
        if not Path(out).parent.is_dir():
            raise FileNotFoundError(f"{out}: {os.strerror(errno.ENOENT)}")
    corpus, model = load_corpus(args.corpus), load_model(args.model)
    pset = build_perturbation_set(load_default_catalog(), corpus.donors)
    report = run_grid(settings, {args.model: model}, corpus, pset, {
        "corpus_path": args.corpus, "model_path": args.model, "algorithm": args.algorithm,
        "budget": args.budget, "sample_count": args.samples, "seed": args.seed})
    if args.dump_tree:
        dump_tree(reference_tree(pset), args.dump_tree)
    save_report(report, args.out)
    print(f"{args.algorithm}: ASR {compute_asr(report.rows):.3f} over {len(report.rows)} "
          f"samples at budget {args.budget}; report in {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = read_document(args.config, config_from_dict)
    # Made before any attack runs; a failure names the path given, as
    # ``catalog.replacing`` does.
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise type(exc)(f"{args.out_dir}: {exc.strerror or exc}") from None
    report = run_experiment(config)
    path = Path(args.out_dir) / "report.json"
    save_report(report, path)
    print(format_grid(report.grid))
    print(f"report: {path}")
    return 0


def _cmd_compare(args) -> int:
    for path in args.reports:
        print(f"== {path}")
        print(format_grid(grid_from_rows(load_rows(path))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pst-evade",
        description="query-budgeted evasion attacks on local malware detectors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic app corpus")
    p.add_argument("--spec", help="corpus spec JSON; defaults when omitted")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train a detector on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=DETECTOR_KINDS, default="linear")
    p.add_argument("--features", choices=FEATURE_KINDS, default="binary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="attack detected samples from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="pst")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-tree", help="write the initial selection tree as JSON")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("bench", help="run a full benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("compare", help="print the success-rate grids of reports' rows")
    p.add_argument("--reports", nargs="+", required=True)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"pst-evade: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
