"""End-to-end command line flow in a temp directory."""
import base64
import hashlib
import json
import re
import shlex
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from apk_builders import CORPUS_LISTS, MODEL_LISTS, file_document, file_text, write_file
from pst_evade.attack import AttackConfig, Oracle, reference_tree, run_attack
from pst_evade.catalog import (ARRAY_DTYPES, FLOAT_DTYPE, canonical_json, load_default_catalog,
                              pack_array, read_document, unpack_array)
from pst_evade.cli import main
from pst_evade.corpus import (API_FAMILY_COUNT, CORPUS_FORMAT, CorpusSpec, corpus_from_dict,
                              corpus_to_dict, generate_corpus, load_corpus, spec_to_dict)
from pst_evade.detectors import (
    MODEL_FORMAT,
    DetectorModel,
    Ensemble,
    FeatureSpace,
    load_model,
    model_from_dict,
    model_to_dict,
)
from pst_evade.harness import (compute_asr, derive_seed, format_grid, grid_from_rows,
                               rows_from_dict, select_true_positives)
from pst_evade.perturbset import build_perturbation_set
from pst_evade.pstree import tree_to_dict

SPEC = CorpusSpec(n_benign=30, n_malicious=30, donor_count=10, seed=19)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliflow")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(SPEC)))
    assert main(["gen-corpus", "--spec", str(spec_path),
                 "--out", str(root / "corpus.json")]) == 0
    assert main(["train", "--corpus", str(root / "corpus.json"),
                 "--kind", "linear", "--out", str(root / "model.json")]) == 0
    return root


def test_gen_corpus_writes_loadable_corpus(workdir):
    corpus = load_corpus(workdir / "corpus.json")
    assert len(corpus.benign) == 30
    assert len(corpus.malicious) == 30
    assert len(corpus.donors) == 10
    # A format-6 corpus file records only the four spec fields, and stores each
    # component's families and edges as {dtype, data} objects.
    doc = file_document(workdir / "corpus.json", CORPUS_LISTS)
    assert doc["format"] == 6
    assert sorted(doc["spec"]) == ["donor_count", "n_benign", "n_malicious", "seed"]
    component = _first_component(doc)
    assert all(sorted(component[k]) == ["data", "dtype"] for k in ("families", "edges"))


def test_gen_corpus_file_is_the_canonical_document(tmp_path):
    # gen-corpus writes app by app; the file is the lines of the whole
    # document, and it reads back as the generated corpus.
    spec_path, out = tmp_path / "spec.json", tmp_path / "corpus.json"
    spec_path.write_text(json.dumps(spec_to_dict(SPEC)))
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(out)]) == 0
    generated = generate_corpus(SPEC)
    assert out.read_bytes() == file_text(corpus_to_dict(generated), CORPUS_LISTS).encode("utf-8")
    assert load_corpus(out) == generated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json", "spec.json"]


def test_gen_corpus_seed_override(workdir):
    spec_path = workdir / "spec.json"
    out = workdir / "corpus2.json"
    assert main(["gen-corpus", "--spec", str(spec_path), "--seed", "99",
                 "--out", str(out)]) == 0
    corpus = load_corpus(out)
    assert corpus.spec.seed == 99
    base = load_corpus(workdir / "corpus.json")
    def manifest(app):
        return app.uses_features, app.permissions, app.declared_components
    assert manifest(corpus.benign[0]) != manifest(base.benign[0])


def _assert_model_file_format(path):
    """A format-6 model file, and each ensemble member, records no threshold or
    hyperparams: a scorer fires at its fixed threshold, an ensemble when any
    member fires."""
    doc = file_document(path, MODEL_LISTS)
    for d in [doc, *doc.get("members", [])]:
        assert d["format"] == 6
        assert not {"threshold", "hyperparams"} & set(d), sorted(d)


def test_train_writes_loadable_model(workdir, capsys):
    model = load_model(workdir / "model.json")
    assert model.kind == "linear"
    assert model.report is not None
    _assert_model_file_format(workdir / "model.json")


# kNN on api_cluster features detects none of SPEC's 8 malicious test apps, so
# it is attacked on this corpus, where it detects 1 of 5.
KNN_API_CLUSTER_SPEC = CorpusSpec(n_benign=20, n_malicious=20, donor_count=5, seed=3)


@pytest.mark.parametrize("kind,features", [
    ("knn", "binary"), ("forest", "binary"), ("ensemble", "binary"), ("forest", "markov"),
    ("linear", "markov"), ("linear", "api_cluster"), ("knn", "api_cluster"),
    ("knn", "markov"),
])
def test_train_and_attack_each_detector_kind_and_feature_space(workdir, capsys, kind, features):
    # Attack builds a kNN or forest model's scoring block when it loads the
    # model; a Markov forest splits between adjacent distinct floats; a kNN on
    # api_cluster features answers a candidate from the distances of the app
    # it extends, and one on Markov features keeps the difference form.
    corpus, samples = workdir / "corpus.json", 3
    if (kind, features) == ("knn", "api_cluster"):
        spec, corpus, samples = workdir / "knn_spec.json", workdir / "knn_corpus.json", 1
        spec.write_text(json.dumps(spec_to_dict(KNN_API_CLUSTER_SPEC)))
        assert main(["gen-corpus", "--spec", str(spec), "--out", str(corpus)]) == 0
    path = workdir / f"{kind}-{features}.json"
    capsys.readouterr()
    assert main(["train", "--corpus", str(corpus), "--kind", kind, "--features", features,
                 "--out", str(path)]) == 0
    out = capsys.readouterr().out
    _assert_model_file_format(path)
    model = load_model(path)
    assert model.kind == kind
    if kind == "ensemble":
        # The ensemble file has no space of its own; its members bring theirs.
        assert out == f"trained an ensemble of 20 members; saved to {path}\n"
        assert isinstance(model, Ensemble)
        assert "space" not in file_document(path, MODEL_LISTS)
        assert len({m.space for m in model.members}) > 1
    else:
        assert out.startswith(f"trained {kind} on {features} features; f1=")
        assert model.space.kind == features
    report = workdir / f"attack-{kind}-{features}.json"
    assert main(["attack", "--corpus", str(corpus), "--model", str(path), "--budget", "5",
                 "--samples", str(samples), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    rows = rows_from_dict(doc)
    assert len(rows) == len(doc["details"]) == samples
    assert all(row["queries_used"] <= 5 for row in rows)


def test_attack_writes_report(workdir, capsys):
    out = workdir / "attack.json"
    tree = workdir / "tree.json"
    corpus, model = str(workdir / "corpus.json"), str(workdir / "model.json")
    capsys.readouterr()
    assert main(["attack", "--corpus", corpus, "--model", model,
                 "--algorithm", "pst", "--budget", "6", "--samples", "4",
                 "--seed", "2", "--out", str(out),
                 "--dump-tree", str(tree)]) == 0
    # The report file bench writes, of one row and one detail per attack; its
    # config records what the run used, and no train seed or feature kind.
    doc = json.loads(out.read_text())
    assert doc["format"] == 3
    assert doc["config"] == {"corpus_path": corpus, "model_path": model, "algorithm": "pst",
                             "budget": 6, "sample_count": 4, "seed": 2}
    rows = rows_from_dict(doc)
    assert len(rows) == len(doc["details"]) == 4
    for row in rows:
        assert (row["detector"], row["algorithm"], row["budget"], row["seed"]) == (
            model, "pst", 6, 2)
        assert row["queries_used"] <= 6
        assert row["outcome"] in ("success", "failure")
    assert capsys.readouterr().out == (f"pst: ASR {compute_asr(rows):.3f} over 4 samples "
                                       f"at budget 6; report in {out}\n")
    snapshot = json.loads(tree.read_text())
    assert snapshot["root"]["label"] == "root"
    # The dump is the reference tree the attacks copy, with one leaf per group of
    # the corpus's pset; it records no settings.
    pset = build_perturbation_set(load_default_catalog(),
                                  load_corpus(workdir / "corpus.json").donors)
    assert snapshot["leaf_count"] == len(pset.groups)
    assert "config" not in snapshot
    assert snapshot == tree_to_dict(reference_tree(pset))


@pytest.mark.parametrize("algorithm", ["pst", "mab"])
def test_attack_reports_the_in_process_attacks_on_its_corpus_pset(workdir, algorithm):
    # attack builds its pset from the bundled catalog and the donors of the
    # corpus it attacks.
    corpus_path, model_path, out = (workdir / "corpus.json", workdir / "model.json",
                                    workdir / f"attack_in_process_{algorithm}.json")
    assert main(["attack", "--corpus", str(corpus_path), "--model", str(model_path),
                 "--algorithm", algorithm, "--budget", "6", "--samples", "3", "--seed", "4",
                 "--out", str(out)]) == 0

    corpus, model = load_corpus(corpus_path), load_model(model_path)
    pset = build_perturbation_set(load_default_catalog(), corpus.donors)
    _, test = corpus.train_test_split()
    targets = select_true_positives(model, [a for a in test if a.ground_truth == "malicious"],
                                    3, 4, detector_name=str(model_path))
    expected = sorted((run_attack(Oracle(model), apk, pset, AttackConfig(
                           budget=6, algorithm=algorithm, seed=derive_seed(4, apk.id)))
                       for apk in targets), key=lambda report: report.sample_id)
    doc = json.loads(out.read_text())
    assert [(row["sample_id"], row["outcome"], row["queries_used"])
            for row in rows_from_dict(doc)] == [
        (report.sample_id, report.outcome, report.queries_used) for report in expected]
    assert doc["details"] == [{
        "detector": str(model_path), "algorithm": algorithm, "seed": 4,
        "sample_id": report.sample_id, "applied": list(report.applied),
        "confidence_trace": list(report.confidence_trace),
        "failure_reason": report.failure_reason} for report in expected]


def test_attack_on_a_corpus_without_donors_draws_manifest_perturbations_only(workdir):
    spec, corpus = workdir / "no-donor-spec.json", workdir / "no-donor-corpus.json"
    spec.write_text(json.dumps(spec_to_dict(CorpusSpec(n_benign=30, n_malicious=30,
                                                       donor_count=0, seed=19))))
    assert main(["gen-corpus", "--spec", str(spec), "--out", str(corpus)]) == 0
    out, tree = workdir / "attack_no_donors.json", workdir / "tree_no_donors.json"
    assert main(["attack", "--corpus", str(corpus), "--model", str(workdir / "model.json"),
                 "--budget", "6", "--samples", "2", "--out", str(out),
                 "--dump-tree", str(tree)]) == 0
    pset = build_perturbation_set(load_default_catalog(), load_corpus(corpus).donors)
    assert len(pset) == 256 and not any(p.kind.startswith("inject_") for p in pset.perturbations)
    assert json.loads(tree.read_text()) == tree_to_dict(reference_tree(pset))
    assert json.loads(tree.read_text())["leaf_count"] == len(pset.groups) == 208
    details = json.loads(out.read_text())["details"]
    assert len(details) == 2
    assert not any(key.startswith("inject_") for detail in details for key in detail["applied"])


@pytest.mark.parametrize("argv", [
    ["build-pset", "--out", "pset.json"],
    ["attack", "--corpus", "corpus.json", "--model", "model.json", "--pset", "pset.json",
     "--budget", "4", "--out", "attack.json"],
])
def test_the_pset_file_options_are_gone(capsys, argv):
    # attack draws its perturbations from the corpus it attacks: there is no pset
    # file to build or to give it.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("invalid choice: 'build-pset'" if argv[0] == "build-pset"
            else "unrecognized arguments: --pset pset.json") in err


@pytest.fixture(scope="module")
def bench_outputs(workdir):
    config = {
        "corpus_path": str(workdir / "corpus.json"),
        "detectors": [{"name": "linear"}],
        "algorithms": ["pst", "mab", "random"],
        "budgets": [4, 8],
        "sample_count": 4,
        "seeds": [0],
        "workers": 2,
    }
    cfg_path = workdir / "bench.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = workdir / "bench_out"
    assert main(["bench", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    return cfg_path, out_dir


def _report_rows(out_dir):
    return rows_from_dict(json.loads((out_dir / "report.json").read_text()))


def test_bench_outputs(bench_outputs, capsys):
    _, out_dir = bench_outputs
    # bench writes one file, a format-3 report.json of one list of values a row
    # and one detail per attack, run at the largest budget.
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["format"] == 3
    assert len(doc["details"]) == 3 * 4  # algorithms x samples
    assert doc["columns"] == ["sample_id", "detector", "algorithm", "budget", "seed",
                              "outcome", "queries_used", "wall_ms"]
    rows = _report_rows(out_dir)
    assert len(rows) == 3 * 2 * 4  # algorithms x budgets x samples


def test_the_environment_does_not_set_the_seed(workdir, monkeypatch):
    # Every input of a run is on its command line or in its config.
    monkeypatch.setenv("PST_EVADE_SEED", "55")
    out = workdir / "corpus_env.json"
    assert main(["gen-corpus", "--spec", str(workdir / "spec.json"),
                 "--seed", "3", "--out", str(out)]) == 0
    assert load_corpus(out).spec.seed == 3


def test_compare_prints_grids(bench_outputs, capsys):
    _, out_dir = bench_outputs
    report = str(out_dir / "report.json")
    assert main(["compare", "--reports", report, report]) == 0
    out = capsys.readouterr().out
    assert out.count("N=4") == 2
    assert "pst" in out and "mab" in out and "random" in out


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["fuzz-the-moon"])


def _attack_args(workdir, corpus, model):
    return ["attack", "--corpus", str(corpus), "--model", str(model),
            "--budget", "4", "--samples", "2", "--out", str(workdir / "err.json")]


@pytest.mark.parametrize("case,needle", [
    ("missing_corpus", "No such file"),
    ("model_without_space", "missing key 'space'"),
    ("truncated_model", "line {lines} column"),  # a scorer file is one line
    ("truncated_corpus", "line {lines} column"),
    ("unversioned_model", "model format 1 is not supported; retrain it with train"),
    ("ensemble_without_members", "ensemble model: has no members"),
])
def test_bad_input_files_give_one_line_errors(workdir, capsys, case, needle):
    corpus, model = workdir / "corpus.json", workdir / "model.json"
    broken = None
    if case == "missing_corpus":
        corpus = workdir / "no_such_corpus.json"
    elif case == "model_without_space":
        doc = json.loads(model.read_text())
        del doc["space"]
        model = broken = workdir / "model_without_space.json"
        model.write_text(json.dumps(doc))
    elif case == "truncated_model":
        model = broken = _truncated_copy(model, workdir / "truncated_model.json")
    elif case == "unversioned_model":
        doc = json.loads(model.read_text())
        del doc["format"]  # written before model files were versioned
        model = broken = workdir / "unversioned_model.json"
        model.write_text(json.dumps(doc))
    elif case == "ensemble_without_members":
        model = broken = workdir / "ensemble_without_members.json"
        write_file(model, {"format": MODEL_FORMAT, "kind": "ensemble", "members": []},
                   MODEL_LISTS)
    else:
        corpus = broken = _truncated_copy(corpus, workdir / "truncated_corpus.json")
    capsys.readouterr()
    assert main(_attack_args(workdir, corpus, model)) == 2
    err = capsys.readouterr().err
    assert err.startswith("pst-evade: error: ")
    if case.startswith("truncated"):
        needle = needle.format(lines=broken.read_text().count("\n") + 1)
    assert needle in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    if broken is not None:
        # attack reads a corpus and a model: the error says which one is broken.
        assert err.startswith(f"pst-evade: error: {broken}: ")


_BAD_PARAMS = {
    # as lists, would score through broadcasting
    "knn": lambda doc: doc["params"].update(x=pack_array(np.array([0.0, 1.0, 1.0]))),
    # would raise IndexError on a query
    "forest": lambda doc: doc["params"]["trees"][0].update(feature=99),
    # raised a bare TypeError on load
    "forest-null-split": lambda doc: doc["params"]["trees"][0].update(threshold=None),
    "linear-null-b": lambda doc: doc["params"].update(b=None),
    # loaded, then raised a TypeError on the first query
    "linear-null-threshold": lambda doc: doc.update(threshold=None),
    # raised an AttributeError and a TypeError on load
    "linear-space-array": lambda doc: doc.update(space=[]),
    "linear-params-array": lambda doc: doc.update(params=[]),
}


@pytest.mark.parametrize("kind,needle", [
    ("knn", "knn model: params.x holds 3 values, which do not fill rows of 2"),
    ("forest", "forest model: split feature 99 is outside the 2-feature binary space"),
    ("forest-null-split", "forest model: split threshold is null, not a number"),
    ("linear-null-b", "linear model: params.b is null, not a number"),
    ("linear-null-threshold", "linear model: unknown key 'threshold'"),
    ("linear-space-array", "linear model: space is not a JSON object"),
    ("linear-params-array", "linear model: params is not a JSON object"),
])
def test_model_with_bad_scoring_params_is_refused_in_one_line(workdir, capsys, kind, needle):
    space = FeatureSpace("binary", keys=("perm:P", "perm:Q"))
    model_kind = kind.split("-")[0]
    params = {
        "knn": {"x": np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                "y": np.array([0.0, 1.0, 1.0])},
        "forest": {"trees": [{"leaf": False, "feature": 1, "threshold": 0.5,
                              "left": {"leaf": True, "vote": 0},
                              "right": {"leaf": True, "vote": 1}}]},
        "linear": {"w": np.array([1.0, -1.0]), "b": 0.0},
    }[model_kind]
    doc = model_to_dict(DetectorModel(kind=model_kind, space=space, params=params))
    _BAD_PARAMS[kind](doc)
    model = workdir / f"bad_{kind}.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_attack_args(workdir, workdir / "corpus.json", model)) == 2
    err = capsys.readouterr().err
    # attack reads two files: the error names the model file.
    assert err == f"pst-evade: error: {model}: {needle}\n"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_attack_refuses_a_sample_count_below_one(workdir, capsys, samples):
    args = _attack_args(workdir, workdir / "corpus.json", workdir / "model.json")
    args[args.index("--samples") + 1] = samples
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == "pst-evade: error: sample_count must be >= 1\n"


@pytest.mark.parametrize("samples,budget,needle", [
    ("2", "0", "budgets must be positive"),
    ("0", "4", "sample_count must be >= 1"),
])
def test_attack_refuses_its_settings_before_it_reads_a_file(workdir, capsys, samples, budget,
                                                             needle):
    capsys.readouterr()
    assert main(["attack", "--corpus", str(workdir / "missing.json"), "--model",
                 str(workdir / "missing-model.json"), "--budget", budget, "--samples", samples,
                 "--out", str(workdir / "err.json")]) == 2
    assert capsys.readouterr().err == f"pst-evade: error: {needle}\n"


@pytest.mark.parametrize("command,flag", [
    ("gen-corpus", "--out"), ("train", "--out"), ("attack", "--out"), ("attack", "--dump-tree"),
])
def test_output_into_a_missing_directory_is_refused_naming_the_path_given(workdir, capsys,
                                                                          command, flag):
    out = workdir / "nodir" / "out.json"
    inputs = {"gen-corpus": ["--spec", str(workdir / "spec.json")],
              "train": ["--corpus", str(workdir / "corpus.json")],
              "attack": _attack_args(workdir, workdir / "corpus.json",
                                     workdir / "model.json")[1:]}[command]
    capsys.readouterr()
    assert main([command, *inputs, flag, str(out)]) == 2
    assert capsys.readouterr().err == f"pst-evade: error: {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("algorithm", ["pst", "mab", "random"])
def test_attack_and_a_one_detector_bench_share_one_run_path(workdir, algorithm):
    # workdir/model.json is `train --kind linear --seed 0`, as the bench trains
    # its one detector; only the detector's name and the wall clock differ.
    corpus, model = workdir / "corpus.json", workdir / "model.json"
    attack_out, bench_dir = workdir / f"shared-{algorithm}.json", workdir / f"shared-{algorithm}"
    config = workdir / f"shared-{algorithm}-config.json"
    config.write_text(json.dumps({"corpus_path": str(corpus), "detectors": [{"name": "linear"}],
                                  "algorithms": [algorithm], "budgets": [6],
                                  "sample_count": 3, "seeds": [4]}))
    assert main(["attack", "--corpus", str(corpus), "--model", str(model), "--algorithm",
                 algorithm, "--budget", "6", "--samples", "3", "--seed", "4",
                 "--out", str(attack_out)]) == 0
    assert main(["bench", "--config", str(config), "--out-dir", str(bench_dir)]) == 0
    attacked = json.loads(attack_out.read_text())
    benched = json.loads((bench_dir / "report.json").read_text())

    def shared(entries):
        return [{k: v for k, v in entry.items() if k not in ("detector", "wall_ms")}
                for entry in entries]

    assert {row["detector"] for row in rows_from_dict(attacked)} == {str(model)}
    assert shared(rows_from_dict(attacked)) == shared(rows_from_dict(benched))
    assert len(attacked["details"]) == 3
    assert shared(attacked["details"]) == shared(benched["details"])


def test_compare_prints_the_grid_of_an_attack_report(workdir, capsys):
    model, out = workdir / "model.json", workdir / "compared-attack.json"
    assert main(_attack_args(workdir, workdir / "corpus.json", model)[:-1] + [str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", "--reports", str(out)]) == 0
    printed = capsys.readouterr().out
    grid = grid_from_rows(rows_from_dict(json.loads(out.read_text())))
    assert printed == f"== {out}\n{format_grid(grid)}\n"
    assert printed.splitlines()[3].startswith(f"{model} pst ")


def _truncated_copy(source, dest):
    text = source.read_text()
    dest.write_text(text[: len(text) // 2])
    return dest


@pytest.mark.parametrize("command,flag,name", [
    ("gen-corpus", "--spec", "spec.json"),
    ("bench", "--config", "bench.json"),
])
def test_truncated_spec_and_config_errors_name_the_file(bench_outputs, workdir, capsys,
                                                        command, flag, name):
    broken = _truncated_copy(workdir / name, workdir / f"truncated_{name}")
    out = ["--out", str(workdir / "unused.json")] if command == "gen-corpus" else [
        "--out-dir", str(workdir / "unused_out")]
    capsys.readouterr()
    assert main([command, flag, str(broken), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pst-evade: error: {broken}: ")
    assert "line 1 column" in err
    assert err.count("\n") == 1


def test_old_format_corpus_is_refused_in_one_line(workdir, capsys):
    # The layout before corpus files were versioned: string function ids
    # "<apk>.c<i>.f<k>@<family>" and one app-wide edge list.
    fn = "b000.c0.f0@0"
    app = {"id": "b000", "ground_truth": "benign",
           "manifest": {"uses_features": [], "permissions": [], "declared_components": []},
           "code": {"components": [{"kind": "service", "classes": 1, "functions": [fn],
                                    "api_calls": [], "origin": "original"}],
                    "edges": [[fn, fn]]}}
    old = workdir / "old_corpus.json"
    old.write_text(json.dumps({"spec": spec_to_dict(SPEC), "benign": [app],
                               "malicious": [], "donors": []}))
    capsys.readouterr()
    assert main(["train", "--corpus", str(old), "--out", str(workdir / "unused.json")]) == 2
    err = capsys.readouterr().err
    assert err == (f"pst-evade: error: {old}: corpus format 1 is not supported; "
                   "regenerate it with gen-corpus\n")
    assert "Traceback" not in err



def _first_component(doc):
    return next(c for a in doc["benign"] for c in a["code"]["components"])


def _first_app_declared(doc):
    return doc["benign"][0]["manifest"]["declared_components"]


def _first_declared(doc):
    return _first_app_declared(doc)[0]


def _first_app_components(doc):
    return doc["benign"][0]["code"]["components"]


def _first_app_permissions(doc):
    app = next(a for a in doc["benign"] if a["manifest"]["permissions"])
    return app["manifest"]["permissions"]


_SPLIT_ON_A_FLAG = {"leaf": False, "feature": True, "threshold": 0.5,
                    "left": {"leaf": True, "vote": 0}, "right": {"leaf": True, "vote": 1}}
_SPLIT_AT_NAN = {**_SPLIT_ON_A_FLAG, "feature": 0, "threshold": float("nan")}


def _weights(model):
    """A model doc's weights, as a float64 array."""
    return unpack_array(model["params"]["w"], "w", (*ARRAY_DTYPES, FLOAT_DTYPE)).astype(float)


def _weights_as_a_list(model):
    # As format 5 held them.
    model["params"]["w"] = _weights(model).tolist()


def _first_weight_nan(model):
    w = _weights(model)
    w[0] = float("nan")
    model["params"]["w"] = pack_array(w)


def _as_ensemble(model, **extra):
    """Make ``model`` the file of an ensemble whose one member is the model it
    held, with the ``extra`` keys besides."""
    ensemble = model_to_dict(Ensemble([model_from_dict(model)]))
    model.clear()
    model.update(ensemble, **extra)


def _nested_ensemble(model):
    """Make ``model`` the file of an ensemble whose first member is an ensemble
    and whose second is that ensemble's one member."""
    _as_ensemble(model)
    inner = dict(model)
    model["members"] = [inner, inner["members"][0]]


def _ensemble_member_format_99(model):
    _as_ensemble(model)
    model["members"][0]["format"] = 99


def _ensemble_member_space_family_count(model):
    _as_ensemble(model)
    model["members"][0]["space"]["family_count"] = 7


def _give_space(model, space, width):
    """Give a linear model's doc ``space``, with its hash and zero weights."""
    model.update(space=space, params={"w": pack_array(np.zeros(width)), "b": 0.0},
                 space_hash=hashlib.sha256(json.dumps(space, sort_keys=True).encode()).hexdigest())


def _ensemble_member_cluster_count_3(model):
    _as_ensemble(model)
    _give_space(model["members"][0], {"kind": "api_cluster", "cluster_map": {
        "cluster_count": 3, "assignment": [["api.a", 0], ["api.b", 2]]}}, 3)


def _family_past_the_last(component):
    """Give a component's first function the family API_FAMILY_COUNT."""
    families = unpack_array(component["families"], "families").copy()
    families[0] = API_FAMILY_COUNT
    component["families"] = pack_array(families)


def _ensemble_of_one_claiming_two(model):
    member = dict(model)
    model.update(kind="ensemble", params={}, threshold=0.0, hyperparams={"members": 2},
                 members=[member])
    del model["space"], model["space_hash"]


# case -> (flag, source, change): the flag is given a copy of the source file
# in the CLI work directory with the change applied to its document; with no
# source the change is the whole document, and with neither the flag is given a
# directory.
_PROBES = {
    "corpus-app-without-manifest": ("--corpus", "corpus.json",
                                    lambda d: d["benign"][0].pop("manifest")),
    "corpus-families-string": ("--corpus", "corpus.json",
                               lambda d: _first_component(d).update(families="abc")),
    "corpus-families-bad-base64": ("--corpus", "corpus.json",
                                   lambda d: _first_component(d)["families"].update(data="#")),
    "corpus-edges-wide-dtype": ("--corpus", "corpus.json",
                                lambda d: _first_component(d)["edges"].update(dtype="<f8")),
    "corpus-exported-string": ("--corpus", "corpus.json",
                               lambda d: _first_declared(d).update(exported="false")),
    "corpus-enabled-string": ("--corpus", "corpus.json",
                              lambda d: _first_declared(d).update(enabled="no")),
    "corpus-classes-string": ("--corpus", "corpus.json",
                              lambda d: _first_component(d).update(classes="12")),
    "corpus-classes-bool": ("--corpus", "corpus.json",
                            lambda d: _first_component(d).update(classes=True)),
    "corpus-unknown-ground-truth": ("--corpus", "corpus.json",
                                    lambda d: d["benign"][0].update(ground_truth="evil")),
    "corpus-benign-count-string": ("--corpus", "corpus.json", lambda d: d.update(benign="x")),
    "corpus-spec-count-string": ("--corpus", "corpus.json",
                                 lambda d: d["spec"].update(n_benign="x")),
    "corpus-directory": ("--corpus", None, None),
    "model-weights-string": ("--model", "model.json",
                             lambda d: d["params"].update(w="abc")),
    "model-weights-list": ("--model", "model.json", _weights_as_a_list),
    "model-weights-bad-base64": ("--model", "model.json",
                                 lambda d: d["params"]["w"].update(data="#")),
    "model-weights-unlisted-dtype": ("--model", "model.json",
                                     lambda d: d["params"]["w"].update(dtype="<f4")),
    "model-weights-partial-value": ("--model", "model.json",
                                    lambda d: d["params"]["w"].update(
                                        dtype="<f8", data=base64.b64encode(bytes(9)).decode())),
    "model-knn-rows-not-filled": ("--model", "model.json",
                                  lambda d: d.update(kind="knn", params={
                                      "x": pack_array(np.zeros(3)), "y": pack_array(np.zeros(1))})),
    "model-kind-list": ("--model", "model.json", lambda d: d.update(kind=["linear"])),
    "spec-count-string": ("--spec", None, {"n_benign": "x"}),
    "spec-misspelled-key": ("--spec", None,
                            {"n_benign": 4, "n_malicous": 4, "donor_count": 2}),
    "spec-removed-knob": ("--spec", None, {"n_benign": 4, "edge_factor": 2.0}),
    "config-without-detectors": ("--config", "bench.json", lambda d: d.pop("detectors")),
    "config-budgets-string": ("--config", "bench.json", lambda d: d.update(budgets="x")),
    "config-seeds-string": ("--config", "bench.json", lambda d: d.update(seeds="01")),
    "config-detector-cluster-count": ("--config", "bench.json",
                                      lambda d: d["detectors"][0].update(cluster_count=24)),
    "compare-report-without-grid": ("--reports", None, {"config": {}}),
    "report-format-1": ("--reports", "bench_out/report.json", lambda d: d.pop("format")),
    "report-format-2": ("--reports", "bench_out/report.json", lambda d: d.update(format=2)),
    "report-columns-renamed": ("--reports", "bench_out/report.json",
                               lambda d: d["columns"].__setitem__(0, "sample")),
    "report-short-row": ("--reports", "bench_out/report.json", lambda d: d["rows"][0].pop()),
    "report-budget-string": ("--reports", "bench_out/report.json",
                             lambda d: d["rows"][0].__setitem__(3, "4")),
    "report-unknown-outcome": ("--reports", "bench_out/report.json",
                               lambda d: d["rows"][0].__setitem__(5, "evaded")),
    "report-wall-ms-nan": ("--reports", "bench_out/report.json",
                           lambda d: d["rows"][0].__setitem__(7, float("nan"))),
    # Each of these loaded before the field readers: a string was split into
    # characters, a number was coerced or carried, an unknown level was kept.
    "corpus-uses-features-string": ("--corpus", "corpus.json",
                                    lambda d: d["benign"][0]["manifest"].update(
                                        uses_features="android.hardware.camera")),
    "corpus-intent-actions-string": ("--corpus", "corpus.json",
                                     lambda d: _first_declared(d).update(
                                         intent_actions="android.intent.action.MAIN")),
    "corpus-intent-categories-string": ("--corpus", "corpus.json",
                                        lambda d: _first_declared(d).update(
                                            intent_categories="android.intent.category.HOME")),
    "corpus-classes-negative": ("--corpus", "corpus.json",
                                lambda d: _first_component(d).update(classes=-5)),
    "corpus-process-number": ("--corpus", "corpus.json",
                              lambda d: _first_declared(d).update(process=7)),
    "corpus-permission-unknown-level": ("--corpus", "corpus.json",
                                        lambda d: _first_app_permissions(d)[0].__setitem__(
                                            1, "bogus")),
    "corpus-permission-string": ("--corpus", "corpus.json",
                                 lambda d: _first_app_permissions(d).__setitem__(0, "ab")),
    "corpus-app-id-number": ("--corpus", "corpus.json", lambda d: d["benign"][0].update(id=5)),
    "corpus-declared-name-number": ("--corpus", "corpus.json",
                                    lambda d: _first_declared(d).update(name=5)),
    "model-space-keys-string": ("--model", "model.json",
                                lambda d: d["space"].update(keys="abc")),
    "model-cluster-count-string": ("--model", "model.json",
                                   lambda d: d["space"].update(kind="api_cluster", cluster_map={
                                       "cluster_count": "3", "assignment": []})),
    "model-knn-k-string": ("--model", "model.json",
                           lambda d: d.update(kind="knn", hyperparams={"k": "3"},
                                              params={"x": [[0.0]], "y": [0.0]})),
    # Each of these set a training or decision setting, and loaded.
    "model-hyperparams-even-k": ("--model", "model.json",
                                 lambda d: d.update(hyperparams={"k": 4})),
    "model-hyperparams-unknown": ("--model", "model.json",
                                  lambda d: d.update(hyperparams={"bogus": 1})),
    "model-threshold-above-one": ("--model", "model.json", lambda d: d.update(threshold=1.5)),
    "model-ensemble-members-miscounted": ("--model", "model.json",
                                          _ensemble_of_one_claiming_two),
    "model-forest-split-on-a-flag": ("--model", "model.json",
                                     lambda d: d.update(kind="forest",
                                                        params={"trees": [_SPLIT_ON_A_FLAG]})),
    # Each of these loaded, as json reads NaN and Infinity as floats, except the
    # integer beyond the float range, which ended in an OverflowError traceback.
    "model-bias-infinity": ("--model", "model.json",
                            lambda d: d["params"].update(b=float("inf"))),
    "model-bias-beyond-float": ("--model", "model.json",
                                lambda d: d["params"].update(b=10**400)),
    "model-weight-nan": ("--model", "model.json", _first_weight_nan),
    "model-forest-split-at-nan": ("--model", "model.json",
                                  lambda d: d.update(kind="forest",
                                                     params={"trees": [_SPLIT_AT_NAN]})),
    # Each of these loaded, and the key or the params name was ignored.
    "model-linear-with-members": ("--model", "model.json", lambda d: d.update(members=[dict(d)])),
    "model-ensemble-with-space": ("--model", "model.json",
                                  lambda d: _as_ensemble(d, space=d["space"],
                                                         space_hash=d["space_hash"])),
    "model-ensemble-with-params": ("--model", "model.json",
                                   lambda d: _as_ensemble(d, params={"w": [1.0]})),
    "model-unknown-key": ("--model", "model.json", lambda d: d.update(bogus=1)),
    "model-space-unknown-key": ("--model", "model.json", lambda d: d["space"].update(bogus=1)),
    "model-ensemble-member-space-family-count": ("--model", "model.json",
                                                 _ensemble_member_space_family_count),
    "model-ensemble-member-format-99": ("--model", "model.json", _ensemble_member_format_99),
    "config-corpus-path-number": ("--config", "bench.json", lambda d: d.update(corpus_path=5)),
    "config-detector-name-number": ("--config", "bench.json",
                                    lambda d: d["detectors"][0].update(name=5)),
    # Each of these gave a feature space another size, or a function a family
    # past the last, and loaded.
    "model-markov-family-count-7": ("--model", "model.json",
                                    lambda d: _give_space(d, {"kind": "markov",
                                                              "family_count": 7}, 49)),
    "model-ensemble-member-cluster-count-3": ("--model", "model.json",
                                              _ensemble_member_cluster_count_3),
    "corpus-family-11": ("--corpus", "corpus.json",
                         lambda d: _family_past_the_last(_first_component(d))),
    # Ensembles are one level deep.
    "model-nested-ensemble": ("--model", "model.json", _nested_ensemble),
    # Each of these loaded. Attack seeds and report rows are keyed by the app id,
    # and compare's ASR counts each row.
    "corpus-benign-app-malicious": ("--corpus", "corpus.json",
                                    lambda d: d["benign"][0].update(ground_truth="malicious")),
    "corpus-donor-malicious": ("--corpus", "corpus.json",
                               lambda d: d["donors"][0].update(ground_truth="malicious")),
    "corpus-repeated-app-id": ("--corpus", "corpus.json",
                               lambda d: d["malicious"][0].update(id=d["benign"][0]["id"])),
    "report-repeated-row": ("--reports", "bench_out/report.json",
                            lambda d: d["rows"].insert(1, list(d["rows"][0]))),
    # Each of these named its missing key without its path in the space.
    "model-space-without-kind": ("--model", "model.json", lambda d: d["space"].pop("kind")),
    "model-cluster-map-without-count": ("--model", "model.json",
                                        lambda d: d["space"].update(
                                            kind="api_cluster", cluster_map={"assignment": []})),
    "model-cluster-map-without-assignment": ("--model", "model.json",
                                             lambda d: d["space"].update(
                                                 kind="api_cluster",
                                                 cluster_map={"cluster_count": 24})),
    # Each of these named its missing key without its path in params or report.
    "model-params-without-w": ("--model", "model.json", lambda d: d["params"].pop("w")),
    "model-report-without-f1": ("--model", "model.json", lambda d: d["report"].pop("f1")),
    # Each of these loaded, and the key was ignored.
    "corpus-unknown-key": ("--corpus", "corpus.json", lambda d: d.update(bogus=1)),
    "corpus-app-unknown-key": ("--corpus", "corpus.json",
                               lambda d: d["benign"][0].update(bogus=1)),
    "corpus-manifest-unknown-key": ("--corpus", "corpus.json",
                                    lambda d: d["benign"][0]["manifest"].update(bogus=1)),
    "corpus-code-unknown-key": ("--corpus", "corpus.json",
                                lambda d: d["benign"][0]["code"].update(bogus=1)),
    "corpus-declared-unknown-key": ("--corpus", "corpus.json",
                                    lambda d: _first_declared(d).update(bogus=1)),
    "corpus-component-unknown-key": ("--corpus", "corpus.json",
                                     lambda d: _first_component(d).update(bogus=1)),
    "report-unknown-key": ("--reports", "bench_out/report.json", lambda d: d.update(bogus=1)),
    # Each of these named its missing key with no app or component, or ended in
    # a TypeError on an object that was a number.
    "corpus-app-not-an-object": ("--corpus", "corpus.json",
                                 lambda d: d["benign"].__setitem__(1, 5)),
    "corpus-app-without-id": ("--corpus", "corpus.json", lambda d: d["donors"][2].pop("id")),
    "corpus-manifest-without-permissions": ("--corpus", "corpus.json",
                                            lambda d: d["benign"][0]["manifest"].pop(
                                                "permissions")),
    "corpus-declared-not-an-object": ("--corpus", "corpus.json",
                                      lambda d: _first_app_declared(d).__setitem__(0, 5)),
    "corpus-declared-without-name": ("--corpus", "corpus.json",
                                     lambda d: _first_declared(d).pop("name")),
    "corpus-declared-without-exported": ("--corpus", "corpus.json",
                                         lambda d: _first_declared(d).pop("exported")),
    "corpus-component-not-an-object": ("--corpus", "corpus.json",
                                       lambda d: _first_app_components(d).__setitem__(0, 5)),
    "corpus-component-without-classes": ("--corpus", "corpus.json",
                                         lambda d: _first_component(d).pop("classes")),
    "model-forest-node-not-an-object": ("--model", "model.json",
                                        lambda d: d.update(kind="forest", params={"trees": [
                                            {**_SPLIT_ON_A_FLAG, "feature": 0, "left": 5}]})),
    # Each of these was refused as format None.
    "corpus-top-level-list": ("--corpus", None, []),
    "model-top-level-list": ("--model", None, []),
    "report-top-level-list": ("--reports", None, []),
}

# case -> the part of its message that names the field or the fault.
_PROBE_FIELDS = {
    "compare-report-without-grid": "report format 1 is not supported; rerun bench",
    "report-format-1": "report format 1 is not supported; rerun bench",
    "report-format-2": "report format 2 is not supported; rerun bench",
    "report-columns-renamed": "columns are not sample_id, detector, algorithm, budget, seed",
    "report-short-row": "row 0 has 7 values, not 8",
    "report-budget-string": 'row 0 budget is "4", not an integer',
    "report-unknown-outcome": 'row 0 outcome is "evaded", not success, failure or not_applicable',
    "report-wall-ms-nan": "row 0 wall_ms is NaN, not a finite number",
    "model-bias-infinity": "linear model: params.b is Infinity, not a finite number",
    "model-bias-beyond-float": "0, not a finite number",
    "model-weight-nan": "linear model: params.w is not an array of finite numbers",
    "model-forest-split-at-nan": "forest model: split threshold is NaN, not a finite number",
    "corpus-uses-features-string": "app b000: uses_features are not a list of strings",
    "corpus-intent-actions-string": "Main: intent_actions are not a list of strings",
    "corpus-intent-categories-string": "Main: intent_categories are not a list of strings",
    "corpus-classes-negative": (
        "app b000 component 0: code component classes is -5, not an integer >= 0"),
    "corpus-process-number": "Main: process is 7, not a string or null",
    "corpus-permission-unknown-level": '"bogus"], not a [name, protection level] pair',
    "corpus-permission-string": 'permissions holds "ab", not a [name, protection level] pair',
    "corpus-app-id-number": "app id is 5, not a string",
    "corpus-declared-name-number": "declared component name is 5, not a string",
    "model-space-keys-string": "space keys are not a list of strings",
    "model-cluster-count-string": 'cluster_count is "3", not an integer',
    "model-knn-k-string": "knn model: unknown key 'hyperparams'",
    "model-kind-list": 'model kind is ["linear"], not a string',
    "model-hyperparams-even-k": "linear model: unknown key 'hyperparams'",
    "model-hyperparams-unknown": "linear model: unknown key 'hyperparams'",
    "model-threshold-above-one": "linear model: unknown key 'threshold'",
    "model-ensemble-members-miscounted": "ensemble model: unknown key 'hyperparams'",
    "model-linear-with-members": "linear model: unknown key 'members'",
    "model-ensemble-with-space": "ensemble model: unknown key 'space'",
    "model-ensemble-with-params": "ensemble model: unknown key 'params'",
    "model-unknown-key": "linear model: unknown key 'bogus'",
    "model-space-unknown-key": "linear model: unknown key 'space.bogus'",
    "model-ensemble-member-space-family-count": "linear model: unknown key 'space.family_count'",
    "model-ensemble-member-format-99": (
        "ensemble model: member 0 format 99 is not supported; retrain it with train"),
    "model-forest-split-on-a-flag": "forest model: split feature is true, not an integer",
    "config-corpus-path-number": "corpus_path is 5, not a string or null",
    "config-detector-name-number": "name is 5, not a string",
    "config-detector-cluster-count": "detector: unknown key 'cluster_count'",
    "model-markov-family-count-7": "space family_count is 7, not 11",
    "model-ensemble-member-cluster-count-3": "cluster_count is 3, not 24",
    "corpus-family-11": "component 0: function family above 10",
    "model-nested-ensemble": (
        "ensemble model: member 0 is an ensemble; ensembles are one level deep"),
    "corpus-benign-app-malicious": (
        "app b000: ground truth malicious in the benign list, which holds benign apps"),
    "corpus-donor-malicious": (
        "app d000: ground truth malicious in the donors list, which holds benign apps"),
    "corpus-repeated-app-id": "app b000: id is not unique",
    "report-repeated-row": (
        "row 1 repeats row 0: one attack per detector, algorithm, budget, seed and sample_id"),
    "report-unknown-key": "report: unknown key 'bogus'",
    "corpus-app-without-manifest": "app b000: missing key 'manifest'",
    "corpus-app-not-an-object": "app 1 of benign is not a JSON object",
    "corpus-app-without-id": "app 2 of donors: missing key 'id'",
    "corpus-manifest-without-permissions": "app b000: missing key 'manifest.permissions'",
    "corpus-declared-not-an-object": "app b000 declared component 0 is not a JSON object",
    "corpus-declared-without-name": "app b000 declared component 0: missing key 'name'",
    "corpus-declared-without-exported": "app b000 declared component 0: missing key 'exported'",
    "corpus-component-not-an-object": "app b000 component 0 is not a JSON object",
    "corpus-component-without-classes": "app b000 component 0: missing key 'classes'",
    "model-forest-node-not-an-object": "forest model: tree node is not a JSON object",
    "model-space-without-kind": "linear model: missing key 'space.kind'",
    "model-cluster-map-without-count": (
        "linear model: missing key 'space.cluster_map.cluster_count'"),
    "model-cluster-map-without-assignment": (
        "linear model: missing key 'space.cluster_map.assignment'"),
    "model-params-without-w": "linear model: missing key 'params.w'",
    "model-report-without-f1": "linear model: missing key 'report.f1'",
    "corpus-unknown-key": "corpus: unknown key 'bogus'",
    "corpus-app-unknown-key": "app b000: unknown key 'bogus'",
    "corpus-manifest-unknown-key": "app b000: unknown key 'manifest.bogus'",
    "corpus-code-unknown-key": "app b000: unknown key 'code.bogus'",
    "corpus-declared-unknown-key": "app b000 declared component 0: unknown key 'bogus'",
    "corpus-component-unknown-key": "app b000 component 0: unknown key 'bogus'",
    "corpus-directory": "Is a directory",
    "corpus-families-string": (
        "app b000 component 0: code component families is not a {dtype, data} object"),
    "corpus-families-bad-base64": (
        "app b000 component 0: code component families data is not valid base64"),
    "corpus-edges-wide-dtype": ('app b000 component 0: code component edges dtype "<f8" is '
                                "not one of <u1, <i1, <u2, <i2, <u4, <i4, <i8"),
    "corpus-exported-string": (
        'declared component com.app.b000.Main: exported is "false", not true or false'),
    "corpus-enabled-string": (
        'declared component com.app.b000.Main: enabled is "no", not true or false'),
    "corpus-classes-string": 'app b000 component 0: code component classes is "12", not an integer',
    "corpus-classes-bool": "app b000 component 0: code component classes is true, not an integer",
    "corpus-unknown-ground-truth": "app b000: bad ground truth: evil",
    "corpus-benign-count-string": 'benign is "x", not an integer',
    "corpus-spec-count-string": "corpus spec: n_benign is 'x', not a non-negative integer",
    "model-weights-string": "linear model: params.w is not a {dtype, data} object",
    "model-weights-list": "linear model: params.w is not a {dtype, data} object",
    "model-weights-bad-base64": "linear model: params.w data is not valid base64",
    "model-weights-unlisted-dtype": ('linear model: params.w dtype "<f4" is not one of '
                                     "<u1, <i1, <u2, <i2, <u4, <i4, <i8, <f8"),
    "model-weights-partial-value": (
        "linear model: params.w data holds 9 bytes, not a multiple of 8 for <f8"),
    "model-knn-rows-not-filled": "knn model: params.x holds 3 values, which do not fill rows of ",
    "spec-count-string": "corpus spec: n_benign is 'x', not a non-negative integer",
    "spec-misspelled-key": "corpus spec: unknown key 'n_malicous'",
    "spec-removed-knob": "corpus spec: unknown key 'edge_factor'",
    "config-without-detectors": "missing key 'detectors'",
    "config-budgets-string": 'budgets is "x", not a list',
    "config-seeds-string": 'seeds is "01", not a list',
    "corpus-top-level-list": "corpus is not a JSON object",
    "model-top-level-list": "model is not a JSON object",
    "report-top-level-list": "report is not a JSON object",
}


def _probe_argv(workdir, flag, path):
    """The command line that reads ``path`` through ``flag``, with every other
    input file a good one."""
    if flag == "--model":
        return _attack_args(workdir, workdir / "corpus.json", path)
    command, out = {
        "--corpus": ("train", ["--out", str(workdir / "unused.json")]),
        "--spec": ("gen-corpus", ["--out", str(workdir / "unused.json")]),
        "--config": ("bench", ["--out-dir", str(workdir / "unused_out")]),
        "--reports": ("compare", []),
    }[flag]
    return [command, flag, str(path), *out]


# flag -> the lists of the file it reads, whose items are written a line each.
_FILE_LISTS = {"--corpus": CORPUS_LISTS, "--model": MODEL_LISTS}


def _probe_document(workdir, case):
    """The document of ``_PROBES[case]``; None for a directory."""
    flag, source, change = _PROBES[case]
    if change is None or source is None:
        return change
    doc = (file_document(workdir / source, _FILE_LISTS[flag]) if flag in _FILE_LISTS
           else json.loads((workdir / source).read_text()))
    change(doc)
    return doc


def _write_probe(workdir, case, name):
    """Write the file of ``_PROBES[case]`` as ``name`` in ``workdir``; its path."""
    flag, source, _ = _PROBES[case]
    broken, doc = workdir / name, _probe_document(workdir, case)
    if doc is None:
        broken.mkdir(exist_ok=True)
    elif source is not None and flag in _FILE_LISTS:
        write_file(broken, doc, _FILE_LISTS[flag])
    else:
        broken.write_text(json.dumps(doc))
    return broken


@pytest.mark.parametrize("case", list(_PROBES))
def test_every_malformed_input_file_fails_in_one_line_naming_it(bench_outputs, workdir,
                                                                 capsys, case):
    broken = _write_probe(workdir, case, f"probe-{case}.json")
    capsys.readouterr()
    assert main(_probe_argv(workdir, _PROBES[case][0], broken)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pst-evade: error: {broken}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert _PROBE_FIELDS[case] in err


# ---------------------------------------------------------------------------
# The line reader's own refusals: a corpus or model file is line 1, the
# document with each list given as its length, and then one line per item.


@pytest.fixture(scope="module")
def ensemble_file(workdir):
    path = workdir / "lines-ensemble.json"
    assert main(["train", "--corpus", str(workdir / "corpus.json"), "--kind", "ensemble",
                 "--out", str(path)]) == 0
    return path


def _refusal(workdir, capsys, flag, path):
    """The one stderr line of the command that reads ``path`` through ``flag``."""
    capsys.readouterr()
    assert main(_probe_argv(workdir, flag, path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("case,flag,source,keep,words", [
    # The workdir corpus holds 30 benign apps on lines 2-31, 10 donors on
    # 32-41 and 30 malicious apps on 42-71; its ensemble, 20 members.
    ("corpus-cut-after-an-app", "--corpus", "corpus.json", 21,
     "line 22: the file ends after 20 of 30 benign"),
    ("corpus-cut-after-the-donors", "--corpus", "corpus.json", 41,
     "line 42: the file ends after 0 of 30 malicious"),
    ("ensemble-cut-after-a-member", "--model", None, 3,
     "line 4: the file ends after 2 of 20 members"),
    ("corpus-line-after-the-last", "--corpus", "corpus.json", 72,
     "line 72: more lines than line 1 counts"),
    ("ensemble-line-after-the-last", "--model", None, 22,
     "line 22: more lines than line 1 counts"),
])
def test_a_file_that_ends_before_or_after_its_counted_lines_is_refused_naming_the_line(
        workdir, ensemble_file, capsys, case, flag, source, keep, words):
    # A file cut at a line boundary would otherwise load as a smaller corpus or
    # ensemble; the lengths in line 1 say how many lines follow.
    lines = _lines(workdir / source if source else ensemble_file)
    path = workdir / f"lines-{case}.json"
    path.write_text("".join((lines + lines[-1:])[:keep]), encoding="utf-8")
    assert _refusal(workdir, capsys, flag, path) == f"pst-evade: error: {path}: {words}\n"


@pytest.mark.parametrize("flag", ["--corpus", "--model"])
def test_bad_json_on_a_line_is_refused_naming_that_line(workdir, ensemble_file, capsys, flag):
    lines = _lines(workdir / "corpus.json" if flag == "--corpus" else ensemble_file)
    lines[2] = '{"id": \n'
    path = workdir / f"lines-bad-json-{flag[2:]}.json"
    path.write_text("".join(lines), encoding="utf-8")
    assert _refusal(workdir, capsys, flag, path) == (
        f"pst-evade: error: {path}: Expecting value: line 3 column 8\n")


@pytest.mark.parametrize("flag,version,words", [
    # As the layout before line files wrote it: the format is refused first.
    ("--corpus", 5, "corpus format 5 is not supported; regenerate it with gen-corpus"),
    ("--model", 4, "model format 4 is not supported; retrain it with train"),
    # As json.dump(corpus_to_dict(corpus)) writes it: the refusal stays short.
    ("--corpus", None, "line 1: benign is a list, not its length"),
    ("--model", None, "line 1: members is a list, not its length"),
])
def test_a_whole_document_on_one_line_is_refused_in_a_short_line(workdir, ensemble_file, capsys,
                                                                  flag, version, words):
    doc = (corpus_to_dict(load_corpus(workdir / "corpus.json")) if flag == "--corpus"
           else file_document(ensemble_file, MODEL_LISTS))
    for d in [doc, *doc.get("members", [])] if version else []:
        d["format"] = version
    path = workdir / f"lines-whole-document-{flag[2:]}-{version}.json"
    # Each file's separators as the layout before line files wrote them.
    path.write_text(canonical_json(doc) if flag == "--corpus" else json.dumps(doc, sort_keys=True),
                    encoding="utf-8")
    assert _refusal(workdir, capsys, flag, path) == f"pst-evade: error: {path}: {words}\n"


def _loaded(source, path):
    """The value in a corpus or model file, in a form that compares by value."""
    if source == "corpus":
        return load_corpus(path)
    return json.dumps(model_to_dict(load_model(path)), sort_keys=True)


@pytest.mark.parametrize("source", ["corpus", "model", "ensemble"])
@pytest.mark.parametrize("cut", ["one-byte", "half", "into-the-second-item",
                                 "last-two-bytes-off"])
def test_a_truncated_file_is_refused_naming_the_line_it_ends_in(workdir, ensemble_file, source,
                                                                 cut):
    path = ensemble_file if source == "ensemble" else workdir / f"{source}.json"
    text = path.read_text()
    # A scorer file is one line: its cut falls in it.
    second = text.find("\n", text.find("\n") + 1) + 5
    end = {"one-byte": 1, "half": len(text) // 2, "into-the-second-item": second,
           "last-two-bytes-off": len(text) - 2}[cut]
    truncated = workdir / f"truncated-{cut}-{source}.json"
    truncated.write_text(text[:end])
    with pytest.raises(ValueError) as exc:
        _loaded(source, truncated)
    message = str(exc.value)
    assert message.startswith(f"{truncated}: ")
    assert f": line {text[:end].count(chr(10)) + 1} column " in message
    assert "\n" not in message


@pytest.mark.parametrize("source", ["corpus", "model", "ensemble"])
def test_a_file_missing_only_its_final_newline_loads(workdir, ensemble_file, source):
    # Line 1's lengths show that the content is whole.
    path = ensemble_file if source == "ensemble" else workdir / f"{source}.json"
    text = path.read_text()
    assert text.endswith("}\n")
    cut = workdir / f"{source}-without-final-newline.json"
    cut.write_text(text[:-1])
    assert _loaded(source, cut) == _loaded(source, path)


def _reversed_keys(value):
    """``value`` with the keys of every object in it in reverse order."""
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


# name -> the text of a line from its canonical text, without the newline.
_LINE_LAYOUTS = {
    "keys-reversed": lambda line: json.dumps(_reversed_keys(json.loads(line)),
                                             separators=(",", ":")),
    "spaced": lambda line: json.dumps(json.loads(line)),
    "padded": lambda line: f" \t{line} ",
}


@pytest.mark.parametrize("source", ["corpus", "model", "ensemble"])
@pytest.mark.parametrize("layout", [*_LINE_LAYOUTS, "crlf"])
def test_a_file_in_any_line_layout_loads_to_the_canonical_files_value(workdir, ensemble_file,
                                                                       source, layout):
    # Each line is read as JSON: key order and spaces within a line, and the
    # line ending, do not change what is loaded.
    path = ensemble_file if source == "ensemble" else workdir / f"{source}.json"
    lines = path.read_text(encoding="utf-8").splitlines()
    change, end = (_LINE_LAYOUTS[layout], "\n") if layout in _LINE_LAYOUTS else (str, "\r\n")
    text = "".join(change(line) + end for line in lines)
    assert text != path.read_text(encoding="utf-8")
    other = workdir / f"layout-{layout}-{source}.json"
    other.write_bytes(text.encode("utf-8"))
    assert _loaded(source, other) == _loaded(source, path)


@pytest.mark.parametrize("source", ["corpus", "model", "ensemble"])
def test_an_indented_file_is_refused_naming_line_1(workdir, ensemble_file, source):
    # Only a file whose line 1 is one JSON value is read; an indented document
    # spreads line 1 over many lines.
    path = ensemble_file if source == "ensemble" else workdir / f"{source}.json"
    indented = workdir / f"indented-{source}.json"
    indented.write_text(json.dumps(json.loads(path.read_text().splitlines()[0]), indent=2))
    with pytest.raises(ValueError) as exc:
        _loaded(source, indented)
    assert str(exc.value) == (f"{indented}: Expecting property name enclosed in double quotes: "
                              "line 1 column 2")


# name -> the text of line 1 from its canonical text, without the newline, and
# the refusal that follows its path, or None where the file loads.
_LINE_ONE_CHANGES = {
    # json keeps the last of a repeated key, so this loads as the canonical file.
    "repeated-key": (lambda line: '{"format":3,' + line[1:], None),
    "top-level-list": (lambda line: f"[{line}]", "{what} is not a JSON object"),
    "byte-order-mark": (lambda line: "\ufeff" + line,
                        "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1"),
    "text-after-the-value": (lambda line: line + " 5", "Extra data: line 1 column {column}"),
}


@pytest.mark.parametrize("source", ["corpus", "ensemble"])
@pytest.mark.parametrize("change", list(_LINE_ONE_CHANGES))
def test_line_1_is_read_as_one_json_object(workdir, ensemble_file, source, change):
    path = ensemble_file if source == "ensemble" else workdir / "corpus.json"
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    edit, words = _LINE_ONE_CHANGES[change]
    changed = workdir / f"line-1-{change}-{source}.json"
    changed.write_text(edit(first) + "\n" + rest, encoding="utf-8")
    if words is None:
        assert _loaded(source, changed) == _loaded(source, path)
        return
    with pytest.raises(ValueError) as exc:
        _loaded(source, changed)
    what = "corpus" if source == "corpus" else "model"
    assert str(exc.value) == f"{changed}: " + words.format(what=what, column=len(first) + 2)


def test_training_on_a_spaced_corpus_writes_the_canonical_corpus_model(workdir):
    spaced, out = workdir / "spaced-corpus.json", workdir / "spaced-model.json"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n"
                              for line in (workdir / "corpus.json").read_text().splitlines()))
    assert main(["train", "--corpus", str(spaced), "--kind", "linear",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir / "model.json").read_bytes()


# flag -> the loader of such a file, and the reading of the same document whole,
# on one line, through the in-memory codec that ``load_corpus`` and
# ``load_model`` share their builders and checks with.
_IN_MEMORY = {
    "--corpus": (load_corpus, partial(read_document, parse=corpus_from_dict, fmt=(
        "corpus", CORPUS_FORMAT, "regenerate it with gen-corpus"))),
    "--model": (load_model, partial(read_document, parse=model_from_dict, fmt=(
        "model", MODEL_FORMAT, "retrain it with train"))),
}


def _refused(load, path):
    """The type and words, after the path, of ``load``'s refusal of ``path``."""
    with pytest.raises((OSError, ValueError)) as exc:
        load(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    return type(exc.value).__name__, message.removeprefix(f"{path}: ")


# case -> the line reader's own words, where line 1 gives a list as its length.
_LINE_REFUSALS = {"corpus-benign-count-string": 'benign is "x", not an integer'}


@pytest.mark.parametrize("case", [case for case, (flag, _, _) in _PROBES.items()
                                  if flag in _FILE_LISTS])
def test_every_corpus_and_model_probe_is_refused_as_by_the_in_memory_codec(workdir, case):
    flag = _PROBES[case][0]
    load, whole = _IN_MEMORY[flag]
    lines = _write_probe(workdir, case, f"lines-probe-{case}.json")
    got = _refused(load, lines)
    doc = _probe_document(workdir, case)
    reference = workdir / f"whole-probe-{case}.json"
    if doc is None:
        reference.mkdir(exist_ok=True)
    else:
        reference.write_text(json.dumps(doc), encoding="utf-8")
    want = _refused(whole, reference)
    if case in _LINE_REFUSALS:
        assert want[1] != got[1] == _LINE_REFUSALS[case]
    else:
        assert got == want


@pytest.mark.parametrize("extra,needle", [
    (["--seed", "-1"], "train_seed is -1, not an integer >= 0"),
    (["--kind", "ensemble", "--features", "markov"],
     "detector 'ensemble': an ensemble's members bring their own feature spaces; "
     "leave features unset, not 'markov'"),
])
def test_train_refuses_a_negative_seed_and_ensemble_features(workdir, capsys, extra, needle):
    out = workdir / "refused-model.json"
    capsys.readouterr()
    assert main(["train", "--corpus", str(workdir / "corpus.json"), *extra,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"pst-evade: error: {needle}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def benign_only_corpus(workdir):
    spec, corpus = workdir / "benign-only-spec.json", workdir / "benign-only-corpus.json"
    spec.write_text(json.dumps(spec_to_dict(CorpusSpec(n_benign=8, n_malicious=0,
                                                       donor_count=2, seed=5))))
    assert main(["gen-corpus", "--spec", str(spec), "--out", str(corpus)]) == 0
    return corpus


@pytest.mark.parametrize("kind,features", [
    ("linear", "binary"), ("linear", "markov"), ("linear", "api_cluster"), ("ensemble", "binary"),
])
def test_train_refuses_a_corpus_of_one_class_naming_the_missing_one(benign_only_corpus, workdir,
                                                                    capsys, kind, features):
    # Markov and api_cluster training ended in numpy's "need at least one array
    # to stack", and the ensemble and binary ones each named it in other words.
    out = workdir / "refused-model.json"
    capsys.readouterr()
    assert main(["train", "--corpus", str(benign_only_corpus), "--kind", kind,
                 "--features", features, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "pst-evade: error: corpus train split holds no malicious apps\n")
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # The Quick start commands, then the bench config and commands, each through
    # cli.main in an empty directory, then the in-process example.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```(\w+)\n(.*?)```", text, re.S)
    commands = [shlex.split(line, comments=True)
                for lang, block in blocks if lang == "sh" and block.startswith("pst-evade ")
                for line in block.replace("\\\n", " ").splitlines()]
    configs = [block for lang, block in blocks if lang == "json" and '"corpus_path"' in block]
    programs = [block for lang, block in blocks if lang == "python"]
    assert [argv[:2] for argv in commands] == [
        ["pst-evade", "gen-corpus"], ["pst-evade", "train"], ["pst-evade", "attack"],
        ["pst-evade", "bench"], ["pst-evade", "compare"]]
    assert len(configs) == len(programs) == 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench.json").write_text(configs[0])
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    out = capsys.readouterr().out
    assert "pst: ASR" in out and out.count("linear       pst") == 2
    exec(programs[0], {})
