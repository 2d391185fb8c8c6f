"""End-to-end command line flow in a temp directory."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import pst_evade
from pst_evade.attack import AttackConfig, Oracle, reference_tree, report_to_dict, run_attack
from pst_evade.cli import main
from pst_evade.corpus import (API_FAMILY_COUNT, CorpusSpec, load_corpus, pack_array,
                              spec_to_dict, unpack_array)
from pst_evade.detectors import (
    MODEL_FORMAT,
    DetectorModel,
    Ensemble,
    FeatureSpace,
    load_model,
    model_from_dict,
    model_to_dict,
)
from pst_evade.harness import derive_seed, rows_from_dict, select_true_positives
from pst_evade.perturbset import load_pset
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
    assert main(["build-pset", "--corpus", str(root / "corpus.json"),
                 "--out", str(root / "pset.json")]) == 0
    return root


def _stores_arrays_as_base64(component):
    return all(sorted(component[k]) == ["data", "dtype"] for k in ("families", "edges"))


def test_gen_corpus_writes_loadable_corpus(workdir):
    corpus = load_corpus(workdir / "corpus.json")
    assert len(corpus.benign) == 30
    assert len(corpus.malicious) == 30
    assert len(corpus.donors) == 10
    # A format-5 corpus file records only the four spec fields, and stores each
    # component's families and edges as {dtype, data} objects.
    doc = json.loads((workdir / "corpus.json").read_text())
    assert doc["format"] == 5
    assert sorted(doc["spec"]) == ["donor_count", "n_benign", "n_malicious", "seed"]
    assert _stores_arrays_as_base64(_first_component(doc))


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
    """A format-4 model file, and each ensemble member, records no threshold or
    hyperparams: a scorer fires at its fixed threshold, an ensemble when any
    member fires."""
    doc = json.loads(path.read_text())
    for d in [doc, *doc.get("members", [])]:
        assert d["format"] == 4
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
    # Attack builds the kNN and forest scoring kernels when it loads the model;
    # a Markov forest splits between adjacent distinct floats; a kNN on
    # api_cluster features scores a row from the distances of the last row it
    # was asked about, and one on Markov features keeps the difference form.
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
        assert "space" not in json.loads(path.read_text())
        assert len({m.space for m in model.members}) > 1
    else:
        assert out.startswith(f"trained {kind} on {features} features; f1=")
        assert model.space.kind == features
    report = workdir / f"attack-{kind}-{features}.json"
    assert main(["attack", "--corpus", str(corpus), "--model", str(path),
                 "--pset", str(workdir / "pset.json"), "--budget", "5",
                 "--samples", str(samples), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["samples"] == samples and len(doc["reports"]) == samples
    assert all(rep["queries_used"] <= 5 for rep in doc["reports"])


def test_build_pset_with_and_without_donors(workdir):
    with_donors = workdir / "pset.json"
    assert main(["build-pset", "--corpus", str(workdir / "corpus.json"),
                 "--out", str(with_donors)]) == 0
    pset = load_pset(with_donors)
    # A format-6 pset file holds its perturbations only, each its kind and
    # payload: groups and keywords are derived on load. It stores each payload
    # component like the corpus does.
    doc = json.loads(with_donors.read_text())
    assert doc["format"] == 6 and sorted(doc) == ["format", "perturbations"]
    assert all(sorted(p) == ["kind", "payload"] for p in doc["perturbations"])
    assert _stores_arrays_as_base64(_first_payload(doc)["component"])
    manifest_only = workdir / "pset_plain.json"
    assert main(["build-pset", "--out", str(manifest_only)]) == 0
    plain = load_pset(manifest_only)
    assert len(pset) > len(plain)
    assert len(plain) == 256


def test_attack_writes_report(workdir, capsys):
    out = workdir / "attack.json"
    tree = workdir / "tree.json"
    assert main(["attack", "--corpus", str(workdir / "corpus.json"),
                 "--model", str(workdir / "model.json"),
                 "--pset", str(workdir / "pset.json"),
                 "--algorithm", "pst", "--budget", "6", "--samples", "4",
                 "--seed", "2", "--out", str(out),
                 "--dump-tree", str(tree)]) == 0
    doc = json.loads(out.read_text())
    assert doc["samples"] == 4
    assert 0.0 <= doc["asr"] <= 1.0
    assert len(doc["reports"]) == 4
    for rep in doc["reports"]:
        assert rep["queries_used"] <= 6
        assert rep["outcome"] in ("success", "failure")
    snapshot = json.loads(tree.read_text())
    assert snapshot["root"]["label"] == "root"
    # The dump is the reference tree the attacks copy, with one leaf per group of
    # the pset; it records no settings.
    pset = load_pset(workdir / "pset.json")
    assert snapshot["leaf_count"] == len(pset.groups)
    assert "config" not in snapshot
    assert snapshot == tree_to_dict(reference_tree(pset))
    assert "ASR" in capsys.readouterr().out


def test_attack_runs_on_the_pset_file_it_is_given(workdir):
    corpus_path, model_path = workdir / "corpus.json", workdir / "model.json"
    pset_path, out = workdir / "pset_manifest.json", workdir / "attack_manifest.json"
    assert main(["build-pset", "--out", str(pset_path)]) == 0
    pset = load_pset(pset_path)
    assert len(pset.groups) != len(load_pset(workdir / "pset.json").groups)
    assert main(["attack", "--corpus", str(corpus_path), "--model", str(model_path),
                 "--pset", str(pset_path), "--budget", "6", "--samples", "3",
                 "--seed", "4", "--out", str(out)]) == 0

    model = load_model(model_path)
    _, test = load_corpus(corpus_path).train_test_split()
    targets = select_true_positives(model, [a for a in test if a.ground_truth == "malicious"],
                                    3, 4, detector_name=str(model_path))
    expected = [report_to_dict(run_attack(Oracle(model), apk, pset,
                                          AttackConfig(budget=6, seed=derive_seed(4, apk.id))))
                for apk in targets]
    written = json.loads(out.read_text())["reports"]
    for doc in written + expected:
        del doc["wall_time"]
    assert written == expected


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
    # bench writes one file, a format-2 report.json of one list of values a row.
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["format"] == 2
    assert doc["columns"] == ["sample_id", "detector", "algorithm", "budget", "seed",
                              "outcome", "queries_used", "wall_ms"]
    rows = _report_rows(out_dir)
    assert len(rows) == 3 * 2 * 4  # algorithms x budgets x samples


def test_bench_env_seed_override(bench_outputs, workdir, monkeypatch):
    cfg_path, _ = bench_outputs
    monkeypatch.setenv("PST_EVADE_SEED", "41")
    out_dir = workdir / "bench_env"
    assert main(["bench", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    assert {r["seed"] for r in _report_rows(out_dir)} == {41}


def test_env_seed_overrides_cli_seed(workdir, monkeypatch):
    monkeypatch.setenv("PST_EVADE_SEED", "55")
    out = workdir / "corpus_env.json"
    assert main(["gen-corpus", "--spec", str(workdir / "spec.json"),
                 "--seed", "3", "--out", str(out)]) == 0
    assert load_corpus(out).spec.seed == 55


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


def _attack_args(workdir, corpus, model, pset):
    return ["attack", "--corpus", str(corpus), "--model", str(model), "--pset", str(pset),
            "--budget", "4", "--samples", "2", "--out", str(workdir / "err.json")]


@pytest.mark.parametrize("case,needle", [
    ("missing_corpus", "No such file"),
    ("model_without_space", "missing key 'space'"),
    ("truncated_model", "line 1 column"),
    ("truncated_corpus", "line 1 column"),
    ("unversioned_model", "model format 1 is not supported; retrain it with train"),
    ("truncated_pset", "line 1 column"),
    ("ensemble_without_members", "ensemble model: has no members"),
])
def test_bad_input_files_give_one_line_errors(workdir, capsys, case, needle):
    corpus, model, pset = workdir / "corpus.json", workdir / "model.json", workdir / "pset.json"
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
        model.write_text(json.dumps({"format": MODEL_FORMAT, "kind": "ensemble",
                                     "members": []}))
    elif case == "truncated_pset":
        pset = broken = _truncated_copy(pset, workdir / "truncated_pset.json")
    else:
        corpus = broken = _truncated_copy(corpus, workdir / "truncated_corpus.json")
    capsys.readouterr()
    assert main(_attack_args(workdir, corpus, model, pset)) == 2
    err = capsys.readouterr().err
    assert err.startswith("pst-evade: error: ")
    assert needle in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    if broken is not None:
        # attack reads a corpus, a model and a pset: the error says which one
        # is broken.
        assert err.startswith(f"pst-evade: error: {broken}: ")


_BAD_PARAMS = {
    # would score through broadcasting
    "knn": lambda doc: doc["params"].update(x=[[0.0], [1.0]]),
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
    ("knn", "knn model: fit rows of shape (2, 1) do not match the 2-feature binary space"),
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
    assert main(_attack_args(workdir, workdir / "corpus.json", model,
                             workdir / "pset.json")) == 2
    err = capsys.readouterr().err
    # attack reads three files: the error names the model file first.
    assert err == f"pst-evade: error: {model}: {needle}\n"


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_attack_refuses_a_sample_count_below_one(workdir, capsys, samples):
    args = _attack_args(workdir, workdir / "corpus.json", workdir / "model.json",
                        workdir / "pset.json")
    args[args.index("--samples") + 1] = samples
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"pst-evade: error: true-positive count must be >= 1, got {samples}\n")


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


def _first_permission(doc):
    return next(p for p in doc["perturbations"] if p["kind"] == "permission")


def _first_declared(doc):
    return doc["benign"][0]["manifest"]["declared_components"][0]


def _first_payload(doc):
    return next(p["payload"] for p in doc["perturbations"] if p["kind"].startswith("inject_"))


def _first_service(doc):
    return next(p for p in doc["perturbations"] if p["kind"] == "inject_service")


def _first_app_permissions(doc):
    app = next(a for a in doc["benign"] if a["manifest"]["permissions"])
    return app["manifest"]["permissions"]


_SPLIT_ON_A_FLAG = {"leaf": False, "feature": True, "threshold": 0.5,
                    "left": {"leaf": True, "vote": 0}, "right": {"leaf": True, "vote": 1}}
_SPLIT_AT_NAN = {**_SPLIT_ON_A_FLAG, "feature": 0, "threshold": float("nan")}


def _unknown_protection_level(doc):
    doc["permissions"][0][1] = "root"


def _weights_as_strings(model):
    model["params"]["w"] = ["x"] * len(model["params"]["w"])


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
    model.update(space=space, params={"w": [0.0] * width, "b": 0.0},
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


BUNDLED_CATALOG = Path(pst_evade.__file__).parent / "data" / "android_catalog.json"


# case -> (flag, source, change): the flag is given a copy of the source file
# (in the CLI work directory, or the bundled catalog) with the change applied to
# its document; with no source the change is the whole document, and with
# neither the flag is given a directory.
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
    "corpus-benign-number": ("--corpus", "corpus.json", lambda d: d.update(benign=5)),
    "corpus-spec-count-string": ("--corpus", "corpus.json",
                                 lambda d: d["spec"].update(n_benign="x")),
    "corpus-directory": ("--corpus", None, None),
    # Groups and keywords are derived on load, so a file may not give them.
    "pset-perturbation-with-keywords": ("--pset", "pset.json",
                                        lambda d: d["perturbations"][0].update(keywords=[])),
    "pset-with-groups": ("--pset", "pset.json",
                         lambda d: d.update(groups=[{"members": [0], "keywords": []}])),
    "pset-feature-without-prefix": ("--pset", "pset.json",
                                    lambda d: next(p for p in d["perturbations"]
                                                   if p["kind"] == "uses_feature").update(
                                                       payload="nfc")),
    "pset-permission-null-payload": ("--pset", "pset.json",
                                     lambda d: _first_permission(d).update(payload=None)),
    "pset-payload-exported-string": ("--pset", "pset.json",
                                     lambda d: _first_payload(d)["declared"].update(
                                         exported="false")),
    "pset-payload-classes-string": ("--pset", "pset.json",
                                    lambda d: _first_payload(d)["component"].update(
                                        classes="12")),
    "pset-payload-edges-odd-bytes": ("--pset", "pset.json",
                                     lambda d: _first_payload(d)["component"]["edges"].update(
                                         dtype="<u2", data="AAAA")),
    "model-weights-string": ("--model", "model.json",
                             lambda d: d["params"].update(w="abc")),
    "model-weights-list-of-strings": ("--model", "model.json", _weights_as_strings),
    "model-kind-list": ("--model", "model.json", lambda d: d.update(kind=["linear"])),
    "catalog-unknown-protection-level": ("--catalog", BUNDLED_CATALOG,
                                         _unknown_protection_level),
    "catalog-permissions-number": ("--catalog", BUNDLED_CATALOG,
                                   lambda d: d.update(permissions=5)),
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
    "catalog-categories-string": ("--catalog", BUNDLED_CATALOG,
                                  lambda d: d.update(categories="android.intent.category.HOME")),
    "catalog-hardware-features-string": ("--catalog", BUNDLED_CATALOG,
                                         lambda d: d.update(
                                             hardware_features="android.hardware.camera")),
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
    "model-weight-nan": ("--model", "model.json",
                         lambda d: d["params"]["w"].__setitem__(0, float("nan"))),
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
    "pset-payload-declared-kind-bogus": ("--pset", "pset.json",
                                         lambda d: _first_payload(d)["declared"].update(
                                             kind="bogus")),
    "pset-service-declared-activity": ("--pset", "pset.json",
                                       lambda d: _first_service(d)["payload"]["declared"].update(
                                           kind="activity")),
    "pset-provider-carrying-a-service": ("--pset", "pset.json",
                                         lambda d: _first_service(d).update(
                                             kind="inject_provider")),
    # Each of these gave a feature space another size, or a function a family
    # past the last, and loaded.
    "model-markov-family-count-7": ("--model", "model.json",
                                    lambda d: _give_space(d, {"kind": "markov",
                                                              "family_count": 7}, 49)),
    "model-ensemble-member-cluster-count-3": ("--model", "model.json",
                                              _ensemble_member_cluster_count_3),
    "corpus-family-11": ("--corpus", "corpus.json",
                         lambda d: _family_past_the_last(_first_component(d))),
    "pset-payload-family-11": ("--pset", "pset.json",
                               lambda d: _family_past_the_last(_first_payload(d)["component"])),
    # A format-5 pset stored its groups and keywords; ensembles are one level deep.
    "pset-format-5": ("--pset", "pset.json", lambda d: d.update(format=5)),
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
}

# case -> the part of its message that names the field or the fault.
_PROBE_FIELDS = {
    "compare-report-without-grid": "report format 1 is not supported; rerun bench",
    "report-format-1": "report format 1 is not supported; rerun bench",
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
    "corpus-classes-negative": "code component classes is -5, not an integer >= 0",
    "corpus-process-number": "Main: process is 7, not a string or null",
    "corpus-permission-unknown-level": '"bogus"], not a [name, protection level] pair',
    "corpus-permission-string": 'permissions holds "ab", not a [name, protection level] pair',
    "corpus-app-id-number": "app id is 5, not a string",
    "corpus-declared-name-number": "declared component name is 5, not a string",
    "catalog-categories-string": "categories are not a list of strings",
    "catalog-hardware-features-string": "hardware_features are not a list of strings",
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
    "pset-perturbation-with-keywords": "perturbation 0: unknown key 'keywords'",
    "pset-with-groups": "pset: unknown key 'groups'",
    "pset-feature-without-prefix": "feature name lacks a known prefix: nfc",
    "pset-payload-declared-kind-bogus": "kinds disagree: inject_service, declared bogus",
    "pset-service-declared-activity": (
        "kinds disagree: inject_service, declared activity, code service"),
    "pset-provider-carrying-a-service": (
        "kinds disagree: inject_provider, declared service, code service"),
    "model-markov-family-count-7": "space family_count is 7, not 11",
    "model-ensemble-member-cluster-count-3": "cluster_count is 3, not 24",
    "corpus-family-11": "component 0: function family above 10",
    "pset-payload-family-11": ": function family above 10",
    "pset-format-5": "pset format 5 is not supported; rebuild it with build-pset",
    "model-nested-ensemble": (
        "ensemble model: member 0 is an ensemble; ensembles are one level deep"),
    "corpus-benign-app-malicious": (
        "app b000: ground truth malicious in the benign list, which holds benign apps"),
    "corpus-donor-malicious": (
        "app d000: ground truth malicious in the donors list, which holds benign apps"),
    "corpus-repeated-app-id": "app b000: id is not unique",
    "report-repeated-row": (
        "row 1 repeats row 0: one attack per detector, algorithm, budget, seed and sample_id"),
    "model-space-without-kind": "linear model: missing key 'space.kind'",
    "model-cluster-map-without-count": (
        "linear model: missing key 'space.cluster_map.cluster_count'"),
    "model-cluster-map-without-assignment": (
        "linear model: missing key 'space.cluster_map.assignment'"),
}


def _probe_argv(workdir, flag, path):
    """The command line that reads ``path`` through ``flag``, with every other
    input file a good one."""
    if flag in ("--model", "--pset"):
        files = {"--model": workdir / "model.json", "--pset": workdir / "pset.json", flag: path}
        return _attack_args(workdir, workdir / "corpus.json", files["--model"], files["--pset"])
    command, out = {
        "--corpus": ("train", ["--out", str(workdir / "unused.json")]),
        "--catalog": ("build-pset", ["--out", str(workdir / "unused.json")]),
        "--spec": ("gen-corpus", ["--out", str(workdir / "unused.json")]),
        "--config": ("bench", ["--out-dir", str(workdir / "unused_out")]),
        "--reports": ("compare", []),
    }[flag]
    return [command, flag, str(path), *out]


@pytest.mark.parametrize("case", list(_PROBES))
def test_every_malformed_input_file_fails_in_one_line_naming_it(bench_outputs, workdir,
                                                                 capsys, case):
    flag, source, change = _PROBES[case]
    broken = workdir / f"probe-{case}.json"
    if change is None:
        broken.mkdir()
    elif source is None:
        broken.write_text(json.dumps(change))
    else:
        doc = json.loads((workdir / source).read_text())
        change(doc)
        broken.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(_probe_argv(workdir, flag, broken)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pst-evade: error: {broken}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert _PROBE_FIELDS.get(case, "") in err


@pytest.mark.parametrize("command", ["gen-corpus", "train", "attack", "bench"])
def test_a_seed_variable_that_is_not_an_integer_fails_in_one_line(bench_outputs, workdir,
                                                                   capsys, monkeypatch, command):
    unused = str(workdir / "unused.json")
    argv = {
        "gen-corpus": ["gen-corpus", "--spec", str(workdir / "spec.json"), "--out", unused],
        "train": ["train", "--corpus", str(workdir / "corpus.json"), "--out", unused],
        "attack": _attack_args(workdir, workdir / "corpus.json", workdir / "model.json",
                               workdir / "pset.json"),
        "bench": ["bench", "--config", str(workdir / "bench.json"),
                  "--out-dir", str(workdir / "unused_out")],
    }[command]
    monkeypatch.setenv("PST_EVADE_SEED", "abc")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "pst-evade: error: PST_EVADE_SEED is 'abc', not an integer\n"


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
