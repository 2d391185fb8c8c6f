import pytest

from pst_evade.catalog import load_default_catalog
from pst_evade.corpus import CorpusSpec, generate_corpus
from pst_evade.perturbset import build_perturbation_set


@pytest.fixture(scope="session")
def small_corpus():
    # Small but structurally complete: both classes, donors, full catalog pools.
    spec = CorpusSpec(n_benign=60, n_malicious=60, donor_count=12, seed=11)
    return generate_corpus(spec)


@pytest.fixture(scope="session")
def donor_corpus():
    # Reference-scale donor pool; tiny labeled split to keep generation fast.
    spec = CorpusSpec(n_benign=2, n_malicious=2, donor_count=100, seed=7)
    return generate_corpus(spec)


@pytest.fixture(scope="session")
def full_pset(donor_corpus):
    return build_perturbation_set(load_default_catalog(), donor_corpus.donors)


@pytest.fixture(scope="session")
def attack_setup(small_corpus):
    """(model, pset, true_positives): a trained linear detector over the small
    corpus plus its perturbation set and detected malicious test samples."""
    import numpy as np

    from pst_evade import detectors as det
    from pst_evade.features import build_vocab

    train, test = small_corpus.train_test_split()
    space = det.FeatureSpace("binary", keys=build_vocab(train))
    x = np.stack([space.extract(a) for a in train])
    labels = [a.ground_truth for a in train]
    model = det.train("linear", space, x, labels, seed=3)
    pset = build_perturbation_set(load_default_catalog(), small_corpus.donors)
    tps = [a for a in test
           if a.ground_truth == "malicious" and det.query(model, a).label == "malicious"]
    assert len(tps) >= 5
    return model, pset, tps
