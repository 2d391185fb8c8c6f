"""Pinned features: the dense binary, Markov and api_cluster features of every
app in the small corpus hash to a fixed digest, so a change to the app model's
storage cannot shift a feature value unnoticed."""
import hashlib

import numpy as np

from pst_evade.harness import _featurize

SMALL_CORPUS_FEATURE_DIGEST = "cd986e8c3ee345b52454182bbdfaa89c31ab23711f1ad146c1bfec934f8b86ed"


def feature_digest(corpus, seed=0):
    """sha256 over each feature kind's (apps x features) float64 matrix, with the
    apps in corpus order (benign, malicious, donors) and each space built as
    detector training builds it."""
    apps = corpus.benign + corpus.malicious + corpus.donors
    h = hashlib.sha256()
    for kind in ("binary", "markov", "api_cluster"):
        _, dense = _featurize(kind, apps, corpus, seed)
        h.update(kind.encode())
        h.update(np.asarray(dense.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dense).tobytes())
    return h.hexdigest()


def test_small_corpus_features_are_pinned(small_corpus):
    assert feature_digest(small_corpus) == SMALL_CORPUS_FEATURE_DIGEST
