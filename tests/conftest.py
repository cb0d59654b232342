import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_orthogonal(rng, n):
    """Haar-ish orthogonal matrix via QR of a Gaussian."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def limit_sample(columns, words, theta=None, form=None):
    """A LimitSample whose rows are the given flag columns (N, n, k) and
    words, each at word length 1 with gap 2.0."""
    from anoctl.limits import LimitSample
    return LimitSample(list(words), np.ones(len(words), dtype=int),
                       np.full(len(words), 2.0), np.asarray(columns, dtype=float),
                       theta, form)
