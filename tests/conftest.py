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


class KakCalls(list):
    """The calls of GroupBall.kak, the stacked kak of the ball's kept
    front, in call order: each a (ball, indices) pair, the indices being
    the rows handed to it."""

    def rows(self, ball):
        """The indices of each call on ``ball``, one list per call."""
        return [rows for b, rows in self if b is ball]

    def decomposed(self, ball):
        """The ball indices decomposed, in call order, each as often as
        it went through kak."""
        return [i for call in self.rows(ball) for i in call]


@pytest.fixture
def kak_calls(monkeypatch):
    """Records every GroupBall.kak call (the ball decomposes no element
    any other way)."""
    from anoctl.words import GroupBall

    calls = KakCalls()
    kak = GroupBall.kak

    def recording(ball, indices, form=None):
        calls.append((ball, np.asarray(indices, dtype=int).tolist()))
        return kak(ball, indices, form)
    monkeypatch.setattr(GroupBall, "kak", recording)
    return calls
