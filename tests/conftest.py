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
    """The matrix stacks (m, n, n) that the ball and the limit sampler
    hand to kak, one per call, in call order."""

    def rows(self, ball):
        """Each call's matrices as indices into the ball (its matrices
        are distinct), one list per call."""
        index = {m.tobytes(): i for i, m in enumerate(ball.matrices)}
        return [[index[m.tobytes()] for m in stack] for stack in self]

    def decomposed(self, ball):
        """The ball indices decomposed, in call order, each as often as
        it went through kak."""
        return [i for call in self.rows(ball) for i in call]


@pytest.fixture
def kak_calls(monkeypatch):
    """Records every kak call of anoctl.words and anoctl.limits."""
    import anoctl.limits
    import anoctl.words
    from anoctl.cartan import kak

    calls = KakCalls()

    def recording(g, form=None):
        calls.append(np.asarray(g).reshape((-1,) + np.shape(g)[-2:]))
        return kak(g, form)
    for module in (anoctl.words, anoctl.limits):
        monkeypatch.setattr(module, "kak", recording)
    return calls
