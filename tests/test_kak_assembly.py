"""kak's opq assembly calls LAPACK only for answers it keeps: no full SVD
completes a block whose every slot is known, a working block's spectral
norm comes from its eigh (an SVD only inside the rounding band of
_reciprocal_log's bound), and a 1 x 1 polar factor is its sign.  Each
cut keeps every bit: the census below counts the calls, and the edge
tests compare the cut rules with the SVD rules they replace."""

import sys

import numpy as np
import pytest

from anoctl import cartan
from anoctl.cartan import kak, witt_pm_basis
from anoctl.forms import make_witt_form
from anoctl.limits import sample_limit_set
from anoctl.presets import mixed_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball
from test_cartan import random_opq_K
from test_cli import pingpong_o32


def _within(name):
    """Whether a function called ``name`` is on the caller's stack."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name == name:
            return True
        frame = frame.f_back
    return False


class Census:
    """The stacked SVDs that np.linalg.svd and np.linalg.norm(., 2) run:
    ``svd`` holds (inside _complete_orthogonal, shape, full_matrices),
    ``norms`` the spectral norms taken inside _reciprocal_log."""

    def __init__(self, monkeypatch):
        self.svd, self.norms = [], []
        from numpy.linalg import _linalg
        svd, svd_norm = np.linalg.svd, _linalg._multi_svd_norm

        def counted_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
            self.svd.append((_within("_complete_orthogonal"), np.shape(a), full_matrices))
            return svd(a, full_matrices, compute_uv, hermitian)

        def counted_norm(x, *args, **kwargs):
            out = svd_norm(x, *args, **kwargs)
            if _within("_reciprocal_log"):
                self.norms.append((x.shape[-1], np.atleast_1d(out).copy()))
            return out
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(_linalg, "_multi_svd_norm", counted_norm)

    def rows(self):
        return sum(int(np.prod(shape[:-2])) for _, shape, _ in self.svd)


def _sampler_rows(build, radius, kak_calls):
    """The ball and form of a preset, and the rows its sampler decomposes."""
    form, gens = build()
    ball = enumerate_ball(gens, radius)
    rs = build_root_system("B" if form.p > form.q else "D", form.q)
    sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    return ball, form, sorted(kak_calls.decomposed(ball))


@pytest.mark.parametrize("build, radius, path", [
    (lambda: (make_witt_form(3, 2), pingpong_o32(0)), 6, "extreme"),
    (mixed_o21, 7, "moderate"),
], ids=["pingpong-o32", "mixed-o21"])
def test_assembly_skips_the_svds_it_would_throw_away(build, radius, path, kak_calls,
                                                      monkeypatch):
    ball, form, rows = _sampler_rows(build, radius, kak_calls)
    # the share of rows on the moderate path (pingpong-o32's few are short words)
    share = np.mean(ball.cartan_batch(form).front.s[rows, 0] <= cartan._MODERATE_NORM)
    assert share == 1.0 if path == "moderate" else share < 0.05
    census = Census(monkeypatch)
    ball.kak(rows, form)
    assert census.rows() > 0
    # complement SVDs of blocks with no missing slot (square input), 1 x 1
    # SVDs, and spectral-norm SVDs outside the rounding band of the bound
    complements = [shape for inside, shape, full in census.svd
                   if inside and full and shape[-2] == shape[-1]]
    one_by_one = [shape for _, shape, _ in census.svd if shape[-2:] == (1, 1)]
    eps = np.finfo(float).eps
    outside = [int(np.sum(np.abs(norms - 1e6) > cartan._NORM_BAND * k * eps * 1e6))
               for k, norms in census.norms]
    assert (complements, one_by_one, sum(outside)) == ([], [], 0)


# ---------------------------------------------------------------------------
# the cut rules at their edges


SIGNED_EDGES = [0.0, 5e-324, 1e-300, 1e300, np.finfo(float).tiny, np.finfo(float).max]


@pytest.mark.parametrize("full_matrices", [True, False])
def test_a_1x1_polar_factor_is_the_svds_bit_for_bit(full_matrices):
    rng = np.random.default_rng(11)
    draws = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-300, 300, 4000)
    x = np.concatenate([SIGNED_EDGES, np.negative(SIGNED_EDGES), draws])[:, None, None]
    uu, _, vvt = np.linalg.svd(x, full_matrices=full_matrices)
    assert cartan._polar(x, full_matrices).tobytes() == (uu @ vvt).tobytes()


def svd_norm_rule(mw, vals):
    """_reciprocal_log's verdict before it read the eigenvalues: the SVD
    spectral norm of every working block against 1e6."""
    return np.linalg.norm(mw, 2, axis=(1, 2)) <= 1e6


def edge_elements(form, rng):
    """Elements of O(p, q), q <= 2, whose g^T g has the eigenvalue
    fl(x^2) = 1e6 + j ulp(1e6), for j within a few ulps of 0 and just
    outside _final_blocks's band: as the top eigenvalue (the first
    working block), and for q = 2 as the second (the block left after
    one peel).  Each is the Witt-basis chamber element diag(x, .., 1/x)
    and three conjugates of it by compact elements."""
    ulp = np.spacing(1e6)
    edges = [np.sqrt(1e6 + j * ulp) for j in [*range(-6, 7), -400, -200, 200, 400]]
    tops = [[x] + [2.0] * (form.q - 1) for x in edges]
    if form.q == 2:
        tops += [[8000.0, x] for x in edges]
    out = []
    for xs in tops:
        a = np.diag(xs + [1.0] * (form.p - form.q) + [1.0 / x for x in xs[::-1]])
        out.append(a)
        for _ in range(3):
            out.append(random_opq_K(rng, form.p, form.q) @ a @
                       random_opq_K(rng, form.p, form.q))
    return np.stack(out)


def working_blocks(m, ipq, rule):
    """Every (mw, vals) that _reciprocal_log passes to its rule on m."""
    seen = []

    def recording(mw, vals):
        seen.append((mw.copy(), vals.copy()))
        return rule(mw, vals)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cartan, "_final_blocks", recording)
        cartan._reciprocal_log(m, ipq)
    return seen


@pytest.mark.parametrize("pq", [(2, 1), (3, 2)])
def test_reciprocal_log_keeps_the_svd_norms_verdicts_at_1e6(pq, monkeypatch):
    form = make_witt_form(*pq)
    g = edge_elements(form, np.random.default_rng(sum(pq)))
    c = witt_pm_basis(*pq)
    gp = c.T @ g @ c
    m = np.swapaxes(gp, 1, 2) @ gp
    m = 0.5 * (m + np.swapaxes(m, 1, 2))
    ipq = np.diag([1.0] * form.p + [-1.0] * form.q)
    blocks = working_blocks(m, ipq, svd_norm_rule)
    # the edge is crossed: SVD norms at 1e6 or a few ulps below, and above
    ulps = np.concatenate([np.linalg.norm(mw, 2, axis=(1, 2)) - 1e6
                           for mw, _ in blocks]) / np.spacing(1e6)
    assert np.any((-8 <= ulps) & (ulps <= 0)) and np.any((0 < ulps) & (ulps <= 8))
    for mw, vals in blocks:
        assert np.array_equal(cartan._final_blocks(mw, vals), svd_norm_rule(mw, vals))
    cut = cartan._reciprocal_log(m, ipq)
    cut_kak = kak(g, form)
    monkeypatch.setattr(cartan, "_final_blocks", svd_norm_rule)
    assert cut.tobytes() == cartan._reciprocal_log(m, ipq).tobytes()
    for a, b in zip(cut_kak, kak(g, form)):
        assert a.tobytes() == b.tobytes()
