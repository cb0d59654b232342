import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoctl.cartan import (
    SCREEN_MARGIN,
    _realify,
    _theta_to_plane_dim,
    GapTooSmallError,
    MuVector,
    cartan_mu_batch,
    chamber_exp,
    complex_pm_basis,
    exterior_power,
    flag_of,
    kak,
    mu_gaps,
    root_gaps,
    tag_of,
    witt_pm_basis,
    xi_theta,
)
from anoctl.cli import _group_setup
from anoctl.forms import Frame, dist_projective, make_witt_form, principal_sines
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from conftest import random_orthogonal


def theta(rs, *members):
    return ThetaSet(rs, frozenset(members))


def random_opq_K(rng, p, q):
    c = witt_pm_basis(p, q)
    n = p + q
    blk = np.zeros((n, n))
    blk[:p, :p] = random_orthogonal(rng, p)
    blk[p:, p:] = random_orthogonal(rng, q)
    return c @ blk @ c.T


def opq_chamber(form, lams):
    mu = MuVector("opq", np.asarray(lams, dtype=float))
    return chamber_exp(mu, form)


def random_opq(rng, form, lam_max=2.0):
    """Product of form-preserving rotations and chamber elements."""
    q = form.q
    g = random_opq_K(rng, form.p, form.q)
    for _ in range(2):
        lams = np.sort(rng.uniform(0, lam_max, q))[::-1]
        g = g @ opq_chamber(form, lams) @ random_opq_K(rng, form.p, form.q)
    return g


# ---------------------------------------------------------------------------
# KAK


def test_kak_gl_diagonal():
    t = kak(np.diag([2.0, 0.5]))
    assert np.allclose(t.mu.values, [np.log(2), -np.log(2)])
    assert np.allclose(np.abs(t.k), np.eye(2))
    assert np.allclose(np.abs(t.l), np.eye(2))


def test_kak_gl_random_reconstruction(rng):
    for _ in range(100):
        g = rng.standard_normal((5, 5))
        t = kak(g)
        assert np.linalg.norm(t.reconstruct() - g) < 1e-9 * np.linalg.norm(g)
        assert np.linalg.norm(t.k.T @ t.k - np.eye(5)) < 1e-12
        assert np.all(np.diff(t.mu.values) <= 1e-12)


def test_kak_gl_rejects_singular():
    with pytest.raises(ValueError):
        kak(np.zeros((3, 3)))


def test_kak_opq_chamber_element():
    form = make_witt_form(2, 1)
    g = opq_chamber(form, [1.3])
    t = kak(g, form)
    assert np.allclose(t.mu.values, [1.3])
    assert np.linalg.norm(t.reconstruct() - g) < 1e-12


def test_kak_opq_random_reconstruction(rng):
    form = make_witt_form(3, 2)
    for _ in range(100):
        g = random_opq(rng, form)
        t = kak(g, form)
        assert np.linalg.norm(t.reconstruct() - g, 2) <= 1e-9 * np.linalg.norm(g, 2)
        for m in (t.k, t.l):
            assert np.linalg.norm(m.T @ m - np.eye(5), 2) < 1e-9
            assert np.linalg.norm(m.T @ form.gram @ m - form.gram, 2) < 1e-9


def test_kak_opq_rejects_non_preserving(rng):
    form = make_witt_form(2, 1)
    with pytest.raises(ValueError):
        kak(np.diag([2.0, 1.0, 1.0]), form)


def test_kak_opq_extreme_scale(rng):
    # radius-8 ball of a translation-8 generator reaches exponent 64
    form = make_witt_form(2, 1)
    g = random_opq_K(rng, 2, 1) @ opq_chamber(form, [64.0]) @ random_opq_K(rng, 2, 1)
    t = kak(g, form)
    assert abs(t.mu.values[0] - 64.0) < 1e-9
    assert np.linalg.norm(t.reconstruct() - g, 2) <= 1e-9 * np.linalg.norm(g, 2)
    assert np.linalg.norm(t.k.T @ form.gram @ t.k - form.gram, 2) < 1e-9


def test_kak_onC_reconstruction(rng):
    form = make_witt_form(2, 1, field_tag="complex")
    tmat = complex_pm_basis(3)
    for _ in range(50):
        k1 = tmat @ random_orthogonal(rng, 3) @ tmat.conj().T
        k2 = tmat @ random_orthogonal(rng, 3) @ tmat.conj().T
        lam = rng.uniform(0, 2, 1)
        g = k1 @ chamber_exp(MuVector("onC", lam), form) @ k2
        t = kak(g, form)
        assert np.linalg.norm(t.reconstruct() - g) < 1e-10 * np.linalg.norm(g)
        assert abs(t.mu.values[0] - lam[0]) < 1e-10
        assert np.linalg.norm(t.k.conj().T @ t.k - np.eye(3)) < 1e-10
        assert np.linalg.norm(t.k.T @ form.gram @ t.k - form.gram) < 1e-10


def test_kak_onC_decomposes_the_preset_boosts():
    # the eigen-log of g* g without deflation gave mu = 8.954 for the
    # schottky boost a (norm 8.1e3), failed in eigh on a^2 (norm 6.6e7),
    # and missed the tolerance on mixed-o21's a^3 (norm 403)
    form = make_witt_form(2, 1, field_tag="complex")
    a = schottky_o21()[1][0][1]
    cases = [(a, 9.0), (a @ a, 18.0)]
    b = mixed_o21()[1][0][1]
    cases += [(np.linalg.matrix_power(b, k), 2.0 * k) for k in range(1, 13)]
    for g, mu in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = kak(g, form)
        assert abs(t.mu.values[0] - mu) < 1e-9 * mu
        assert np.linalg.norm(t.reconstruct() - g, 2) <= 1e-9 * np.linalg.norm(g, 2)


def complex_form(n):
    return make_witt_form(n - n // 2, n // 2, field_tag="complex")


def onC_element(n, lams, seed):
    """k1 exp(a(lams)) k2 for random compact k1, k2 of the complex
    orthogonal group of dimension n."""
    rng = np.random.default_rng(seed)
    tmat = complex_pm_basis(n)
    k1, k2 = (tmat @ random_orthogonal(rng, n) @ tmat.conj().T for _ in range(2))
    mu = MuVector("onC", np.asarray(lams, dtype=float))
    return k1 @ chamber_exp(mu, complex_form(n)) @ k2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_kak_onC_against_an_80_digit_svd(n):
    """mu is the log of the top n // 2 singular values of g from an
    80-digit SVD, and exactly 0 where that singular value lies inside
    kak's band about 1; g reconstructs to 1e-9 at norms 1 to 1e12, with
    equal, zero and spread exponents."""
    mpmath = pytest.importorskip("mpmath")
    form, m = complex_form(n), n // 2
    seed = 0
    for top in np.log([1.0, 1e3, 1e6, 1e9, 1e12]):
        for lams in ([top] * m, [top] + [0.0] * (m - 1), np.linspace(top, top / 2, m)):
            seed += 1
            g = onC_element(n, lams, seed)
            t = kak(g, form)
            with mpmath.workdps(80):
                sv = mpmath.svd_c(mpmath.matrix(g.tolist()), compute_uv=False)
                logs = sorted((mpmath.log(x) for x in sv), reverse=True)[:m]
                oracle = np.array([float(x) for x in logs])
            band = 3e6 * np.finfo(float).eps * np.exp(oracle[0])
            inside = oracle < np.log1p(band)
            assert np.all(inside == (np.asarray(lams) == 0.0))
            assert np.all(np.abs(oracle[inside]) < 0.5 * band)
            assert np.all(t.mu.values[inside] == 0.0)
            assert np.all(np.abs(t.mu.values - oracle)[~inside] <= 1e-9)
            assert np.linalg.norm(t.reconstruct() - g, 2) <= 1e-9 * np.linalg.norm(g, 2)
            for f in (t.k, t.l):
                assert np.linalg.norm(f.conj().T @ f - np.eye(n)) < 1e-12
                assert np.linalg.norm(f.T @ form.gram @ f - form.gram) < 1e-12


def test_kak_bi_invariance(rng):
    form = make_witt_form(3, 2)
    g = random_opq(rng, form)
    mu0 = kak(g, form).mu.values
    for _ in range(10):
        k1, k2 = random_opq_K(rng, 3, 2), random_opq_K(rng, 3, 2)
        mu = kak(k1 @ g @ k2, form).mu.values
        assert np.max(np.abs(mu - mu0)) < 1e-9


def test_kak_duality(rng):
    # <alpha, mu(g)> = <alpha-star, mu(g^{-1})>
    rs_a = build_root_system("A", 4)
    for _ in range(50):
        g = rng.standard_normal((5, 5))
        gaps = mu_gaps(kak(g).mu, rs_a)
        gaps_inv = mu_gaps(kak(np.linalg.inv(g)).mu, rs_a)
        for a in range(1, 5):
            assert abs(gaps[a] - gaps_inv[rs_a.opposition[a - 1]]) < 1e-9

    form = make_witt_form(3, 2)
    rs_b = build_root_system("B", 2)
    for _ in range(50):
        g = random_opq(rng, form)
        gaps = mu_gaps(kak(g, form).mu, rs_b)
        gaps_inv = mu_gaps(kak(np.linalg.inv(g), form).mu, rs_b)
        for a in (1, 2):
            assert abs(gaps[a] - gaps_inv[a]) < 1e-9


# ---------------------------------------------------------------------------
# mu and gaps


def test_mu_vector_validation():
    with pytest.raises(ValueError):
        MuVector("gl", np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        MuVector("opq", np.array([1.0, -0.5]))
    MuVector("gl", np.array([1.0, -2.0]))


def test_mu_gaps_examples():
    rs = build_root_system("A", 2)
    gaps = mu_gaps(MuVector("gl", np.array([3.0, 1.0, 0.0])), rs)
    assert gaps == {1: pytest.approx(2.0), 2: pytest.approx(1.0)}

    rs_b = build_root_system("B", 2)
    gaps = mu_gaps(MuVector("opq", np.array([5.0, 2.0])), rs_b)
    assert gaps == {1: pytest.approx(3.0), 2: pytest.approx(2.0)}

    gaps = mu_gaps(MuVector("gl", np.array([2.0, 2.0, 0.0])), rs)
    assert gaps[1] == pytest.approx(0.0)


def test_mu_gaps_type_mismatch():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError, match="gl mu of length 2 needs root system A_1"):
        mu_gaps(MuVector("gl", np.array([1.0, 0.0])), rs)
    with pytest.raises(ValueError, match="opq mu of length 2 needs type B or D of rank 2"):
        mu_gaps(MuVector("opq", np.array([1.0, 0.0])), rs)
    with pytest.raises(ValueError, match="onC mu of length 2 needs type B or D of rank 2"):
        mu_gaps(MuVector("onC", np.array([1.0, 0.0])), build_root_system("B", 3))


def per_root_gaps(mu, rs, tag):
    """The per-root formula that root_gaps replaced: consecutive
    differences for gl, rs.pair_eps for B and D."""
    if tag == "gl":
        return [float(mu[i - 1] - mu[i]) for i in range(1, len(mu))]
    return [rs.pair_eps(i, mu) for i in range(1, rs.rank + 1)]


def random_gl(n, seed, count=40):
    """Gaussian matrices and products U diag(e^x) V with exponents spread
    over [-25, 25]."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal((n, n)) for _ in range(count // 2)]
    for _ in range(count - len(out)):
        logs = np.sort(rng.uniform(-25, 25, n))[::-1]
        out.append(random_orthogonal(rng, n) @ np.diag(np.exp(logs)) @
                   random_orthogonal(rng, n))
    return np.stack(out)


def random_opq_stack(p, q, seed, count=40):
    """Elements of O(p,q) on kak's squared path (products of chamber
    elements with exponents up to 3) and past it (exponents up to 40)."""
    form = make_witt_form(p, q)
    rng = np.random.default_rng(seed)
    mats = [random_opq(rng, form, lam_max=3.0) for _ in range(count // 2)]
    mats += [opq_element(form, np.sort(rng.uniform(0, 40, q))[::-1], seed + j)
             for j in range(count - len(mats))]
    return np.stack(mats), form


def random_onC(n, seed, top, count=40):
    """Elements k exp(a) l of the complex orthogonal group of order n,
    k and l from O(n, R) in the basis complex_pm_basis(n), exponents up
    to top."""
    form = make_witt_form(n - n // 2, n // 2, "complex")
    t = complex_pm_basis(n)
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        lams = np.sort(rng.uniform(0, top, n // 2))[::-1]
        k1, k2 = (t @ random_orthogonal(rng, n) @ t.conj().T for _ in range(2))
        mats.append(k1 @ chamber_exp(MuVector("onC", lams), form) @ k2)
    return np.stack(mats), form


def preset_ball(setup, radius):
    from anoctl.words import enumerate_ball
    form, gens = setup()
    return enumerate_ball(gens, radius).matrices, form


def pingpong_ball():
    from test_cli import pingpong_o32
    return preset_ball(lambda: (make_witt_form(3, 2), pingpong_o32(1)), 5)


GAP_CASES = {
    "schottky-o21": lambda: preset_ball(schottky_o21, 6),
    "mixed-o21": lambda: preset_ball(mixed_o21, 6),
    "pingpong-o32": pingpong_ball,
    "O(2,2)": lambda: random_opq_stack(2, 2, 1),
    "O(3,3)": lambda: random_opq_stack(3, 3, 2),
    "O(5,3)": lambda: random_opq_stack(5, 3, 3),
    **{f"GL({n})": (lambda n=n: (random_gl(n, n), None)) for n in range(2, 6)},
    "O(3,C)": lambda: random_onC(3, 4, 40.0),
    # from order 4 on, kak's onC reconstruction check fails on some
    # elements whose top gap mu_1 - mu_2 exceeds about 18
    "O(4,C)": lambda: random_onC(4, 5, 15.0),
}


@pytest.mark.parametrize("name", list(GAP_CASES))
def test_root_gaps_equal_the_per_root_formula(name):
    # each gap has at most two terms +-mu_j, so the matrix product rounds
    # it once, as the per-root formula does, alone or stacked
    mats, form = GAP_CASES[name]()
    rs, tag = _group_setup(form, mats.shape[-1]), tag_of(form)
    mus = kak(mats, form)[1]
    expected = np.array([per_root_gaps(mu, rs, tag) for mu in mus])
    assert root_gaps(mus, rs, tag).tobytes() == expected.tobytes()
    for dec, row in zip((kak(g, form) for g in mats), expected):
        assert root_gaps(dec.mu.values, rs, tag).tobytes() == row.tobytes()
        assert np.array(list(mu_gaps(dec.mu, rs).values())).tobytes() == row.tobytes()
        assert list(mu_gaps(dec.mu, rs)) == list(range(1, rs.rank + 1))


# ---------------------------------------------------------------------------
# flag maps


def test_xi_theta_base_point():
    rs = build_root_system("A", 2)
    g = np.diag([4.0, 2.0, 1.0])
    for i in (1, 2):
        fr = xi_theta(g, theta(rs, i))
        assert fr.span_equals(Frame.standard(3, list(range(i))))


def test_xi_theta_construction_oracle(rng):
    form = make_witt_form(3, 2)
    rs = build_root_system("B", 2)
    k0 = random_opq_K(rng, 3, 2)
    g = k0 @ opq_chamber(form, [2.0, 1.0])
    flag = xi_theta(g, theta(rs, 1), form)
    expected = Frame.from_spanning(k0[:, :1])
    assert flag.span_equals(expected, 1e-8)


def test_xi_theta_proximal_power_iteration(rng):
    # attracting line of a hyperbolic isometry of O(2,1)
    form = make_witt_form(2, 1)
    rs = build_root_system("B", 1)
    k0 = random_opq_K(rng, 2, 1)
    g = k0 @ opq_chamber(form, [1.0]) @ np.linalg.inv(k0)
    vals, vecs = np.linalg.eig(g)
    top = np.argmax(np.abs(vals))
    eigline = Frame.from_spanning(np.real(vecs[:, top:top + 1]))
    gg = np.linalg.matrix_power(g, 12)
    flag = xi_theta(gg, theta(rs, 1), form)
    assert dist_projective(flag, eigline) < 1e-6


def test_xi_theta_gap_too_small():
    rs = build_root_system("A", 2)
    g = np.diag([2.0, 2.0, 1.0])
    with pytest.raises(GapTooSmallError) as exc:
        xi_theta(g, theta(rs, 1), tol=1e-6)
    assert exc.value.alpha == 1


def test_xi_theta_stability_under_perturbation(rng):
    # with a healthy gap, the flag moves at most proportionally to the
    # perturbation even when non-theta blocks are degenerate
    rs = build_root_system("A", 3)
    k0 = random_orthogonal(rng, 4)
    g = k0 @ np.diag([9.0, 1.0, 1.0, 0.5])  # alpha_2 wall
    base = xi_theta(g, theta(rs, 1))
    for _ in range(10):
        eps = 1e-8
        g2 = g + eps * rng.standard_normal((4, 4))
        moved = xi_theta(g2, theta(rs, 1))
        assert dist_projective(base, moved) < 100 * eps


def test_xi_theta_isotropy_opq(rng):
    form = make_witt_form(3, 2)
    rs = build_root_system("B", 2)
    for _ in range(20):
        g = random_opq(rng, form)
        t = kak(g, form)
        gaps = mu_gaps(t.mu, rs)
        if min(gaps.values()) < 1e-3:
            continue
        for i in (1, 2):
            flag = xi_theta(g, theta(rs, i), form)
            r = flag.columns.T @ form.gram @ flag.columns
            assert np.linalg.norm(r) < 1e-8


def test_xi_theta_onC_realified_flag(rng):
    form = make_witt_form(2, 1, field_tag="complex")
    rs = build_root_system("B", 1)
    g = chamber_exp(MuVector("onC", np.array([1.5])), form)
    flag = xi_theta(g, theta(rs, 1), form)
    assert flag.k == 2 and flag.ambient_dim == 6
    # kernel of the complex form restricted: J-stable by construction
    J = form.j_matrix()
    rotated = Frame.from_spanning(J @ flag.columns)
    assert rotated.span_equals(flag, 1e-8)


def test_flag_of_stack_is_the_one_matrix_rule_per_slice(rng):
    # one stacked call gives each slice the columns of its own one-matrix
    # Frame.from_spanning; an anisotropic or rank-deficient slice raises
    form = make_witt_form(3, 2)
    ks = np.stack([random_opq_K(rng, 3, 2) for _ in range(12)])
    for i in (1, 2):
        stacked = flag_of(ks, i, form)
        for k, cols in zip(ks, stacked):
            assert cols.tobytes() == Frame.from_spanning(k[:, :i]).columns.tobytes()
    onC = make_witt_form(2, 1, "complex")
    decs = [kak(chamber_exp(MuVector("onC", np.array([mu])), onC), onC)
            for mu in (1.5, 2.5)]
    stacked = flag_of(np.stack([d.k for d in decs]), 1, onC)
    assert stacked.shape == (2, 6, 2)
    for dec, cols in zip(decs, stacked):
        realified = Frame.from_spanning(_realify(dec.k[:, :1])).columns
        assert cols.tobytes() == realified.tobytes()
    ks[7] = np.eye(5)[:, [0, 2, 1, 3, 4]]      # e3 is not isotropic
    with pytest.raises(ValueError, match="not isotropic"):
        flag_of(ks, 2, form)
    ks[7, :, 1] = ks[7, :, 0]
    with pytest.raises(ValueError, match="linearly dependent"):
        flag_of(ks, 2, None)


# ---------------------------------------------------------------------------
# exterior powers


def test_exterior_power_identity_cases():
    g = np.arange(9, dtype=float).reshape(3, 3) + np.eye(3)
    assert np.allclose(exterior_power(g, 1), g)
    assert np.allclose(exterior_power(np.diag([1.0, 2.0, 3.0]), 2),
                       np.diag([2.0, 3.0, 6.0]))


def test_exterior_power_functorial(rng):
    g = rng.standard_normal((4, 4))
    h = rng.standard_normal((4, 4))
    for i in (1, 2, 3):
        lhs = exterior_power(g @ h, i)
        rhs = exterior_power(g, i) @ exterior_power(h, i)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1, np.linalg.norm(lhs))


def test_exterior_power_singular_values(rng):
    import itertools
    g = rng.standard_normal((5, 5))
    s = np.linalg.svd(g, compute_uv=False)
    for i in (2, 3):
        si = np.sort(np.linalg.svd(exterior_power(g, i), compute_uv=False))
        products = np.sort([np.prod(c) for c in itertools.combinations(s, i)])
        assert np.max(np.abs(si - products) / products) < 1e-8


def test_exterior_gap_identity(rng):
    # <alpha_1, mu(Lambda^i g)> = <alpha_i, mu(g)>
    rs5 = build_root_system("A", 4)
    for _ in range(30):
        g = rng.standard_normal((5, 5))
        gaps = mu_gaps(kak(g).mu, rs5)
        for i in (1, 2, 3):
            wedge = exterior_power(g, i)
            mu_w = kak(wedge).mu.values
            assert abs((mu_w[0] - mu_w[1]) - gaps[i]) < 1e-8


# ---------------------------------------------------------------------------
# batched Cartan projections


def flag_thetas(rs, form):
    """Every theta that xi_theta supports for the group of rs."""
    if form is not None and form.p == form.q:
        return [theta(rs, i) for i in range(1, rs.rank - 1)] + \
            [theta(rs, rs.rank - 1, rs.rank)]
    return [theta(rs, i) for i in range(1, rs.rank + 1)]


def assert_batch_matches_kak(mats, form=None, flag_tol=np.inf):
    """cartan_mu_batch against kak and xi_theta, element by element: mu
    bit for bit with margin 0 except on kak's squared opq path (spectral
    norm up to 1e6), and within the finite margin there; flags within
    the reported margins, within 1e-12 wherever the margin is at its
    floor, and within flag_tol."""
    rs = _group_setup(form, mats.shape[-1])
    batch = cartan_mu_batch(mats, form)
    assert np.all(np.isfinite(batch.margin))
    approx, slack = batch.gaps(rs)
    tight = SCREEN_MARGIN + 1e-12
    for j, g in enumerate(mats):
        dec = kak(g, form)
        diff = np.abs(batch.mu[j] - dec.mu.values)
        assert np.all(diff <= batch.margin[j]), (j, diff, batch.margin[j])
        assert np.all(diff[batch.margin[j] <= tight] <= 1e-12)
        zero = slack[j] == 0
        exact = np.array(list(mu_gaps(dec.mu, rs).values()))[zero]
        assert np.array_equal(approx[j][zero], exact)
        # which side of 1e6 kak's own s_0 lands on is left to the test
        # of the threshold
        norm = np.linalg.norm(g, 2)
        if form is None or form.is_complex or norm > 1e6 * (1 + 1e-12):
            assert not np.any(batch.margin[j])
            assert batch.mu[j].tobytes() == dec.mu.values.tobytes()
        elif norm < 1e6 * (1 - 1e-12):
            assert np.all(batch.margin[j] > 0)
        gaps = mu_gaps(dec.mu, rs)
        for th in flag_thetas(rs, form):
            if min(gaps[a] for a in th.members) <= 1.0:
                continue
            cols = flag_of(dec.k, _theta_to_plane_dim(th, form), form)
            frame = batch.frames(_theta_to_plane_dim(th, form))[j]
            sine = principal_sines(cols, frame)[-1]
            assert sine <= min(batch.flag_margin[j], flag_tol), (j, sine)
            if batch.flag_margin[j] <= tight:
                assert sine <= 1e-12
    return batch


def test_mu_batch_matches_kak_on_balls():
    from anoctl.presets import mixed_o21, schottky_o21
    from anoctl.words import enumerate_ball
    from test_cli import pingpong_o32
    for setup, radius in ((schottky_o21, 6), (mixed_o21, 5),
                          (lambda: (make_witt_form(3, 2), pingpong_o32(0)), 5)):
        form, gens = setup()
        ball = enumerate_ball(gens, radius)
        assert_batch_matches_kak(ball.matrices, form)


def test_mu_batch_matches_kak_on_onC_balls():
    """onC's batch takes kak's onC SVD and band rule: the same mu bit for
    bit with margin 0, and frames that span kak's flags, for which it
    claims no bound."""
    from anoctl.words import enumerate_ball
    form = make_witt_form(2, 1, "complex")
    for setup, radius in ((schottky_o21, 4), (mixed_o21, 5)):
        ball = enumerate_ball(setup()[1], radius)
        # measured up to 1.9e-15
        batch = assert_batch_matches_kak(ball.matrices, form, flag_tol=1e-12)
        assert np.all(np.isinf(batch.flag_margin))
        assert batch.frames(1).shape == (len(ball), 6, 2)
    # elements of norm about 1 sit within a relative 1e-9 of the band
    # rule's threshold, and are decided as kak decides them
    ball = enumerate_ball(mixed_o21()[1], 6)
    batch = cartan_mu_batch(ball.matrices, form)
    assert not np.any(batch.margin)
    assert batch.mu.tobytes() == kak(ball.matrices, form)[1].tobytes()


def opq_element(form, lams, seed):
    rng = np.random.default_rng(seed)
    return random_opq_K(rng, form.p, form.q) @ opq_chamber(form, lams) @ \
        random_opq_K(rng, form.p, form.q)


# top exponents below, around and above log(1e6), where kak's opq path switches
# from the squared matrix to the SVD of g itself
TOP_EXPONENTS = st.one_of(st.floats(0.0, 13.0),
                          st.floats(np.log(1e6) - 1e-3, np.log(1e6) + 1e-3),
                          st.floats(14.0, 60.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(top=TOP_EXPONENTS, fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mu_batch_parity_o21_o32(top, fraction, seed):
    assert_batch_matches_kak(opq_element(make_witt_form(2, 1), [top], seed)[None],
                             make_witt_form(2, 1))
    form = make_witt_form(3, 2)
    assert_batch_matches_kak(
        opq_element(form, [top, fraction * top], seed)[None], form)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(top=st.floats(14.0, 60.0), offset=st.floats(-1e-6, 1e-6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mu_batch_parity_near_the_band(top, offset, seed):
    # second singular value at kak's opq cutoff 1 + band for ||g|| = e^top
    band = max(1e-4, 3e6 * np.finfo(float).eps * np.exp(top))
    form = make_witt_form(3, 2)
    second = min(np.log1p(band) + offset, top)
    assert_batch_matches_kak(opq_element(form, [top, second], seed)[None], form)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), spread=st.floats(0.0, 30.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mu_batch_parity_gl(n, spread, seed):
    rng = np.random.default_rng(seed)
    logs = np.sort(rng.uniform(-spread, spread, n))[::-1]
    g = random_orthogonal(rng, n) @ np.diag(np.exp(logs)) @ random_orthogonal(rng, n)
    assert_batch_matches_kak(g[None])


def test_mu_batch_is_exact_at_the_scale_thresholds():
    """Where kak's own SVD is at its path switch or its band rule, the
    batch takes the same side: margin 0 and kak's bits off the squared
    path, a finite margin on it."""
    form = make_witt_form(3, 2)
    c = witt_pm_basis(3, 2)
    band = 3e6 * np.finfo(float).eps * np.exp(30.0)
    # spectral norm 1e6 (exactly, up to rounding), a second singular value
    # at 1 + band, and an exponent below the band, where the squared path
    # (norm 100) reads its log and the SVD path 0
    mats = np.stack([opq_chamber(form, [np.log(1e6), 1.0])] +
                    [opq_element(form, [np.log(1e6) + d, 1.0], 0)
                     for d in (-2e-16, 0.0, 2e-16, 1e-15)] +
                    [opq_element(form, [np.log(100.0), 5e-8], 0)] +
                    [opq_element(form, [30.0, np.log1p(band)], seed)
                     for seed in range(3)] +
                    [opq_chamber(form, [30.0, 1e-3])])
    batch = assert_batch_matches_kak(mats, form)
    mus = kak(mats, form)[1]
    squared = np.linalg.svd(c.T @ mats @ c)[1][:, 0] <= 1e6
    assert squared.any() and not squared.all()
    for j, mu in enumerate(mus):
        if squared[j]:
            assert np.all(np.isfinite(batch.margin[j]) & (batch.margin[j] > 0))
        else:
            assert not np.any(batch.margin[j])
            assert batch.mu[j].tobytes() == mu.tobytes()
    assert batch.mu[-1, 1] == 0.0
    # a batch whose margins are inf settles no gap (no 0 * inf = nan)
    blind = dataclasses.replace(batch, margin=np.full_like(batch.margin, np.inf))
    assert np.all(np.isinf(blind.gaps(build_root_system("B", 2))[1]))


def test_form_check_decides_and_reports_the_spectral_defect():
    """The Frobenius norm only clears rows: a defect of spectral norm
    0.8e-8 (Frobenius 1.4e-8) passes the 1e-8 limit, and a rejected
    matrix prints its spectral defect (the Frobenius ones would be 2.60e-08
    and 5.20e+00)."""
    form = make_witt_form(2, 1)
    member = np.sqrt(1 + 0.8e-8) * np.eye(3)
    for bad, defect in ((np.sqrt(1 + 1.5e-8), "1.50e-08"), (2.0, "3.00e+00")):
        for call in (kak, cartan_mu_batch):
            with pytest.raises(ValueError, match=re.escape(f"form (defect {defect})")):
                call(np.stack([member, bad * np.eye(3), member]), form)
    assert cartan_mu_batch(np.stack([member] * 3), form).mu.shape == (3, 1)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_form_check_does_not_overflow(field):
    """The form check compares |g^T G g - G| with 1e-8 |g|^2 on scaled
    operands: 1e200 I fails it and diag(1e200, 1, 1e-200) passes, both
    without a numpy warning."""
    form = make_witt_form(2, 1, field)
    member = np.diag([1e200, 1.0, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda g: kak(g, form), lambda g: cartan_mu_batch(g[None], form)):
            with pytest.raises(ValueError, match="does not preserve the form"):
                call(1e200 * np.eye(3))
        dec = kak(member, form)
        batch = cartan_mu_batch(member[None], form)
    assert dec.mu.values[0] == pytest.approx(200 * np.log(10.0), rel=1e-15)
    assert batch.mu[0].tobytes() == dec.mu.values.tobytes()
    assert not np.any(batch.margin)
    assert np.linalg.norm(dec.reconstruct() - member, 2) <= 1e-9 * 1e200


def kak_error(g, form=None):
    with pytest.raises(ValueError) as exc:
        kak(g, form)
    return str(exc.value)


@pytest.mark.parametrize("bad", [
    np.diag([np.nan, 1.0, 1.0]),
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([2.0, 1.0, 1.0]),
])
def test_mu_batch_raises_kak_error_of_first_offender(bad):
    form = make_witt_form(2, 1)
    good = opq_chamber(form, [2.0])
    non_preserving = np.diag([3.0, 1.0, 1.0])
    stack = np.stack([good, bad, non_preserving, np.diag([np.nan] * 3)])
    with pytest.raises(ValueError) as exc:
        cartan_mu_batch(stack, form)
    assert str(exc.value) == kak_error(bad, form)


@pytest.mark.parametrize("bad", [
    np.zeros((3, 3)),
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([np.nan, 1.0, 1.0]),
])
def test_mu_batch_gl_raises_kak_error_of_first_offender(bad):
    stack = np.stack([np.eye(3), bad, np.ones((3, 3)), np.diag([np.inf] * 3)])
    with pytest.raises(ValueError) as exc:
        cartan_mu_batch(stack)
    assert str(exc.value) == kak_error(bad)
