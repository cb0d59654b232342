import json
from itertools import chain, cycle, islice, repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anoctl import forms
from anoctl.forms import (
    DEFAULT_TOL,
    Frame,
    Records,
    WittForm,
    check_isotropic,
    check_orthonormal,
    contains,
    dist_grassmann,
    dist_projective,
    dist_to_incidence,
    dump_json,
    intersects,
    make_witt_form,
    matrix_from_json,
    matrix_to_json,
    orthogonal_complement,
    orthonormalize,
    principal_sines,
    push_forward,
    restrict,
    restrict_kernel,
    signature,
    subspace_sum_rank,
)
from conftest import random_orthogonal


def line(*coords):
    v = np.asarray(coords, dtype=float)
    return Frame(v[:, None] / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Witt forms and signatures


def test_make_witt_form_21_gram():
    f = make_witt_form(2, 1)
    assert np.array_equal(f.gram, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_make_witt_form_definite():
    assert np.array_equal(make_witt_form(1, 0).gram, [[1.0]])


def test_make_witt_form_32_signature_eigen_oracle():
    f = make_witt_form(3, 2)
    w = np.linalg.eigvalsh(f.gram)
    assert int(np.sum(w > 1e-12)) == 3
    assert int(np.sum(w < -1e-12)) == 2


def test_make_witt_form_rejects_p_less_than_q():
    with pytest.raises(ValueError):
        make_witt_form(1, 2)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 7) for q in range(1, p + 1)])
def test_signature_of_witt_forms(p, q):
    f = make_witt_form(p, q)
    assert signature(f.gram, 1e-12) == (p, q, 0)


def test_signature_examples():
    assert signature(np.eye(3), 1e-12) == (3, 0, 0)
    assert signature(make_witt_form(2, 1).gram, 1e-12) == (2, 1, 0)
    assert signature(np.zeros((2, 2)), 1e-12) == (0, 0, 2)


def test_signature_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        signature(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)


def test_wittform_validates_signature():
    with pytest.raises(ValueError):
        WittForm(2, 1, np.eye(3))


# ---------------------------------------------------------------------------
# restriction and kernels


def test_restrict_kernel_negative_line():
    f = make_witt_form(2, 1)
    w = line(1, 0, -1)
    restricted, kernel = restrict_kernel(f, w)
    # b(e1 - e3, e1 - e3) = -2, normalized frame gives -1
    assert restricted.shape == (1, 1)
    assert abs(restricted[0, 0] + 1.0) < 1e-12
    assert kernel.k == 0


def test_restrict_kernel_isotropic_line():
    f = make_witt_form(2, 1)
    w = Frame.standard(3, [0])
    restricted, kernel = restrict_kernel(f, w)
    assert abs(restricted[0, 0]) < 1e-12
    assert kernel.k == 1
    assert kernel.span_equals(w)


def test_restrict_kernel_negative_definite_plane(rng):
    # sample a plane inside the negative eigenspace, Gram-Schmidt style
    f = make_witt_form(3, 2)
    vals, vecs = np.linalg.eigh(f.gram)
    neg = vecs[:, vals < 0]
    w = Frame.from_spanning(neg @ rng.standard_normal((2, 2)))
    restricted, kernel = restrict_kernel(f, w)
    assert np.all(np.linalg.eigvalsh(restricted) < -1e-6)
    assert kernel.k == 0


# ---------------------------------------------------------------------------
# distances


def test_dist_projective_examples():
    e1, e2 = Frame.standard(3, [0]), Frame.standard(3, [1])
    assert dist_projective(e1, e1) == 0.0
    assert abs(dist_projective(e1, e2) - 1.0) < 1e-15
    diag = line(1, 1, 0)
    assert abs(dist_projective(e1, diag) - np.sqrt(2) / 2) < 1e-12


def test_dist_projective_sign_invariance_and_symmetry(rng):
    for _ in range(50):
        u = line(*rng.standard_normal(4))
        v = line(*rng.standard_normal(4))
        d = dist_projective(u, v)
        assert abs(d - dist_projective(v, u)) < 1e-12
        assert abs(d - dist_projective(Frame(-u.columns), v)) < 1e-12
        assert -1e-15 <= d <= 1.0


def test_dist_projective_triangle_inequality(rng):
    for _ in range(200):
        a, b, c = (line(*rng.standard_normal(3)) for _ in range(3))
        assert dist_projective(a, c) <= dist_projective(a, b) + dist_projective(b, c) + 1e-10


def test_dist_projective_small_angle_accuracy():
    eps = 1e-9
    v = line(1.0, eps, 0.0)
    d = dist_projective(Frame.standard(3, [0]), v)
    assert abs(d - eps) < 1e-15


def grid_hausdorff(w1, w2, steps=2000):
    """Brute-force Hausdorff distance between projectivized 2-planes."""
    def directions(w):
        t = np.linspace(0, np.pi, steps, endpoint=False)
        return w.columns @ np.vstack([np.cos(t), np.sin(t)])

    d1, d2 = directions(w1), directions(w2)

    def one_sided(a, b):
        # min over b of sin angle, max over a
        cos = np.abs(a.T @ b)
        cos = np.clip(cos, 0, 1)
        return np.max(np.sqrt(1 - np.max(cos, axis=1) ** 2))

    return max(one_sided(d1, d2), one_sided(d2, d1))


def test_dist_grassmann_examples(rng):
    w = Frame.standard(3, [0, 1])
    assert dist_grassmann(w, w) == 0.0
    w2 = Frame.standard(3, [0, 2])
    assert abs(dist_grassmann(w, w2) - 1.0) < 1e-12
    assert abs(grid_hausdorff(w, w2) - 1.0) < 1e-3


def test_dist_grassmann_matches_grid_oracle(rng):
    for _ in range(5):
        w1 = Frame.from_spanning(rng.standard_normal((4, 2)))
        w2 = Frame.from_spanning(rng.standard_normal((4, 2)))
        exact = dist_grassmann(w1, w2)
        approx = grid_hausdorff(w1, w2)
        assert abs(exact - approx) < 5e-3


def test_dist_grassmann_orthogonal_invariance(rng):
    w1 = Frame.from_spanning(rng.standard_normal((5, 2)))
    w2 = Frame.from_spanning(rng.standard_normal((5, 2)))
    k = random_orthogonal(rng, 5)
    d = dist_grassmann(w1, w2)
    dk = dist_grassmann(Frame(k @ w1.columns), Frame(k @ w2.columns))
    assert abs(d - dk) < 1e-10


def test_dist_to_incidence_trivial_cases():
    w = Frame.standard(4, [0, 1])
    assert dist_to_incidence(w, Frame.standard(4, [0])) < 1e-15
    assert abs(dist_to_incidence(w, Frame.standard(4, [2])) - 1.0) < 1e-15


def test_dist_to_incidence_matches_grid_over_lines(rng):
    # grid oracle: minimize dist_projective(l, .) over sampled lines of w
    for _ in range(5):
        w = Frame.from_spanning(rng.standard_normal((5, 2)))
        l = line(*rng.standard_normal(5))
        t = np.linspace(0, np.pi, 30000, endpoint=False)
        dirs = w.columns @ np.vstack([np.cos(t), np.sin(t)])
        cos = np.clip(np.abs(dirs.T @ l.columns[:, 0]), 0, 1)
        approx = np.min(np.sqrt(1 - cos**2))
        assert abs(dist_to_incidence(w, l) - approx) < 1e-6


def test_incidence_identity_against_grassmann_distance(rng):
    # dist_to_incidence(w, l) = inf over planes w' containing l of
    # dist_grassmann(w, w'); the infimum is attained by replacing the
    # farthest principal direction of w with l.
    for _ in range(10):
        w = Frame.from_spanning(rng.standard_normal((5, 2)))
        l = line(*rng.standard_normal(5))
        d = dist_to_incidence(w, l)
        # constructive minimizer: swap the principal direction of w nearest
        # to l for l itself, keeping the rest of w
        proj = w.columns @ (w.columns.T @ l.columns)
        if np.linalg.norm(proj) > 1e-12:
            closest = Frame.from_spanning(proj)
            rest = Frame.from_spanning(
                w.columns - closest.columns @ (closest.columns.T @ w.columns))
            wprime = Frame.from_spanning(np.hstack([l.columns, rest.columns]))
            assert abs(dist_grassmann(w, wprime) - d) < 1e-9
        # random planes through l are never closer
        for _ in range(20):
            extra = rng.standard_normal((5, 1))
            wprime = Frame.from_spanning(np.hstack([l.columns, extra]))
            assert dist_grassmann(w, wprime) >= d - 1e-10


def test_intersects_contains_trivial():
    l = Frame.standard(3, [0])
    w = Frame.standard(3, [0, 1])
    other = Frame.standard(3, [1, 2])
    assert intersects(l, w, 1e-9) and contains(l, w, 1e-9)
    assert not intersects(l, other, 1e-9) and not contains(l, other, 1e-9)


def random_isotropic_line(rng, form):
    """Uniform-ish isotropic line: positive unit + negative unit direction."""
    vals, vecs = np.linalg.eigh(form.gram)
    neg, pos = vecs[:, vals < 0], vecs[:, vals > 0]
    a = pos @ rng.standard_normal(pos.shape[1])
    b = neg @ rng.standard_normal(neg.shape[1])
    a /= np.sqrt(a @ form.gram @ a)
    b /= np.sqrt(-(b @ form.gram @ b))
    return Frame.from_spanning(a + b)


def random_nonpositive_plane(rng, form, q, boundary=False):
    """Random q-plane with nonpositive restriction (rejection sampling,
    one try at a time), or a plane through an isotropic line when
    boundary=True."""
    n = form.n
    if boundary:
        l = random_isotropic_line(rng, form)
        perp = orthogonal_complement(form, l)
        for _ in range(500):
            w = Frame.from_spanning(
                np.hstack([l.columns, perp.columns @ rng.standard_normal((perp.k, q - 1))]))
            if w.k != q:
                continue
            vals = np.linalg.eigvalsh(w.columns.T @ form.gram @ w.columns)
            if np.max(vals) <= 1e-10:
                return w
    for _ in range(5000):
        x = rng.standard_normal((n, q))
        # a column with x^T G x > 0 is a positive vector of the span, so
        # by Sylvester's law of inertia W^T G W has a positive Rayleigh
        # quotient and the test below rejects it too: skip its SVD
        if np.any(np.sum(x * (form.gram @ x), axis=0) > 0):
            continue
        w = Frame.from_spanning(x)
        vals = np.linalg.eigvalsh(w.columns.T @ form.gram @ w.columns)
        if np.max(vals) < -1e-8:
            return w
    raise RuntimeError("sampling failed")


def test_nonpositive_planes_skip_only_draws_the_full_test_rejects():
    # the same planes and rng state as the one-try loop that spans every
    # draw before testing it
    def one_try_plane(rng, form, q):
        for _ in range(5000):
            w = Frame.from_spanning(rng.standard_normal((form.n, q)))
            if np.max(np.linalg.eigvalsh(w.columns.T @ form.gram @ w.columns)) < -1e-8:
                return w
        raise RuntimeError("sampling failed")

    form = make_witt_form(3, 2)
    fast, slow = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(500):
        assert np.array_equal(random_nonpositive_plane(fast, form, 2).columns,
                              one_try_plane(slow, form, 2).columns)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_incidence_lemma_equivalence_randomized(rng):
    # L isotropic line, W nonpositive 2-plane in signature (3, 2):
    # L meets W  <=>  W + L-perp is not everything.
    f = make_witt_form(3, 2)
    violations = 0
    for trial in range(500):
        l = random_isotropic_line(rng, f)
        w = random_nonpositive_plane(rng, f, 2, boundary=(trial % 2 == 0))
        if trial % 4 == 0:
            # force incidence through the kernel direction when present
            _, kernel = restrict_kernel(f, w)
            if kernel.k:
                l = Frame(kernel.columns[:, :1])
        meets = intersects(l, w, 1e-9)
        rank = subspace_sum_rank([w, orthogonal_complement(f, l)], 1e-9)
        if meets != (rank < 5):
            violations += 1
    assert violations == 0


def test_null_vectors_lie_in_kernel_and_orthogonal_isotropics_lie_in_w(rng):
    f = make_witt_form(3, 2)
    for _ in range(100):
        w = random_nonpositive_plane(rng, f, 2, boundary=True)
        restricted, kernel = restrict_kernel(f, w, 1e-9)
        # every y in W with b(y,y) ~ 0 lies in the kernel
        vals, vecs = np.linalg.eigh(restricted)
        for j in range(2):
            if abs(vals[j]) < 1e-9:
                y = Frame(w.columns @ vecs[:, j:j + 1])
                assert contains(y, kernel, 1e-7)
        # every isotropic y b-orthogonal to W lies in W
        perp = orthogonal_complement(f, w)
        rperp = perp.columns.T @ f.gram @ perp.columns
        pvals, pvecs = np.linalg.eigh(0.5 * (rperp + rperp.T))
        if pvals[0] < -1e-8 and pvals[-1] > 1e-8:
            a = perp.columns @ pvecs[:, -1] / np.sqrt(pvals[-1])
            b = perp.columns @ pvecs[:, 0] / np.sqrt(-pvals[0])
            y = Frame.from_spanning(a + b)
            assert abs(float(y.columns[:, 0] @ f.gram @ y.columns[:, 0])) < 1e-8
            assert contains(y, w, 1e-6)


# ---------------------------------------------------------------------------
# frames, flags, serialization


def test_frame_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_frame_orthonormality_is_decided_by_the_spectral_norm():
    # C^T C - I = 0.8e-10 I: Frobenius norm 1.6e-10, spectral 0.8e-10
    Frame(np.eye(4) * np.sqrt(1 + 0.8e-10))
    with pytest.raises(ValueError, match=r"defect 1\.20e-10"):
        Frame(np.eye(4) * np.sqrt(1 + 1.2e-10))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_frame_rejects_a_non_finite_column(bad):
    # an inf defect's spectral norm comes back NaN, which passes any
    # bound, and a NaN defect's SVD does not converge
    with pytest.raises(ValueError, match="slice 0 is not finite"):
        Frame(np.array([bad, 0.0, 0.0]))
    with pytest.raises(ValueError, match="slice 0 is not finite"):
        Frame(np.column_stack([[1.0, 0.0, 0.0], [0.0, bad, 0.0]]))
    with pytest.raises(ValueError, match="slice 0 is not finite"):
        check_isotropic(np.array([[bad], [0.0], [0.0]]), make_witt_form(2, 1))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_frame_checks_report_the_first_bad_slice_of_a_stack(bad):
    form = make_witt_form(2, 1)
    stack = np.stack([Frame.standard(3, [0]).columns] * 4)
    stack[2, 1, 0] = bad
    with pytest.raises(ValueError, match="slice 2 is not finite"):
        check_orthonormal(stack)
    with pytest.raises(ValueError, match="slice 2 is not finite"):
        check_isotropic(stack, form)
    # a finite slice that fails before it is the one reported
    stack[1] *= 2.0
    with pytest.raises(ValueError, match=r"defect 3\.00e\+00"):
        check_orthonormal(stack)


def test_frame_from_spanning_reorthonormalizes(rng):
    m = rng.standard_normal((5, 3))
    w = Frame.from_spanning(m)
    assert np.linalg.norm(w.columns.T @ w.columns - np.eye(3)) < 1e-12


def test_frame_span_equality(rng):
    w = Frame.from_spanning(rng.standard_normal((4, 2)))
    mixed = Frame.from_spanning(w.columns @ rng.standard_normal((2, 2)))
    assert w.span_equals(mixed)


def test_check_isotropic_enforces_isotropy():
    f = make_witt_form(2, 1)
    check_isotropic(Frame.standard(3, [0]).columns, f)
    with pytest.raises(ValueError, match="not isotropic"):
        check_isotropic(Frame.standard(3, [1]).columns, f)


def test_check_isotropic_reports_the_first_bad_slice_of_a_stack(rng, monkeypatch):
    from test_cartan import random_opq_K
    form = make_witt_form(3, 2)
    # compact elements map the isotropic plane of e1, e2 to isotropic planes
    stack = np.stack([random_opq_K(rng, 3, 2)[:, :2] for _ in range(8)])
    spectral = []
    norm = np.linalg.norm
    assert form.isotropy_scale == 1.0       # cached before the count

    def counted(x, ord=None, axis=None, keepdims=False):
        spectral.append(ord == 2)
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", counted)
    check_isotropic(stack, form)
    check_isotropic(stack[:1], form)
    assert spectral and not any(spectral)
    monkeypatch.undo()
    bad = Frame.standard(5, [0, 2]).columns     # e3 has norm 1
    with pytest.raises(ValueError) as one:
        check_isotropic(bad, form)
    stack[5] = bad
    stack[6] = Frame.standard(5, [2, 3]).columns
    with pytest.raises(ValueError) as stacked:
        check_isotropic(stack, form)
    assert str(stacked.value) == str(one.value)
    assert "not isotropic" in str(one.value)


def test_complex_form_realization():
    f = make_witt_form(2, 1, field_tag="complex")
    J = f.j_matrix()
    assert np.allclose(J @ J, -np.eye(6))
    # Re(b) has signature (n, n)
    assert signature(f.re_gram(), 1e-12) == (3, 3, 0)
    # J is anti-orthogonal for Re b: Re b(Jx, Jy) = -Re b(x, y)
    assert np.allclose(J.T @ f.re_gram() @ J, -f.re_gram())


def test_json_round_trips(rng):
    m = rng.standard_normal((3, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
    f = make_witt_form(3, 2)
    f2 = WittForm.from_json(f.to_json())
    assert np.array_equal(f.gram, f2.gram) and (f2.p, f2.q) == (3, 2)
    w = Frame.from_spanning(rng.standard_normal((4, 2)))
    w2 = Frame.from_json(w.to_json())
    assert w.span_equals(w2)


def test_principal_sines_outputs_are_frames_invariant(rng):
    # outputs of operations re-satisfy the orthonormality invariant
    f = make_witt_form(3, 2)
    w = random_nonpositive_plane(rng, f, 2, boundary=True)
    _, kernel = restrict_kernel(f, w)
    for fr in (w, kernel, orthogonal_complement(f, w)):
        if fr.k:
            assert np.linalg.norm(fr.columns.T @ fr.columns - np.eye(fr.k)) < 1e-10
    assert len(principal_sines(w, w)) == 2


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_stacked_principal_sines_equal_single_slices(rng, n, k):
    # lines in R^3 and 2-planes in R^5, with a repeated frame (zero angle)
    frames = [Frame.from_spanning(rng.standard_normal((n, k)))
              for _ in range(30)]
    frames.append(frames[0])
    stacked = np.stack([f.columns for f in frames])
    lines = np.stack([f.columns[:, :1] for f in frames])
    w = frames[3]
    pairs = principal_sines(stacked[:, None], stacked[None])
    for i, f in enumerate(frames):
        assert np.array_equal(principal_sines(w, stacked)[i], principal_sines(w, f))
        assert np.array_equal(principal_sines(stacked, w)[i], principal_sines(f, w))
        line = Frame(lines[i])
        assert np.array_equal(principal_sines(lines, w)[i], principal_sines(line, w))
        assert np.array_equal(principal_sines(w, lines)[i], principal_sines(w, line))
        for j, g in enumerate(frames):
            assert np.array_equal(pairs[i, j], principal_sines(f, g))


def test_push_forward_equals_from_spanning_slices(rng):
    frames = np.stack([Frame.from_spanning(rng.standard_normal((5, 2))).columns
                       for _ in range(20)])
    mats = rng.standard_normal((20, 5, 5))
    moved = push_forward(mats, frames)
    for m, cols, out in zip(mats, frames, moved):
        assert np.array_equal(out, Frame.from_spanning(m @ cols).columns)
    one = push_forward(mats[0], frames)
    assert np.array_equal(one[7], Frame.from_spanning(mats[0] @ frames[7]).columns)


def test_push_forward_keeps_every_column_at_extreme_stretch():
    # a stretch ratio of e^22 > 1/DEFAULT_TOL: from_spanning drops a
    # column, the push-forward keeps the plane
    g = np.diag(np.exp([24.0, 2.0, 0.0]))
    plane = Frame.from_spanning(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert Frame.from_spanning(g @ plane.columns).k == 1
    moved = push_forward(g, plane.columns)
    assert moved.shape == (3, 2)
    assert np.linalg.norm(moved.T @ moved - np.eye(2)) < 1e-12
    exact = np.linalg.qr(g @ plane.columns)[0]     # reference span
    assert np.max(principal_sines(moved, exact)) < 1e-9


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 2)])
def test_projection_coordinates_move_less_than_the_projections(rng, n, k):
    # |p(F) - p(G)| <= |F F^T - G G^T|_F = sqrt(2 (k - c)) <= sqrt(2 k) d
    a = np.linalg.qr(rng.standard_normal((200, n, k)))[0]
    b = np.linalg.qr(a + 10.0 ** rng.uniform(-8, 0, (200, 1, 1))
                     * rng.standard_normal((200, n, k)))[0]
    chord = np.linalg.norm(a @ a.transpose(0, 2, 1) - b @ b.transpose(0, 2, 1), axis=(1, 2))
    c = forms.pair_cosines(a, b)
    assert np.allclose(chord, np.sqrt(np.maximum(2.0 * (k - c), 0.0)), rtol=1e-6, atol=1e-7)
    assert np.all(chord <= np.sqrt(2 * k) * principal_sines(a, b)[:, -1] * (1 + 1e-9) + 1e-15)
    for entry in zip(*np.triu_indices(n)):
        apart = np.abs(forms.projection_coordinate(a, entry)
                       - forms.projection_coordinate(b, entry))
        assert np.all(apart <= chord * (1 + 1e-12) + 1e-15), entry


@pytest.mark.parametrize("table", [1, 5, 2 ** 14])
def test_window_pairs_are_the_pairs_within_reach(monkeypatch, rng, table):
    # dyadic points, so every difference and window edge is exact
    monkeypatch.setattr(forms, "_TABLE", table)
    keys = np.sort(rng.integers(-8, 9, 40) / 8)
    x = rng.integers(-10, 11, 15) / 8
    chunks = list(forms.window_pairs(x, keys, 0.125, 2))
    assert all(0 < len(r) == len(j) <= max(1, table // 2) for r, j in chunks)
    got = [(r, j) for rows, cols in chunks for r, j in zip(rows.tolist(), cols.tolist())]
    assert got == [(r, j) for r in range(len(x)) for j in range(len(keys))
                   if abs(x[r] - keys[j]) <= 0.125]
    assert list(forms.window_pairs(x, keys[:0], 0.125, 2)) == []
    reach = rng.integers(0, 3, len(x)) / 8
    got = [(r, j) for rows, cols in forms.window_pairs(x, keys, reach, 2)
           for r, j in zip(rows.tolist(), cols.tolist())]
    assert got == [(r, j) for r in range(len(x)) for j in range(len(keys))
                   if abs(x[r] - keys[j]) <= reach[r]]


def keep_first_reference(related, start):
    """The keep-first rule one item at a time: items start, start + 1,
    ... in order are kept iff related to no earlier kept item; the first
    start items are kept."""
    kept = list(range(start))
    for a in range(start, len(related)):
        if not related[a, kept].any():
            kept.append(a)
    return np.isin(np.arange(start, len(related)), kept)


def keep_first_case(keys, start, reach, related):
    """forms.keep_first on the items after the first start of keys, with
    the first start indexed, against keep_first_reference; close checks
    that only earlier items within the item's reach are asked about."""
    index = forms.KeyIndex()
    index.add(keys[:start])
    x, asked = keys[start:], []

    def close(r, j):
        assert np.all(j < start + r)
        assert np.all(np.abs(x[r] - keys[j]) <= reach[r])
        asked.append(len(r))
        return related[start + r, j]

    got = forms.keep_first(x, index, reach, close, 1)
    expected = keep_first_reference(related, start)
    assert np.array_equal(got, expected)
    order = np.concatenate([keys[:start], x[got]])
    assert np.array_equal(index.keys, np.sort(order, kind="stable"))
    assert np.array_equal(order[index.rows], index.keys)
    return got, asked


@pytest.mark.parametrize("table", [3, 2 ** 14])
def test_keep_first_is_the_one_at_a_time_rule(monkeypatch, rng, table):
    # dyadic keys, so every window edge is exact; a random symmetric
    # relation among the items within reach of each other
    monkeypatch.setattr(forms, "_TABLE", table)
    chunked = False
    for count, start in [(30, 10), (30, 0), (12, 12), (0, 0), (40, 20)]:
        keys = rng.integers(-6, 7, count) / 8
        reach = rng.integers(0, 3, count) / 8
        apart = np.abs(keys[:, None] - keys[None])
        related = rng.random((count, count)) < 0.4
        related = (related | related.T) & (apart <= np.minimum.outer(reach, reach))
        _, asked = keep_first_case(keys, start, reach[start:], related)
        chunked |= len(asked) > 1
    assert chunked == (table == 3)
    # a chain: item 1 is dropped for item 0, and item 2, related only to
    # item 1, is kept
    related = np.zeros((3, 3), dtype=bool)
    related[[0, 1, 1, 2], [1, 0, 2, 1]] = True
    got, _ = keep_first_case(np.zeros(3), 0, np.full(3, 0.125), related)
    assert got.tolist() == [True, False, True]


def test_projection_entry_has_the_fewest_window_pairs():
    # lines near e_0 turning toward e_1: the entries other than (0, 1)
    # are flat there or move 100 times slower, so their windows of 1e-6
    # hold many lines
    t = np.linspace(0.0, 1e-3, 50)
    lines = np.stack([np.cos(t), np.sin(t), 0.01 * np.sin(t)], axis=1)
    lines /= np.linalg.norm(lines, axis=1, keepdims=True)
    assert forms.projection_entry(lines[:, :, None], 1e-6) == (0, 1)
    lines[:, [1, 2]] = lines[:, [2, 1]]
    assert forms.projection_entry(lines[:, :, None], 1e-6) == (0, 2)


def test_orthonormalize_matches_from_spanning_per_slice(rng):
    vectors = rng.standard_normal((30, 5, 2))
    vectors[4, :, 1] = 2.0 * vectors[4, :, 0]       # rank 1
    columns, ranks = orthonormalize(vectors)
    assert ranks.tolist() == [1 if i == 4 else 2 for i in range(30)]
    for vecs, cols, rank in zip(vectors, columns, ranks):
        assert np.array_equal(cols[:, :rank], Frame.from_spanning(vecs).columns)


def test_orthonormalize_takes_empty_frames():
    columns, ranks = orthonormalize(np.zeros((3, 4, 0)))
    assert columns.shape == (3, 4, 0)
    assert ranks.tolist() == [0, 0, 0]
    assert Frame.from_spanning(np.zeros((4, 0))).columns.shape == (4, 0)


def test_gram_norm_is_the_spectral_norm():
    form = WittForm(2, 1, 3.0 * make_witt_form(2, 1).gram)
    assert form.gram_norm == np.linalg.norm(form.gram, 2)
    assert form.gram_norm == pytest.approx(3.0)


def test_check_orthonormal_reports_the_first_bad_slice(rng):
    columns = orthonormalize(rng.standard_normal((6, 4, 2)))[0]
    check_orthonormal(columns)
    columns[2] *= 1.5
    columns[4] *= 1.01
    with pytest.raises(ValueError, match=r"defect 1\.25e\+00"):
        check_orthonormal(columns)


def test_restrict_matches_restrict_kernel_per_frame(rng):
    form = make_witt_form(3, 2)
    frames = orthonormalize(rng.standard_normal((20, 5, 2)))[0]
    stacked = restrict(form, frames)
    for cols, gram in zip(frames, stacked):
        assert np.array_equal(gram, restrict_kernel(form, Frame(cols))[0])


def test_dump_json_rejects_non_finite_numbers(tmp_path):
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            dump_json({"radius": value}, tmp_path / "report.json")
        # a flat record inside a list, and a nested dict
        for obj in ({"flags": [{"point": 1, "residual": value}]},
                    {"a": {"b": {"c": [1.0, value]}, "d": [[]]}},
                    [np.float64(value)], {value: 1}, value):
            with pytest.raises(ValueError):
                dump_json(obj, tmp_path / "report.json")


def test_dump_json_rejects_what_json_rejects(tmp_path):
    path = tmp_path / "report.json"
    loop = [1, 2]
    loop.append(loop)
    cases = [
        (TypeError, {"count": np.int64(3)}),
        (TypeError, [{"count": np.int64(3)}, [1]]),
        (TypeError, {"members": {1, 2}}),
        (TypeError, {(1, 2): "tuple key"}),
        (TypeError, {"a": {(1, 2): "tuple key", (3,): [1]}}),
        (ValueError, loop),
        (ValueError, {"a": [{"b": loop}]}),
    ]
    for error, obj in cases:
        with pytest.raises(error):      # json's own verdict ...
            json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(error):      # ... is dump_json's
            dump_json(obj, path)


_TRICKY = '"\\{}[],: \n\t\r\x00\x1f\x7f\u00e9\u20ac\U0001f600'
_STRINGS = st.one_of(st.text(max_size=8), st.text(_TRICKY, max_size=8))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 63, 2 ** 100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64), _STRINGS)
# the keys of one dict must sort against each other, as with json
_NUMBER_KEYS = st.one_of(st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False))
_EMPTY = st.sampled_from([[], (), {}])


def _containers(members):
    return st.one_of(
        st.lists(members, max_size=5),
        st.lists(members, max_size=5).map(tuple),
        *(st.dictionaries(keys, members, max_size=5)
          for keys in (_STRINGS, _NUMBER_KEYS, st.none())))


JSON_VALUES = st.recursive(st.one_of(_SCALARS, _EMPTY), _containers,
                           max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=JSON_VALUES)
def test_dump_json_writes_the_bytes_of_json_dump(tmp_path, obj):
    dump_json(obj, tmp_path / "report.json")
    expected = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "report.json").read_text() == expected


def record_dicts(records):
    """The list of row dicts that a Records table stands for, as
    ``json.dumps(..., default=record_dicts)`` expects."""
    return [dict(zip(records.columns, row))
            for row in zip(*records.columns.values())]


def json_dump_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=record_dicts) + "\n"


@pytest.mark.parametrize("size", [60_000, 200_000])
def test_dump_json_writes_every_chunk_of_a_long_flat_container(tmp_path, size):
    # json's C encoder returns a second chunk past about 50,000 members
    obj = {"a": [i / 7 for i in range(size)]}
    dump_json(obj, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == json_dump_text(obj)


_CELLS = st.one_of(_SCALARS, st.text(_TRICKY + "%s", max_size=8))
_RECORD_KEYS = st.one_of(st.text(max_size=4), st.text(_TRICKY + "%s", max_size=6))


@pytest.mark.parametrize("rows", [0, 1, 2, forms._RECORD_BATCH - 1,
                                  forms._RECORD_BATCH, forms._RECORD_BATCH + 1])
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pools=st.dictionaries(_RECORD_KEYS, st.lists(_CELLS, min_size=1, max_size=5),
                             max_size=4),
       at=_STRINGS, others=st.dictionaries(_STRINGS, JSON_VALUES, max_size=3))
def test_records_write_the_bytes_of_json_dump(tmp_path, rows, pools, at, others):
    # each column repeats a small pool of values down the rows; the table
    # sits at a top-level key next to other values, which are re-indented
    records = Records({key: [pool[i % len(pool)] for i in range(rows)]
                       for key, pool in pools.items()})
    assert len(records) == (rows if pools else 0)
    obj = {**others, at: records}
    dump_json(obj, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == json_dump_text(obj)


@pytest.mark.parametrize("batch", [None, 60_000])
def test_records_past_the_encoder_chunk_threshold(tmp_path, monkeypatch, batch):
    # with a batch of 60,000 rows each column is one encoder call that
    # returns several chunks
    if batch:
        monkeypatch.setattr(forms, "_RECORD_BATCH", batch)
    rows = 50_001
    records = Records({"gap": [i / 7 for i in range(rows)],
                       "word": ["ab\n%s"[:i % 5] for i in range(rows)]})
    dump_json({"flags": records}, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == \
        json_dump_text({"flags": records})


def test_records_reject_what_json_rejects(tmp_path):
    path = tmp_path / "report.json"
    late = forms._RECORD_BATCH + 1         # a row in the second batch
    for value in (float("nan"), float("inf"), np.float64("-inf")):
        for at in (0, late):
            column = [1.0] * (late + 1)
            column[at] = value
            with pytest.raises(ValueError):
                dump_json({"r": Records({"a": column, "b": [1] * len(column)})},
                          path)
    # a value that is no JSON scalar, first, alone or after a batch
    for value in ([], {}, [1, 2], (3,), {"a": 1}, [[]], np.int64(3), {1, 2}):
        for column in ([value], [value, "x"], ["x", value],
                       [0.5] * late + [value]):
            with pytest.raises(TypeError):
                dump_json({"r": Records({"a": column})}, path)
    with pytest.raises(ValueError):
        dump_json({"r": Records({"a": [1, 2], "b": [1]})}, path)


# each maker returns a new object on every call: runs of one object next
# to equal objects that are distinct (two float("0.1")), or that encode
# differently (0.0 and -0.0; 1, 1.0 and True)
_RUN_MAKERS = [lambda: float("0.0"), lambda: float("-0.0"), lambda: int("1"),
               lambda: float("1"), lambda: True, lambda: float("0.1"),
               lambda: float("0.1"), lambda: "a%s", lambda: None]


def run_column(runs, rows):
    """rows values made of the runs (maker, length), cycled: one fresh
    object repeated down each run."""
    return list(islice(chain.from_iterable(
        repeat(_RUN_MAKERS[maker](), size) for maker, size in cycle(runs)), rows))


# a write batch of a few rows, so that many runs cross its boundary
_RUN_BATCH = 8
_RUNS = st.lists(st.tuples(st.integers(0, len(_RUN_MAKERS) - 1),
                           st.integers(1, _RUN_BATCH + 1)),
                 min_size=1, max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=st.dictionaries(st.sampled_from("abc"), _RUNS, min_size=1),
       rows=st.integers(0, 4 * _RUN_BATCH))
def test_records_of_repeated_objects_write_the_bytes_of_json_dump(
        tmp_path, monkeypatch, columns, rows):
    monkeypatch.setattr(forms, "_RECORD_BATCH", _RUN_BATCH)
    records = Records({key: run_column(runs, rows) for key, runs in columns.items()})
    dump_json({"flags": records}, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == json_dump_text({"flags": records})


@pytest.mark.parametrize("value", [float("nan"), float("-inf"), [], {"a": 1}, (3,), {1}])
@pytest.mark.parametrize("at", [0, forms._RECORD_BATCH - 2, forms._RECORD_BATCH + 5])
def test_records_reject_a_bad_value_inside_a_run(tmp_path, value, at):
    path = tmp_path / "report.json"
    column = [0.5] * at + [value] * 4 + [0.25] * forms._RECORD_BATCH
    with pytest.raises(ValueError if isinstance(value, float) else TypeError):
        dump_json({"r": Records({"a": column, "b": [1] * len(column)})}, path)
    assert not path.exists()


def test_records_only_at_a_top_level_str_key(tmp_path):
    path = tmp_path / "report.json"
    records = Records({"a": [1.0, 2.0]})
    big = Records({"a": [0.5] * 5000})     # fills the file buffer first
    for obj in (records, [records], {"n": 1, "r": {"flags": records}},
                {"a": big, "b": [records]}, {"a": big, "b": {"c": records}},
                {"a": big, 1: records}, {"a": big, None: 1}, {1: records}):
        with pytest.raises(TypeError):
            dump_json(obj, path)
        assert not path.exists()        # no partial report is left
    with pytest.raises(ValueError):
        dump_json({"a": big, "b": [1.0] * 5000 + [float("nan")]}, path)
    assert not path.exists()
