import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anoctl.words
from anoctl.cartan import kak, mu_gaps, root_gaps, tag_of
from anoctl.forms import dist_projective, Frame, make_witt_form
from anoctl.presets import mixed_o21, o21_boost, o21_rotation, schottky_o21
from anoctl.roots import build_root_system
from test_cli import pingpong_o32
from test_limits import table_cases
from anoctl.words import (
    DEDUP_TOL,
    CapExceededError,
    divergence_profile,
    enumerate_ball,
    fit_divergence_slope,
    proximal_elements,
    word_inverse,
)


def rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_ball_keeps_one_batch_per_form():
    form, gens = schottky_o21()
    ball = enumerate_ball(gens, 1)
    assert ball.cartan_batch(form) is ball.cartan_batch(form)
    assert ball.cartan_batch(form).group_tag == "opq"
    assert ball.cartan_batch().group_tag == "gl"
    assert ball.cartan_batch(make_witt_form(2, 1, "complex")).group_tag == "onC"


@pytest.mark.parametrize("name", ["schottky-o21", "mixed-o21", "pingpong-o32",
                                  "gl", "2,1,C"])
def test_ball_gaps_are_root_gaps_of_kak(name, kak_calls):
    form, gens, theta = table_cases()[name]
    ball = enumerate_ball(gens, 6)
    rs, tag = theta.root_system, tag_of(form)
    gaps = ball.gaps(np.arange(len(ball)), rs, form)
    # the zero-margin rows come off the batch, undecomposed; one kak call
    # takes the others
    exact = ~np.any(ball.cartan_batch(form).margin, axis=1)
    assert kak_calls.rows(ball) == ([np.flatnonzero(~exact).tolist()]
                                    if not exact.all() else [])
    mus = kak(ball.matrices, form)[1]
    assert gaps.tobytes() == root_gaps(mus, rs, tag).tobytes()
    # any rows, in any order, are the same bits
    rows = np.arange(len(ball))[::-3]
    assert ball.gaps(rows, rs, form).tobytes() == gaps[rows].tobytes()
    assert ball.gaps([], rs, form).shape == (0, rs.rank)
    # divergence_profile decomposes no zero-margin element
    fresh = enumerate_ball(gens, 6)
    kak_calls.clear()
    divergence_profile(fresh, rs, form)
    assert not exact[kak_calls.decomposed(fresh)].any()


def test_free_ball_counts():
    form, gens = schottky_o21()
    ball = enumerate_ball(gens, 2)
    assert len(ball) == 1 + 4 + 12
    assert np.bincount(ball.lengths).tolist() == [1, 4, 12]


def test_ball_radius_zero():
    _, gens = schottky_o21()
    ball = enumerate_ball(gens, 0)
    assert len(ball) == 1 and ball.elements[0][0] == ""


def test_finite_order_generator_collapses():
    g = rotation2(2 * np.pi / 3)
    ball = enumerate_ball([("a", g)], 6)
    assert len(ball) == 3  # identity, g, g^2 = g^{-1}


def test_shortlex_order_and_reduced_words():
    _, gens = schottky_o21()
    ball = enumerate_ball(gens, 2)
    words = [w for w, _, _ in ball.elements]
    assert words[:5] == ["", "a", "A", "b", "B"]
    assert all("aA" not in w and "Aa" not in w and "bB" not in w and "Bb" not in w
               for w in words)
    key = [(len(w), [ball.alphabet.index(c) for c in w]) for w in words]
    assert key == sorted(key)


def test_dedup_idempotence():
    # enumerating radius r then extending matches enumerating r+1 directly
    g = rotation2(2 * np.pi / 5)
    h = np.diag([2.0, 0.5])
    b3 = enumerate_ball([("a", g), ("b", h)], 3)
    b4 = enumerate_ball([("a", g), ("b", h)], 4)
    words3 = {w for w, _, r in b4.elements if r <= 3}
    assert words3 == {w for w, _, _ in b3.elements}


def test_cap_exceeded_carries_partial():
    _, gens = schottky_o21()
    with pytest.raises(CapExceededError) as exc:
        enumerate_ball(gens, 3, cap=10)
    ball = exc.value.ball
    assert ball.truncated and len(ball) == 10


def reference_ball(generators, radius, tol=DEDUP_TOL):
    """Brute-force dedup: candidates in shortlex order, each compared by
    the scalar relative Frobenius test with every earlier kept element.
    Returns the (word, matrix, word_length) triples kept."""
    letters = {}
    for name, m in generators:
        letters[name] = np.asarray(m, dtype=float)
        letters[name.upper()] = np.linalg.inv(letters[name])
    alphabet = [l for name, _ in generators for l in (name, name.upper())]
    kept = [("", np.eye(len(generators[0][1])), 0)]
    norms = [np.linalg.norm(kept[0][1])]
    sphere = kept[:]
    for r in range(1, radius + 1):
        grown = []
        for word, mat, _ in sphere:
            for letter in alphabet:
                if word and letter == word[-1].swapcase():
                    continue
                cand = mat @ letters[letter]
                nrm = np.linalg.norm(cand)
                if any(np.linalg.norm(cand - m) <= tol * max(nrm, other, 1.0)
                       for (_, m, _), other in zip(kept, norms)):
                    continue
                kept.append((word + letter, cand, r))
                norms.append(nrm)
                grown.append(kept[-1])
        if not grown:
            break
        sphere = grown
    return kept


def assert_matches_reference(generators, radius):
    ball = enumerate_ball(generators, radius)
    ref = reference_ball(generators, radius)
    assert ball.words == [w for w, _, _ in ref]
    assert ball.lengths.tolist() == [r for _, _, r in ref]
    assert np.array_equal(ball.matrices, np.stack([m for _, m, _ in ref]))
    return ball


def dihedral():
    return [("a", rotation2(2 * np.pi / 5)), ("b", np.diag([1.0, -1.0]))]


@pytest.mark.parametrize("generators, radius", [
    (schottky_o21()[1], 5),
    (mixed_o21()[1], 5),
    (pingpong_o32(1), 5),
    ([("a", rotation2(2 * np.pi / 3))], 6),
    (dihedral(), 8),
], ids=["schottky-o21", "mixed-o21", "pingpong-o32", "rotation", "dihedral"])
def test_ball_matches_brute_force_dedup(generators, radius, monkeypatch):
    ball = assert_matches_reference(generators, radius)
    if len(ball) > 100:
        # sphere by sphere in blocks of two candidates: the same ball
        monkeypatch.setattr(anoctl.words, "_BLOCK", 2)
        assert_matches_reference(generators, radius)


def _generator(n, turn, entries):
    """A finite-order rotation (turn > 0, by 2 pi / turn) in the leading
    plane, or the identity plus small entries."""
    if turn:
        g = np.eye(n)
        g[:2, :2] = rotation2(2 * np.pi / turn)
        return g
    return np.eye(n) + 0.3 * np.reshape(entries[:n * n], (n, n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 3),
       turns=st.lists(st.integers(0, 6), min_size=1, max_size=2),
       entries=st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       copy=st.booleans())
def test_ball_matches_brute_force_on_random_generators(n, turns, entries,
                                                      direction, copy):
    mats = [_generator(n, t, entries[9 * i:]) for i, t in enumerate(turns)]
    mats = [m for m in mats if abs(np.linalg.det(m)) > 0.1]
    if copy and mats:
        # a copy perturbed by tol / 2, so duplicates chain inside spheres
        e = np.reshape(direction[:n * n], (n, n))
        if np.linalg.norm(e) > 0:
            e *= DEDUP_TOL / 2 * np.linalg.norm(mats[0]) / np.linalg.norm(e)
        mats.append(mats[0] + e)
    if not mats:
        return
    radius = 4 if len(mats) == 1 else 3
    assert_matches_reference(list(zip("abc", mats)), radius)


def test_overflowing_norms_keep_distinct_elements():
    # the entries of aa reach 5e173, whose squares overflow
    a = o21_boost(200.0)
    ball = enumerate_ball([("a", a)], 2)
    assert ball.words == ["", "a", "A", "aa", "AA"]
    assert np.array_equal(ball.matrix("aa"), a @ a)
    ball = enumerate_ball([("a", o21_boost(100.0)), ("b", o21_rotation(1.2))], 7)
    assert len(ball) == 1281 and "aaaaaaa" in ball.words


def test_non_finite_product_raises_naming_its_word():
    with pytest.raises(ValueError, match="'aaaa'"):
        enumerate_ball([("a", o21_boost(200.0))], 4)


@pytest.mark.parametrize("cap", [2, 10, 17, 30, 52])
def test_cap_truncates_to_a_prefix_of_the_ball(cap):
    _, gens = schottky_o21()
    full = enumerate_ball(gens, 3)
    with pytest.raises(CapExceededError) as exc:
        enumerate_ball(gens, 3, cap=cap)
    ball = exc.value.ball
    assert ball.truncated and len(ball) == cap
    assert ball.words == full.words[:cap]
    assert np.array_equal(ball.lengths, full.lengths[:cap])
    assert np.array_equal(ball.matrices, full.matrices[:cap])
    assert f"radius {ball.radius};" in str(exc.value)


@pytest.mark.parametrize("cap", [0, 1])
def test_cap_below_two_keeps_the_identity(cap):
    _, gens = schottky_o21()
    with pytest.raises(CapExceededError, match="radius 0;") as exc:
        enumerate_ball(gens, 2, cap=cap)
    assert exc.value.ball.words == [""] and exc.value.ball.truncated
    # nothing beyond the identity: no cap is exceeded
    assert len(enumerate_ball([("a", np.eye(2))], 3, cap=cap)) == 1


def test_elements_are_views_of_the_stacked_ball():
    _, gens = schottky_o21()
    ball = enumerate_ball(gens, 3)
    assert ball.matrix("aB").base is ball.matrices
    assert "elements" not in ball.__dict__
    for index, (word, mat, r) in enumerate(ball.elements):
        assert np.array_equal(ball.matrix(word), mat) and mat.base is ball.matrices
        assert (word, r) == (ball.words[index], ball.lengths[index])


def test_generator_validation():
    with pytest.raises(ValueError):
        enumerate_ball([("ab", np.eye(2))], 1)
    with pytest.raises(ValueError):
        enumerate_ball([("a", np.zeros((2, 2)))], 1)
    with pytest.raises(ValueError):
        enumerate_ball([("a", np.eye(2)), ("a", np.eye(2))], 1)


def test_word_evaluation_and_inverse():
    form, gens = schottky_o21(translation=1.0)
    ball = enumerate_ball(gens, 3)
    word = "abA"
    expected = gens[0][1] @ gens[1][1] @ np.linalg.inv(gens[0][1])
    assert np.allclose(ball.matrix(word), expected)
    assert word_inverse("abA") == "aBA"
    assert np.allclose(ball.evaluate(word_inverse(word)),
                       np.linalg.inv(expected), atol=1e-9)


# ---------------------------------------------------------------------------
# divergence profiles


def test_schottky_divergence_profile_slope():
    form, gens = schottky_o21(translation=3.0)
    rs = build_root_system("B", 1)
    ball = enumerate_ball(gens, 5)
    prof = divergence_profile(ball, rs, form)
    slope, shape = fit_divergence_slope(prof, 1)
    assert slope > 0.5
    assert shape == "linear"
    gaps = prof.gaps_of(1)
    assert np.all(np.diff(gaps[1:]) > 0)


def test_divergence_profile_brute_force_cross_check():
    # independent minimum over the sphere, recomputed from scratch
    form, gens = schottky_o21(translation=2.0)
    rs = build_root_system("B", 1)
    ball = enumerate_ball(gens, 3)
    prof = divergence_profile(ball, rs, form)
    for entry in prof.per_radius:
        vals = [mu_gaps(kak(m, form).mu, rs)[1]
                for _, m, r in ball.elements if r == entry.radius]
        assert abs(min(vals) - entry.min_gap[1]) < 1e-12


def test_unipotent_growth_flagged_sublinear():
    u = np.array([[1.0, 1.0], [0.0, 1.0]])
    ball = enumerate_ball([("a", u)], 10)
    rs = build_root_system("A", 1)
    prof = divergence_profile(ball, rs)
    slope, shape = fit_divergence_slope(prof, 1, skip=2)
    assert shape == "sublinear"


def test_identity_only_profile():
    ball = enumerate_ball([("a", np.eye(2))], 4)
    rs = build_root_system("A", 1)
    prof = divergence_profile(ball, rs)
    assert len(prof.per_radius) == 1
    assert prof.per_radius[0].min_gap[1] == pytest.approx(0.0)


def test_profile_duality_on_inverse_words():
    # min over the sphere of <alpha, mu> equals the min over inverses of
    # <alpha-star, mu>; for B_1 the star is trivial and the ball is
    # inverse-closed, so the profiles agree
    form, gens = schottky_o21(translation=2.0)
    rs = build_root_system("B", 1)
    ball = enumerate_ball(gens, 3)
    prof = divergence_profile(ball, rs, form)
    for entry in prof.per_radius:
        inv_vals = [mu_gaps(kak(np.linalg.inv(m), form).mu, rs)[1]
                    for _, m, r in ball.elements if r == entry.radius]
        assert abs(min(inv_vals) - entry.min_gap[1]) < 1e-9


def test_profile_conjugation_coarse_invariance():
    form, gens = schottky_o21(translation=2.0)
    rs = build_root_system("B", 1)
    h = o21_boost(0.7) @ o21_rotation(0.3)
    conj = [(name, h @ m @ np.linalg.inv(h)) for name, m in gens]
    b1 = enumerate_ball(gens, 3)
    b2 = enumerate_ball(conj, 3)
    p1 = divergence_profile(b1, rs, form)
    p2 = divergence_profile(b2, rs, form)
    slack = 2 * np.log(np.linalg.cond(h))
    for e1, e2 in zip(p1.per_radius, p2.per_radius):
        assert abs(e1.min_gap[1] - e2.min_gap[1]) <= slack + 1e-9


def test_profile_csv_format():
    form, gens = schottky_o21(translation=2.0)
    rs = build_root_system("B", 1)
    prof = divergence_profile(enumerate_ball(gens, 2), rs, form)
    csv = prof.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "radius,root,min_gap,word"
    assert len(lines) == 4  # radii 0..2, one root


# ---------------------------------------------------------------------------
# proximal elements


def test_diagonal_boost_is_proximal():
    ball = enumerate_ball([("a", o21_boost(np.log(4.0)))], 1)
    prox = proximal_elements(ball, gap_threshold=0.5)
    words = {w for w, _, _ in prox}
    assert words == {"a", "A"}
    line = next(fr for w, fr, _ in prox if w == "a")
    assert dist_projective(line, Frame.standard(3, [0])) < 1e-10


def test_rotation_not_proximal():
    ball = enumerate_ball([("a", o21_rotation(0.9))], 2)
    assert proximal_elements(ball, gap_threshold=0.1) == []


def test_schottky_long_words_all_proximal():
    form, gens = schottky_o21(translation=4.0)
    ball = enumerate_ball(gens, 3)
    prox = proximal_elements(ball, gap_threshold=1.0)
    words = {w for w, _, _ in prox}
    for w, _, r in ball.elements:
        if r >= 1:
            assert w in words
    # attracting lines of form-preserving proximal elements are isotropic
    for w, fr, _ in prox:
        v = fr.columns[:, 0]
        assert abs(v @ form.gram @ v) < 1e-8


def test_proximal_invariant_two_plane():
    g = np.diag([8.0, 4.0, 1.0, 0.25])
    ball = enumerate_ball([("a", g)], 1)
    prox = proximal_elements(ball, gap_threshold=0.5, i=2)
    fr = next(f for w, f, _ in prox if w == "a")
    assert fr.span_equals(Frame.standard(4, [0, 1]), 1e-9)


def test_grading_consistency():
    # every grade-r element extends a stored grade-(r-1) element
    g = rotation2(2 * np.pi / 5)
    h = np.diag([2.0, 0.5])
    ball = enumerate_ball([("a", g), ("b", h)], 4)
    words = {w: r for w, _, r in ball.elements}
    for w, r in words.items():
        if r >= 1:
            assert words[w[:-1]] == r - 1


def test_cyclic_reduction():
    from anoctl.words import cyclic_reduction
    assert cyclic_reduction("baBB") == ("b", "aB")
    assert cyclic_reduction("abA") == ("a", "b")
    assert cyclic_reduction("ab") == ("", "ab")
    assert cyclic_reduction("a") == ("", "a")


def test_proximal_catches_distorted_conjugates():
    # eigenproblems of words like b (aB) b^{-1} at large translation are
    # ill-conditioned; the cyclic-reduction path must still resolve them
    form, gens = schottky_o21()  # default large translation
    ball = enumerate_ball(gens, 4)
    prox = {w for w, _, _ in proximal_elements(ball, gap_threshold=1.0)}
    nontrivial = {w for w, _, r in ball.elements if r >= 1}
    assert prox == nontrivial
    # attracting line of the conjugate is the conjugated attracting line
    by_word = {w: fr for w, fr, _ in
               proximal_elements(ball, gap_threshold=1.0)}
    if "baBB" in by_word:
        inner = by_word["aB"]
        moved = Frame.from_spanning(ball.matrix("b") @ inner.columns)
        assert dist_projective(by_word["baBB"], moved) < 1e-8
