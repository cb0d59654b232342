import numpy as np
import pytest

from anoctl import forms, limits
from anoctl.forms import Frame, cosines, dist_grassmann, dist_projective, make_witt_form
from anoctl.limits import (
    MERGE_TOL,
    EmptyLimitSampleError,
    sample_limit_set,
    sample_to_csv,
    sample_to_svg,
    transversality_margin,
    transversality_report,
)
from anoctl.presets import BUILTIN_GENERATORS, o21_boost, o21_rotation, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball, proximal_elements


B1 = build_root_system("B", 1)
THETA1 = ThetaSet(B1, frozenset({1}))


def schottky_sample(translation=4.0, radius=5, min_gap=1.0):
    form, gens = schottky_o21(translation=translation)
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, THETA1, form, min_gap=min_gap)
    return form, gens, ball, sample


def test_cyclic_proximal_sample_concentrates(rng):
    form = make_witt_form(2, 1)
    k = o21_rotation(0.8)
    g = k @ o21_boost(1.5) @ np.linalg.inv(k)
    ball = enumerate_ball([("a", g)], 8)
    sample = sample_limit_set(ball, THETA1, form, min_gap=1.0, merge_tol=1e-6)
    # power iteration oracle: attracting line of g
    w, v = np.linalg.eig(g)
    line = Frame.from_spanning(np.real(v[:, np.argmax(np.abs(w))]))
    # all positive-power samples sit near the attracting line; inverse
    # powers contribute the repelling line
    dists = sorted(dist_projective(Frame(cols), line) for cols in sample.columns)
    assert dists[0] < 1e-4
    assert len(sample) <= 3


def test_identity_ball_raises():
    _, gens = schottky_o21()
    ball = enumerate_ball(gens, 0)
    with pytest.raises(EmptyLimitSampleError):
        sample_limit_set(ball, THETA1, make_witt_form(2, 1), min_gap=1.0)


def test_schottky_sample_isotropic_and_cantor_gaps():
    form, gens, ball, sample = schottky_sample()
    # isotropy invariant
    for v in sample.columns[:, :, 0]:
        assert abs(v @ form.gram @ v) <= 1e-8
    # the four ping-pong shadows around the generators' fixed lines are
    # pairwise separated and every sample lies in exactly one of them
    prox = proximal_elements(ball, gap_threshold=1.0)
    fixed = {w: fr for w, fr, _ in prox if w in ("a", "A", "b", "B")}
    assert len(fixed) == 4
    flags = [Frame(cols) for cols in sample.columns]
    shadows = {}
    for w, fr in fixed.items():
        members = [f for f, word in zip(flags, sample.words) if word[0] == w]
        shadows[w] = max(dist_projective(f, fr) for f in members)
    for w1, f1 in fixed.items():
        for w2, f2 in fixed.items():
            if w1 < w2:
                sep = dist_projective(f1, f2)
                assert sep > 3 * (shadows[w1] + shadows[w2])
    for f in flags:
        inside = [w for w, fr in fixed.items()
                  if dist_projective(f, fr) <= shadows[w] + 1e-12]
        assert len(inside) == 1
    # gap midpoints between shadows are genuinely far from every sample
    lines = sample.columns[:, :, 0]
    va = fixed["a"].columns[:, 0]
    vb = fixed["b"].columns[:, 0]
    mid = va + vb
    mid /= np.linalg.norm(mid)
    cos = np.abs(lines @ mid)
    assert np.min(np.sqrt(1 - np.clip(cos, 0, 1) ** 2)) > 0.05


def test_sample_merges_duplicates():
    form, gens, ball, sample = schottky_sample(translation=6.0, radius=6)
    lines = sample.columns[:, :, 0]
    cos = np.abs(lines @ lines.T) - np.eye(len(lines))
    max_cos = np.sqrt(1 - sample.merge_tol ** 2)
    assert np.max(cos) <= max_cos + 1e-12


def table_cases():
    """(form, generators, theta) for both presets, the O(3,2) ping-pong
    pair, mixed-o21's generators as plain GL(3) matrices and in the
    complex orthogonal group of (2, 1)."""
    from test_cli import pingpong_o32
    mixed = BUILTIN_GENERATORS["mixed-o21"]()[1]
    return {
        "schottky-o21": (*BUILTIN_GENERATORS["schottky-o21"](), THETA1),
        "mixed-o21": (*BUILTIN_GENERATORS["mixed-o21"](), THETA1),
        "pingpong-o32": (make_witt_form(3, 2), pingpong_o32(1),
                         ThetaSet(build_root_system("B", 2), frozenset({1}))),
        "gl": (None, mixed, ThetaSet(build_root_system("A", 2), frozenset({1}))),
        "2,1,C": (make_witt_form(2, 1, "complex"), mixed, THETA1),
    }


@pytest.mark.parametrize("name", ["schottky-o21", "mixed-o21", "pingpong-o32",
                                  "gl", "2,1,C"])
def test_sample_rows_are_the_flags_and_gaps_of_their_words(name):
    # every row of the table is its word's own xi_theta Frame, bit for
    # bit, with the smallest theta-gap of that word's kak
    from anoctl.cartan import kak, mu_gaps, xi_theta
    form, gens, theta = table_cases()[name]
    ball = enumerate_ball(gens, 6)
    sample = sample_limit_set(ball, theta, form)
    assert len(sample) == len(sample.words) == len(sample.lengths) == \
        len(sample.gaps) == len(sample.columns) > 1
    for j, word in enumerate(sample.words):
        g = ball.matrix(word)
        flag = xi_theta(g, theta, form, tol=1.0)
        assert sample.columns[j].tobytes() == flag.columns.tobytes()
        assert sample.columns[j].shape == flag.columns.shape
        gaps = mu_gaps(kak(g, form).mu, theta.root_system)
        assert sample.gaps[j] == min(gaps[a] for a in theta.members)
        assert sample.lengths[j] == len(word)


@pytest.mark.parametrize("preset,radius", [("schottky-o21", 6), ("mixed-o21", 5)])
def test_pruned_merge_matches_unpruned_reference(preset, radius):
    # merge_tol = 0 keeps every candidate flag, in ball order; the
    # reference then merges them by comparing against every kept flag
    form, gens = BUILTIN_GENERATORS[preset]()
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, THETA1, form)
    candidates = sample_limit_set(ball, THETA1, form, merge_tol=0.0)
    kept = []
    for word, cols in zip(candidates.words, candidates.columns):
        if all(dist_grassmann(Frame(cols), f) >= MERGE_TOL for _, f in kept):
            kept.append((word, Frame(cols)))
    assert len(kept) < len(candidates)
    assert sample.words == [word for word, _ in kept]


@pytest.mark.parametrize("preset,radius", [("schottky-o21", 6), ("mixed-o21", 5)])
def test_cosines_equal_tensordot(preset, radius):
    form, gens = BUILTIN_GENERATORS[preset]()
    kept = sample_limit_set(enumerate_ball(gens, radius), THETA1, form).columns
    for cols in (kept[0], kept[:64], kept):
        expected = np.sum(np.tensordot(kept, cols, axes=(1, -2)) ** 2, axis=(1, -1))
        assert np.array_equal(cosines(cols, kept), expected)


def test_surely_within_does_not_depend_on_the_slices(monkeypatch):
    form, gens = BUILTIN_GENERATORS["mixed-o21"]()
    ball = enumerate_ball(gens, 7)
    # every other kept flag, so that some frames of the stack are not
    # settled by any of them
    kept = sample_limit_set(ball, THETA1, form).columns[::2]
    batch = ball.cartan_batch(form)
    stack = np.flatnonzero(batch.gaps(B1)[0][:, 0] > 1.0)
    stack = stack[::max(1, len(stack) // 128)][:128]
    frames, margins = batch.u[stack][:, :, :1], batch.flag_margin[stack]

    def answers(table):
        monkeypatch.setattr(forms, "_TABLE", table)
        return limits._surely_within(frames, kept, MERGE_TOL, margins)

    sliced = answers(forms._TABLE)
    assert 0 < sliced.sum() < len(stack)
    assert np.array_equal(answers(1), sliced)
    assert np.array_equal(answers(len(kept) * len(stack)), sliced)


def test_sample_equivariance():
    # generator images of the radius-5 sample land inside the radius-6
    # sample up to the merge tolerance
    form, gens, ball5, sample5 = schottky_sample(radius=5)
    _, _, _, sample6 = schottky_sample(radius=6)
    a = gens[0][1]
    for cols in sample5.columns:
        moved = Frame.from_spanning(a @ cols)
        assert np.min(sample6.distances_from(moved)) < 5 * sample6.merge_tol


def test_inverse_sampling_lands_in_sample():
    form, gens, ball, sample = schottky_sample()
    from anoctl.cartan import flag_of, kak, mu_gaps
    for word in sample.words[:10]:
        ginv = np.linalg.inv(ball.matrix(word))
        dec = kak(ginv, form)
        if mu_gaps(dec.mu, B1)[1] <= 1.0:
            continue
        flag = flag_of(dec.k, 1, form)
        assert np.min(sample.distances_from(flag)) < 5 * sample.merge_tol


# ---------------------------------------------------------------------------
# transversality


def test_transversality_of_opposite_isotropic_lines():
    # e1 and e3 span a hyperbolic plane in signature (2,1)
    form = make_witt_form(2, 1)
    m = transversality_margin(Frame.standard(3, [0]), Frame.standard(3, [2]), form)
    assert m > 0.5


def test_transversality_report_schottky():
    # at the bundled translation the within-cluster pair distances fall
    # below the pair floor, so only well-separated pairs are scored
    form, gens, ball, sample = schottky_sample(translation=9.0, radius=6)
    report = transversality_report(sample, form)
    assert report.margin > 1e-3
    assert report.pairs_tested > 0
    assert np.isfinite(report.covering_radius)


def test_transversality_excludes_near_pairs():
    form, gens, ball, sample = schottky_sample()
    report = transversality_report(sample, form, pair_floor=1e-3)
    # shrink the floor: more pairs qualify
    report2 = transversality_report(sample, form, pair_floor=1e-9)
    assert report2.pairs_tested >= report.pairs_tested


def test_degenerate_configuration_flagged():
    # nested isotropic lines in (3,2): xi(eta) inside xi(eta')-perp
    form = make_witt_form(3, 2)
    l1 = Frame.standard(5, [0])
    l2 = Frame.standard(5, [1])
    assert transversality_margin(l2, l1, form) < 1e-12
    # distance above any floor, so a sample of the two would report ~0
    assert dist_projective(l1, l2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# export


def test_csv_and_svg_emission_deterministic():
    form, gens, ball, sample = schottky_sample(radius=4)
    csv1, csv2 = sample_to_csv(sample), sample_to_csv(sample)
    assert csv1 == csv2
    assert csv1.startswith("word,word_length,gap,")
    svg = sample_to_svg(sample, chart=(0, 1))
    assert svg.startswith("<svg") and svg.count("<circle") == len(sample)
    assert sample_to_svg(sample, chart=(0, 1)) == svg
