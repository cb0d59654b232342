"""The batched Cartan screen changes no result: divergence profiles,
limit samples and relation scans equal the unscreened scalar
computation, in which every ball element goes through kak."""

import numpy as np
import pytest

from anoctl.cartan import kak, mu_gaps
from anoctl.domain import dynamical_relation_scan, gaussian_domain_sampler, in_bad_set
from anoctl.forms import make_witt_form
from anoctl.limits import sample_limit_set
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import GroupBall, divergence_profile, enumerate_ball
from test_cartan import opq_chamber, random_opq_K
from test_cli import pingpong_o32

def switching_pair():
    """An O(3,2) pair whose cube a^3 sits at spectral norm 1e6, where
    kak's opq path switches, so the screen must take kak's side."""
    form = make_witt_form(3, 2)
    a = opq_chamber(form, [np.log(1e6) / 3, 0.5])
    k = random_opq_K(np.random.default_rng(3), 3, 2)
    return form, [("a", a), ("b", k @ opq_chamber(form, [2.0, 1.0]) @ k.T)]


SETUPS = {
    "schottky-o21": (schottky_o21, 5),
    "mixed-o21": (mixed_o21, 5),
    "switching-o32": (switching_pair, 3),
    # radius 5 reaches elements whose second exponent kak's opq path reads as 0
    "pingpong-o32": (lambda: (make_witt_form(3, 2), pingpong_o32(0)), 5),
}


def setup(name, radius=None):
    build, default = SETUPS[name]
    form, gens = build()
    rs = build_root_system("B" if form.p > form.q else "D", form.q)
    return form, rs, enumerate_ball(gens, radius or default)


@pytest.fixture
def unscreened(monkeypatch):
    """Turn the screen off: the ball's batch has all-inf margins, which
    settle nothing, so every element is decomposed."""
    batch = GroupBall.cartan_batch

    def blind(ball, form=None):
        b = batch(ball, form)
        return b._replace(margin=np.full_like(b.margin, np.inf),
                          flag_margin=np.full_like(b.flag_margin, np.inf))

    def off():
        monkeypatch.setattr(GroupBall, "cartan_batch", blind)
    return off


def assert_all_decomposed(kak_calls, ball):
    """Every element but the identity went through kak, once."""
    assert sorted(kak_calls.decomposed(ball)) == np.flatnonzero(ball.lengths).tolist()


def domain_points(form, sample, count=8, seed=0):
    stream = gaussian_domain_sampler(form, np.random.default_rng(seed))
    points = []
    while len(points) < count:
        pt = next(stream)
        if pt.is_interior and not in_bad_set(pt, sample, 1e-9)[0]:
            points.append(pt)
    return points


def sample_record(sample):
    return [(word, r, gap, cols.tobytes()) for word, r, gap, cols in
            zip(sample.words, sample.lengths.tolist(), sample.gaps.tolist(),
                sample.columns)]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_screened_results_equal_unscreened(name, unscreened, kak_calls):
    form, rs, ball = setup(name)
    theta = ThetaSet(rs, frozenset({1}))
    profile = divergence_profile(ball, rs, form)
    sample = sample_limit_set(ball, theta, form)
    points = domain_points(form, sample)
    flags = dynamical_relation_scan(points, ball, sample)

    unscreened()
    _, _, fresh = setup(name)
    assert divergence_profile(fresh, rs, form) == profile
    kak_calls.clear()
    reference = sample_limit_set(fresh, theta, form)
    assert sample_record(reference) == sample_record(sample)
    assert_all_decomposed(kak_calls, fresh)
    assert dynamical_relation_scan(points, fresh, reference) == flags
    for word, min_gap in zip(flags["word"], flags["min_gap"]):
        gaps = mu_gaps(kak(fresh.matrix(word), form).mu, rs)
        assert min_gap == min(gaps[a] for a in theta.members)
    if name == "mixed-o21":
        assert flags     # the non-discrete control does produce flags


@pytest.mark.parametrize("root", [1, 2])
def test_gl_screened_sample_equals_unscreened(root, unscreened, kak_calls):
    # the mixed-o21 generators as plain GL(3) matrices: the gl batch
    gens = mixed_o21()[1]
    theta = ThetaSet(build_root_system("A", 2), frozenset({root}))
    sample = sample_limit_set(enumerate_ball(gens, 5), theta)
    unscreened()
    fresh = enumerate_ball(gens, 5)
    kak_calls.clear()
    reference = sample_limit_set(fresh, theta)
    assert len(sample) > 100
    assert sample_record(reference) == sample_record(sample)
    assert_all_decomposed(kak_calls, fresh)


def test_onC_screened_results_equal_unscreened(unscreened, kak_calls):
    # mixed-o21's generators in the complex orthogonal group
    form, gens = make_witt_form(2, 1, "complex"), mixed_o21()[1]
    rs = build_root_system("B", 1)
    theta = ThetaSet(rs, frozenset({1}))
    ball = enumerate_ball(gens, 6)
    profile = divergence_profile(ball, rs, form)
    # the profile's screen leaves most elements undecomposed
    assert len(kak_calls.decomposed(ball)) < len(ball) / 10
    sample = sample_limit_set(ball, theta, form)
    unscreened()
    fresh = enumerate_ball(gens, 6)
    assert divergence_profile(fresh, rs, form) == profile
    kak_calls.clear()
    assert sample_record(sample_limit_set(fresh, theta, form)) == sample_record(sample)
    assert_all_decomposed(kak_calls, fresh)
    assert len(sample) > 100


def test_schottky_kak_calls(kak_calls):
    form, rs, ball = setup("schottky-o21", radius=6)
    sample = sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    assert len(kak_calls.decomposed(ball)) <= len(sample) + 3
    points = domain_points(form, sample)
    kak_calls.clear()
    assert len(dynamical_relation_scan(points, ball, sample)) == 0
    assert kak_calls == []
    # the divergence screen decomposes a few elements per sphere
    divergence_profile(ball, rs, form)
    assert len(kak_calls.decomposed(ball)) <= 4 * (ball.radius + 1)


def test_scan_decomposes_only_its_flagged_elements_off_the_batch(kak_calls):
    form, rs, ball = setup("mixed-o21")
    sample = sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    kak_calls.clear()
    flags = dynamical_relation_scan(domain_points(form, sample), ball, sample)
    positions = {word: i for i, word in enumerate(ball.words)}
    flagged = {positions[word] for word in flags["word"]}
    inexact = set(np.flatnonzero(np.any(ball.cartan_batch(form).margin, axis=1)).tolist())
    # one stacked call, on the flagged elements with a margin, which are
    # some of the scanned ones
    assert kak_calls.rows(ball) == [sorted(flagged & inexact)]
    assert 0 < len(flagged) < np.count_nonzero(ball.lengths >= ball.radius)
