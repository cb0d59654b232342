"""The batched Cartan screen changes no result: divergence profiles,
limit samples and relation scans equal the unscreened scalar
computation, in which every ball element goes through kak."""

import dataclasses

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
    kak_opq switches paths, so the screen must take kak's side."""
    form = make_witt_form(3, 2)
    a = opq_chamber(form, [np.log(1e6) / 3, 0.5])
    k = random_opq_K(np.random.default_rng(3), 3, 2)
    return form, [("a", a), ("b", k @ opq_chamber(form, [2.0, 1.0]) @ k.T)]


SETUPS = {
    "schottky-o21": (schottky_o21, 5),
    "mixed-o21": (mixed_o21, 5),
    "switching-o32": (switching_pair, 3),
    # radius 5 reaches elements whose second exponent kak_opq reads as 0
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
        return dataclasses.replace(b, margin=np.full_like(b.margin, np.inf),
                                   flag_margin=np.full_like(b.flag_margin, np.inf))

    def off():
        monkeypatch.setattr(GroupBall, "cartan_batch", blind)
    return off


def assert_all_decomposed(ball, form=None):
    """Every element but the identity went through kak."""
    assert all(ball.decomposed(i, form) for i in np.flatnonzero(ball.lengths))


@pytest.fixture
def kak_calls(monkeypatch):
    """The indices of the ball elements decomposed through GroupBall, in
    the order they are decomposed."""
    calls = []
    decompose = GroupBall.decompose

    def counting(ball, indices, form=None):
        indices = [int(i) for i in indices]
        calls.extend(i for i in dict.fromkeys(indices)
                     if not ball.decomposed(i, form))
        return decompose(ball, indices, form)
    monkeypatch.setattr(GroupBall, "decompose", counting)
    return calls


def domain_points(form, sample, count=8, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        pt = gaussian_domain_sampler(form, rng)
        if pt.is_interior and not in_bad_set(pt, sample, "intersect", 1e-9)[0]:
            points.append(pt)
    return points


def sample_record(sample):
    return [(p.source_word, p.word_length, p.gap_at_source, p.frame.columns.tobytes())
            for p in sample.points]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_screened_results_equal_unscreened(name, unscreened):
    form, rs, ball = setup(name)
    theta = ThetaSet(rs, frozenset({1}))
    profile = divergence_profile(ball, rs, form)
    sample = sample_limit_set(ball, theta, form)
    points = domain_points(form, sample)
    flags = dynamical_relation_scan(points, ball, sample)

    unscreened()
    _, _, fresh = setup(name)
    assert divergence_profile(fresh, rs, form) == profile
    reference = sample_limit_set(fresh, theta, form)
    assert sample_record(reference) == sample_record(sample)
    assert_all_decomposed(fresh, form)
    # a fresh ball has no decompositions to share with the scan
    _, _, fresh = setup(name)
    assert dynamical_relation_scan(points, fresh, reference) == flags
    for word, min_gap in zip(flags["word"], flags["min_gap"]):
        gaps = mu_gaps(kak(fresh.matrix(word), form).mu, rs)
        assert min_gap == min(gaps[a] for a in theta.members)
    if name == "mixed-o21":
        assert flags     # the non-discrete control does produce flags


@pytest.mark.parametrize("root", [1, 2])
def test_gl_screened_sample_equals_unscreened(root, unscreened):
    # the mixed-o21 generators as plain GL(3) matrices: the gl batch
    gens = mixed_o21()[1]
    theta = ThetaSet(build_root_system("A", 2), frozenset({root}))
    sample = sample_limit_set(enumerate_ball(gens, 5), theta)
    unscreened()
    fresh = enumerate_ball(gens, 5)
    reference = sample_limit_set(fresh, theta)
    assert len(sample) > 100
    assert sample_record(reference) == sample_record(sample)
    assert_all_decomposed(fresh)


def test_onC_screened_results_equal_unscreened(unscreened):
    # mixed-o21's generators in the complex orthogonal group
    form, gens = make_witt_form(2, 1, "complex"), mixed_o21()[1]
    rs = build_root_system("B", 1)
    theta = ThetaSet(rs, frozenset({1}))
    ball = enumerate_ball(gens, 6)
    profile = divergence_profile(ball, rs, form)
    # the profile's screen leaves most elements undecomposed
    assert sum(ball.decomposed(i, form) for i in range(len(ball))) < len(ball) / 10
    sample = sample_limit_set(ball, theta, form)
    unscreened()
    fresh = enumerate_ball(gens, 6)
    assert divergence_profile(fresh, rs, form) == profile
    assert sample_record(sample_limit_set(fresh, theta, form)) == sample_record(sample)
    assert_all_decomposed(fresh, form)
    assert len(sample) > 100


def test_schottky_kak_calls(kak_calls):
    form, rs, ball = setup("schottky-o21", radius=6)
    sample = sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    assert len(kak_calls) <= len(sample) + 3
    points = domain_points(form, sample)
    sampled = len(kak_calls)
    assert len(dynamical_relation_scan(points, ball, sample)) == 0
    assert len(kak_calls) == sampled
    # the divergence screen decomposes a few elements per sphere
    divergence_profile(ball, rs, form)
    assert len(kak_calls) - sampled <= 4 * (ball.radius + 1)


def test_scan_reuses_the_samplers_decompositions(kak_calls):
    form, rs, ball = setup("mixed-o21")
    sample = sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    decomposed = set(kak_calls)
    kak_calls.clear()
    flags = dynamical_relation_scan(domain_points(form, sample), ball, sample)
    positions = {word: i for i, word in enumerate(ball.words)}
    flagged = {positions[word] for word in flags["word"]}
    assert sorted(kak_calls) == sorted(flagged - decomposed)
    assert len(flagged - decomposed) < len(flagged)
