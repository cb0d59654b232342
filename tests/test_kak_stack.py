"""The stacked kak: a stack (N, n, n) gives every slice the bits that
the one-matrix call gives it, and those bits are pinned by sha256
digests of the scalar implementation it replaced.  So do the rows that
a ball decomposes from the front its batch keeps (GroupBall.kak)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anoctl.cartan
from anoctl import limits
from anoctl.cartan import MuVector, cartan_mu_batch, chamber_exp, complex_pm_basis, kak
from anoctl.forms import make_witt_form
from anoctl.limits import sample_limit_set
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import divergence_profile, enumerate_ball
from conftest import random_orthogonal
from test_cartan import opq_element
from test_cli import pingpong_o32


def gl_stack(n, seed, count=96):
    """Alternately Gaussian matrices and products U diag(e^x) V with
    exponents spread over [-25, 25]."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        if j % 2:
            out.append(rng.standard_normal((n, n)))
        else:
            logs = np.sort(rng.uniform(-25, 25, n))[::-1]
            out.append(random_orthogonal(rng, n) @ np.diag(np.exp(logs)) @
                       random_orthogonal(rng, n))
    return np.stack(out)


def onC_stack():
    """The identity and conjugates of O(2,1, C) chamber elements by
    compact elements."""
    form = make_witt_form(2, 1, field_tag="complex")
    tmat = complex_pm_basis(3)
    rng = np.random.default_rng(5)
    stack = [np.eye(3, dtype=complex)]
    for lam in (0.5, 1.5, 4.0):
        k1 = tmat @ random_orthogonal(rng, 3) @ tmat.conj().T
        stack.append(k1 @ chamber_exp(MuVector("onC", np.array([lam])), form))
    return np.stack(stack), form


def ball_case(build, radius):
    form, gens = build()
    return enumerate_ball(gens, radius).matrices, form


CASES = {
    # the moderate path, with and without peeling
    "mixed-o21": lambda: ball_case(mixed_o21, 6),
    # mostly the extreme path
    "schottky-o21": lambda: ball_case(schottky_o21, 5),
    "pingpong-o32": lambda: ball_case(lambda: (make_witt_form(3, 2), pingpong_o32(0)), 4),
    "gl3": lambda: (gl_stack(3, 3), None),
    "gl4": lambda: (gl_stack(4, 4), None),
    "onC-21": onC_stack,
}

# sha256 of the bytes of every k, mu.values and l in stack order, from
# the one-matrix-at-a-time kak that the stacked one replaced (onC: from
# the stacked SVD path that replaced the eigen-log of g* g)
DIGESTS = {
    "mixed-o21": (
        "8d39aabadfd2692d69cab62dd111420d30deeaf2fced18172ced981666f335d6",
        "08b08648905be603d54fe07739ef89c75f78abe74782dd444bc9e846aa42c0f2",
        "33d83b1c6774f0a2f166c1bc15f9fb45a889622c645ce1f56069481ce459f7ca"),
    "schottky-o21": (
        "8205a8ed0c982edd5c74e27da6609061e1684fcc9728b8025cbc57070ec074da",
        "2487cb84824d95c7b05c63840452cfe0b6f5d5aa428be8ea79fee093e6d3b93b",
        "1c168bbb99db053bee276ef08cf3849e235b16ab25d83c61563734ab527338a4"),
    "pingpong-o32": (
        "e89d02ab402d233b00347059cb5479b11f63273a2f10d9d1a7826d3cc8aedf94",
        "c4932bcc825e55e069f0191595c370c58eecb3c05683b533d1db7e3d12ce80a2",
        "262d66575cabf4801d245df8f6fb8e384e343fce0c9bcd50b18310c9cc07be66"),
    "gl3": (
        "e528da133716a0f015732f2cd4b36f00581fe31f40f0b84c9f8757369a39699f",
        "bf77dac7569086f291b91e3c30ad5d20544f147e993210bc5345b64e3ada3f10",
        "31b814061ea841278b81e7a7d245c4056f2fe3fd7547e05b83dac5a738d2dbce"),
    "gl4": (
        "b983bc715fe5912ea13be1468d1e86c68da0135a498dfc15a9132e077594f45d",
        "268908655a63f2a181d781887b18cd53d669559fb7898cd817476ae6b482d32a",
        "05edf9321f6025c782e626d15ca9ab6f286e3e3cef4d3d2f61c5d1ddeab2186d"),
    "onC-21": (
        "d927ca3446046dbb118ffff614d430f2c17cfc834cee32f3bd2375796e498a65",
        "f4e6244bad7895626d84bc5b5881e2fede671ae003acbdefed1a43593f94d6be",
        "37f538f56675ad82dba598555a112b4be51bea706c9dd0d5140d5045f08fddf8"),
}


def digests(stacked):
    """sha256 of the bytes of every k, mu and l of a stacked result (k,
    mu, l), in stack order."""
    return tuple(hashlib.sha256(part.tobytes()).hexdigest() for part in stacked)


def one_matrix(mats, form):
    """The one-matrix kak of every matrix, stacked as kak stacks them."""
    decs = [kak(g, form) for g in mats]
    return tuple(np.stack([part(d) for d in decs]) for part in
                 (lambda d: d.k, lambda d: d.mu.values, lambda d: d.l))


def bits(stacked):
    """The bytes of each row of k, mu and l, one tuple per row."""
    return [tuple(part[j].tobytes() for part in stacked) for j in range(len(stacked[0]))]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_kak_reproduces_the_pinned_digests(name):
    mats, form = CASES[name]()
    k, mu, l = kak(mats, form)
    assert len(k) == len(mu) == len(l) == len(mats)
    assert digests((k, mu, l)) == DIGESTS[name]


def test_one_matrix_calls_reproduce_the_pinned_digests():
    mats, form = CASES["pingpong-o32"]()
    assert digests(one_matrix(mats, form)) == DIGESTS["pingpong-o32"]


# top exponents around log(1e3), where g^T g starts to be peeled, and
# log(1e6), where kak's opq path switches to the SVD of g itself
NEAR_SWITCHES = st.sampled_from([np.log(1e3), np.log(1e6)]).flatmap(
    lambda x: st.floats(x - 1e-3, x + 1e-3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(elements=st.lists(st.tuples(NEAR_SWITCHES, st.floats(0.0, 1.0),
                                   st.integers(0, 2 ** 32 - 1)),
                         min_size=1, max_size=6))
def test_stacked_kak_matches_one_matrix_calls_bitwise(elements):
    for form in (make_witt_form(2, 1), make_witt_form(3, 2)):
        stack = np.stack([opq_element(form, [top, fraction * top][:form.q], seed)
                          for top, fraction, seed in elements])
        assert bits(kak(stack, form)) == bits(one_matrix(stack, form))


@pytest.mark.parametrize("n", [4, 5])
def test_stacked_onC_kak_matches_one_matrix_calls_bitwise(n):
    # norms 1 to 1e12 with zero, equal and spread exponents, so that the
    # slices resolve different numbers of exponents
    from test_cartan import complex_form, onC_element
    lams = [[top, fraction * top] for top in (0.0, 1e-6, 2.0, 14.0, 27.6)
            for fraction in (0.0, 0.5, 1.0)]
    stack = np.stack([onC_element(n, lam, seed) for seed, lam in enumerate(lams)])
    stacked = kak(stack, complex_form(n))
    assert sorted(set(np.count_nonzero(stacked[1], axis=1).tolist())) == [0, 1, 2]
    assert bits(stacked) == bits(one_matrix(stack, complex_form(n)))


# balls whose rows GroupBall.kak decomposes from the kept front, and the
# opq paths those rows take (moderate: spectral norm up to 1e6, where kak
# squares g; extreme: past it)
FRONT_CASES = {
    "schottky-o21": (schottky_o21, 5, {"moderate", "extreme"}),
    "mixed-o21": (mixed_o21, 6, {"moderate"}),
    "pingpong-o32": (lambda: (make_witt_form(3, 2), pingpong_o32(0)), 4,
                     {"moderate", "extreme"}),
    "gl": (lambda: (None, mixed_o21()[1]), 6, None),
    "2,1,C": (lambda: (make_witt_form(2, 1, "complex"), mixed_o21()[1]), 6, None),
}


@pytest.mark.parametrize("name", sorted(FRONT_CASES))
def test_ball_rows_from_the_kept_front_are_one_matrix_kak(name):
    build, radius, paths = FRONT_CASES[name]
    form, gens = build()
    ball = enumerate_ball(gens, radius)
    # unsorted, with repeats, and the first and last element
    picks = np.random.default_rng(0).integers(0, len(ball), 120)
    rows = np.concatenate([picks, [len(ball) - 1, 0], picks[:10]])
    assert bits(ball.kak(rows, form)) == bits(one_matrix(ball.matrices[rows], form))
    if paths is not None:
        top = ball.cartan_batch(form).front.s[rows, 0]
        assert set(np.where(top <= 1e6, "moderate", "extreme").tolist()) == paths


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pq=st.sampled_from([(2, 1), (3, 2), (4, 2), (3, 3), (5, 3)]), data=st.data())
def test_front_rows_are_one_matrix_kak_on_random_opq(pq, data):
    form = make_witt_form(*pq)
    # spectral norms 1 to 1e12; the other exponents are fractions of the top
    elements = data.draw(st.lists(st.tuples(
        st.floats(0.0, np.log(1e12)),
        st.lists(st.floats(0.0, 1.0), min_size=form.q - 1, max_size=form.q - 1),
        st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=5))
    stack = np.stack([opq_element(form, [top] + sorted((f * top for f in fractions),
                                                       reverse=True), seed)
                      for top, fractions, seed in elements])
    rows = data.draw(st.lists(st.integers(0, len(stack) - 1), min_size=1, max_size=8))
    front = cartan_mu_batch(stack, form).front
    assert bits(front.kak(rows)) == bits(one_matrix(stack[rows], form))


def test_a_ball_runs_one_front_per_form(monkeypatch):
    # the sampler, the divergence profile and GroupBall.gaps all decompose
    # from the front that the ball's batch keeps
    sizes, front = [], anoctl.cartan._front

    def counting(g, form):
        sizes.append(len(g))
        return front(g, form)
    monkeypatch.setattr(anoctl.cartan, "_front", counting)
    form, gens = make_witt_form(3, 2), pingpong_o32(0)
    ball = enumerate_ball(gens, 5)
    rs = build_root_system("B", 2)
    sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    divergence_profile(ball, rs, form)
    ball.gaps(np.arange(len(ball)), rs, form)
    # some gaps needed kak
    assert np.any(ball.cartan_batch(form).margin)
    assert sizes == [len(ball)]


def test_the_kept_front_is_read_only():
    form, gens = mixed_o21()
    ball = enumerate_ball(gens, 3)
    front = ball.cartan_batch(form).front
    for part in (front.b, front.u, front.s, front.vh, front.resolved):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0
    # the batch widens a copy of the band mask to kak's squared path; the
    # front's mask, which does not resolve the identity's exponent, stays
    assert not front.resolved[0].any()
    # the ball's own matrices stay writable
    assert ball.matrices.flags.writeable


def kak_error(g, form=None):
    with pytest.raises(ValueError) as exc:
        kak(g, form)
    return str(exc.value)


@pytest.mark.parametrize("bad", [
    np.diag([np.nan, 1.0, 1.0]),
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([2.0, 1.0, 1.0]),
])
def test_stacked_opq_raises_the_error_of_the_first_bad_matrix(bad):
    form = make_witt_form(2, 1)
    good = opq_element(form, [2.0], 0)
    stack = np.stack([good, bad, np.diag([3.0, 1.0, 1.0]), np.full((3, 3), np.nan)])
    assert kak_error(stack, form) == kak_error(bad, form)


@pytest.mark.parametrize("bad", [
    np.zeros((3, 3)),
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([1.0, 1.0, np.nan]),
])
def test_stacked_gl_raises_the_error_of_the_first_bad_matrix(bad):
    stack = np.stack([np.eye(3), bad, np.zeros((3, 3)), np.diag([np.inf] * 3)])
    assert kak_error(stack) == kak_error(bad)


def test_empty_stacks_give_no_decompositions():
    for mats, form, r in ((np.zeros((0, 3, 3)), make_witt_form(2, 1), 1),
                          (np.zeros((0, 4, 4)), None, 4),
                          (np.zeros((0, 3, 3)), make_witt_form(2, 1, "complex"), 1)):
        k, mu, l = kak(mats, form)
        assert k.shape == l.shape == mats.shape and mu.shape == (0, r)


# the sampler's decomposed index sets on the benchmark's limitset runs
# (pingpong-o32 on the pair of tests/test_cli.py), from the loop that
# decomposed one element at a time: (count, sha256 of the sorted int64
# indices)
SAMPLER_SETS = {
    "schottky-o21": (schottky_o21, 7, 12,
                     "1c8b695a4625de0d8fe7fa548034c1b1754b5e10142d0a66da7483d812916ad5"),
    "mixed-o21": (mixed_o21, 7, 2038,
                  "f17aa4bede6ba5b03818f9549a4e9a713f629ef4940cd1be459c2234fd4e38d1"),
    "pingpong-o32": (lambda: (make_witt_form(3, 2), pingpong_o32(0)), 6, 798,
                     "a861aa0a4db22c1bd46b4b73196a02d6c252c3ed69860501aac2ba00d89e4621"),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SETS))
def test_sampler_decomposes_the_same_elements(name, kak_calls):
    build, radius, count, digest = SAMPLER_SETS[name]
    form, gens = build()
    ball = enumerate_ball(gens, radius)
    rs = build_root_system("B" if form.p > form.q else "D", form.q)
    sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    # each element once
    done = sorted(kak_calls.decomposed(ball))
    assert len(done) == len(set(done)) == count
    assert hashlib.sha256(np.array(done, dtype=np.int64).tobytes()).hexdigest() == digest


def test_sampler_makes_one_kak_call_per_block(kak_calls):
    # pingpong-o32 at radius 6: its blocks hold both elements whose gaps
    # the batch gives (margin 0) and elements whose gaps need kak
    build, radius, count, _ = SAMPLER_SETS["pingpong-o32"]
    form, gens = build()
    ball = enumerate_ball(gens, radius)
    rs = build_root_system("B", 2)
    sample_limit_set(ball, ThetaSet(rs, frozenset({1})), form)
    # the sampler's candidates, in blocks of 1, 2, 4, ... up to _PREFETCH
    batch = ball.cartan_batch(form)
    approx, slack = batch.gaps(rs)
    candidates = np.flatnonzero((ball.lengths > 0) & (approx[:, 0] + slack[:, 0] > 1.0))
    block_of, start, size = {}, 0, 1
    while start < len(candidates):
        block_of.update(dict.fromkeys(candidates[start:start + size].tolist(), start))
        start, size = start + size, min(2 * size, limits._PREFETCH)
    calls = kak_calls.rows(ball)
    blocks = [{block_of[i] for i in call} for call in calls]
    assert all(len(block) == 1 for block in blocks)
    starts = [block.pop() for block in blocks]
    assert starts == sorted(set(starts))
    done = [i for call in calls for i in call]
    assert len(done) == len(set(done)) == count
    exact = ~np.any(batch.margin, axis=1)
    assert any(exact[call].any() and not exact[call].all() for call in calls)
