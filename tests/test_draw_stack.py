"""Parity of the stacked domain draw loops with the pair-by-pair and
try-by-try loops they replace: the same results, bit for bit, and for
the expansion certificates the same final rng state, whether one flag
or many advance together."""

import contextlib
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from anoctl import domain
from anoctl.domain import (
    MEMBERSHIP_TOL,
    SAMPLER_BLOCK,
    ExpansionResult,
    NotInCompactificationError,
    expansion_certificate,
    expansion_certificates,
    gaussian_domain_sampler,
    in_Xbar,
)
from anoctl.forms import (
    Frame,
    kernel_mask,
    make_witt_form,
    orthonormalize,
    principal_sines,
    restrict,
    restrict_kernel,
)
from anoctl.limits import sample_limit_set
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball, word_inverse
from test_cli import pingpong_o32

RADII = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


# ---------------------------------------------------------------------------
# scalar references (the loops before stacking)


def _perturbed_line(rng, line, max_angle, ambient):
    v = line.columns[:, 0]
    u = rng.standard_normal(ambient)
    u -= v * (v @ u)
    u /= np.linalg.norm(u)
    phi = rng.uniform(0.2, 1.0) * max_angle
    return Frame.from_spanning(np.cos(phi) * v + np.sin(phi) * u)


def expansion_reference(flag, ray, ball, c, q=1, grid=8, rng=None, radii=RADII):
    rng = rng or np.random.default_rng(0)
    n = flag.ambient_dim
    candidates = [("", np.eye(n))]
    for w in ray:
        iw = word_inverse(w)
        candidates.append((iw, ball.matrix(iw)))
    best = (-np.inf, None, None)
    tested = 0
    for word, mat in candidates:
        for radius in radii:
            factors = []
            for _ in range(grid):
                near = _perturbed_line(rng, flag, 0.9 * radius, n)
                extra = rng.standard_normal((n, q - 1)) if q > 1 else \
                    np.zeros((n, 0))
                wplane = Frame.from_spanning(np.hstack([near.columns, extra]))
                lline = _perturbed_line(rng, flag, 0.9 * radius, n)
                if wplane.k != q:
                    continue
                before = float(principal_sines(lline, wplane)[0])
                if before < 1e-12:
                    continue
                moved_w = Frame.from_spanning(mat @ wplane.columns)
                moved_l = Frame.from_spanning(mat @ lline.columns)
                after = float(principal_sines(moved_l, moved_w)[0])
                factors.append(after / before)
                tested += 1
            if not factors:
                continue
            factor = min(factors)
            if factor >= c:
                return ExpansionResult(True, word, radius, factor, tested)
            if factor > best[0]:
                best = (factor, word, radius)
    return ExpansionResult(False, best[1], best[2] or radii[-1],
                           best[0] if best[0] > -np.inf else 0.0, tested)


def sampler_reference(form, rng, tol=1e-9, max_tries=5000):
    n, q = form.n, form.q
    for _ in range(max_tries):
        w = Frame.from_spanning(rng.standard_normal((n, q)))
        try:
            return in_Xbar(w, form, tol)
        except NotInCompactificationError:
            continue
    raise RuntimeError("rejection sampling failed")


# ---------------------------------------------------------------------------
# expansion certificates


def preset_case(build, radius):
    form, gens = build()
    ball = enumerate_ball(gens, radius)
    theta = ThetaSet(build_root_system("B", 1), frozenset({1}))
    return ball, sample_limit_set(ball, theta, form, min_gap=1.0)


def pingpong_case():
    ball = enumerate_ball(pingpong_o32(0), 3)
    theta = ThetaSet(build_root_system("B", 2), frozenset({1}))
    return ball, sample_limit_set(ball, theta, make_witt_form(3, 2), min_gap=1.0)


CASES = {
    "schottky-o21": lambda: preset_case(schottky_o21, 4),
    "mixed-o21": lambda: preset_case(mixed_o21, 4),
    "pingpong-o32": pingpong_case,
}


def rays(sample, count=8):
    for word, cols in zip(sample.words, sample.columns[:count]):
        yield Frame(cols), [word[:k] for k in range(1, len(word) + 1)]


def assert_same_certificate(ball, flag, ray, c, q=1, seed=0, **kwargs):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expansion_reference(flag, ray, ball, c, q=q, rng=ref_rng, **kwargs)
    result = expansion_certificate(flag, ray, ball, c, q=q, rng=rng, **kwargs)
    assert result == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return result


@pytest.mark.parametrize("name", sorted(CASES))
def test_expansion_certificate_matches_the_pair_loop(name):
    ball, sample = CASES[name]()
    for flag, ray in rays(sample):
        assert_same_certificate(ball, flag, ray, 2.0)
    # a factor no grid reaches runs every grid and returns the best one
    flag, ray = next(rays(sample))
    assert not assert_same_certificate(ball, flag, ray, 1e9).success


def test_expansion_certificate_on_planes_of_the_o32_pair():
    ball, sample = pingpong_case()
    for flag, ray in rays(sample):
        res = assert_same_certificate(ball, flag, ray, 2.0, q=2)
        assert res.success and res.factor >= 2.0 and res.word != ""


def test_line_draw_is_the_uniform_draw_to_the_bit():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = [domain._line_draw(rng, 3) for _ in range(20000)]
    expected = [(ref.standard_normal(3), ref.uniform(0.2, 1.0)) for _ in draws]
    for (normal, t), (ref_normal, ref_t) in zip(draws, expected):
        assert np.array_equal(normal, ref_normal) and t == ref_t
    assert rng.bit_generator.state == ref.bit_generator.state


class ParallelExtraRng:
    """A Generator whose q - 1 extra columns are, on the listed draws, a
    multiple of the near line drawn just before, so that W drops rank.
    ``bit_generator.state`` reads and sets the draw count and the last
    draw too, and ``random`` records the ``uniform(0.2, 1.0)`` value that
    it stands for."""

    def __init__(self, seed, v, max_angle, parallel_draws):
        self._rng = np.random.default_rng(seed)
        self._v, self._max_angle = v, max_angle
        self._parallel = set(parallel_draws)
        self._extras, self._last = 0, None
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state, self._extras, self._last

    @state.setter
    def state(self, value):
        inner, self._extras, self._last = value
        self._rng.bit_generator.state = inner

    def uniform(self, low, high):
        value = self._rng.uniform(low, high)
        self._last = (self._last, value)
        return value

    def random(self):
        value = self._rng.random()
        self._last = (self._last, 0.2 + 0.8 * value)
        return value

    def standard_normal(self, size):
        if isinstance(size, tuple):
            self._extras += 1
            if self._extras in self._parallel:
                (u, t), v = self._last, self._v
                u = u - v * (v @ u)
                u = u / np.linalg.norm(u)
                phi = t * self._max_angle
                near = np.cos(phi) * v + np.sin(phi) * u
                return np.repeat(3.0 * near[:, None], size[1], axis=1)
        draw = self._rng.standard_normal(size)
        self._last = draw
        return draw


@pytest.mark.parametrize("parallel_draws", [(2,), (1, 3, 8), (4, 5, 11)])
def test_expansion_certificate_skips_planes_that_drop_rank(parallel_draws):
    ball, sample = pingpong_case()
    flag, ray = next(rays(sample))
    v = flag.columns[:, 0]
    radii = (0.01, 1e-3)

    def stub():
        return ParallelExtraRng(3, v, 0.9 * radii[0], parallel_draws)

    ref_rng, rng = stub(), stub()
    expected = expansion_reference(flag, ray, ball, 1e9, q=2, rng=ref_rng,
                                   radii=radii)
    result = expansion_certificate(flag, ray, ball, 1e9, q=2, rng=rng,
                                   radii=radii)
    assert result == expected
    assert rng.bit_generator.state[:2] == ref_rng.bit_generator.state[:2]
    # each parallel draw in the first grid cost one pair
    grids = len(radii) * (len(ray) + 1)
    assert result.pairs_tested == 8 * grids - sum(d <= 8 for d in parallel_draws)


def test_a_certificate_that_drops_rank_and_succeeds_restores_the_stub():
    # W drops rank in the first grid of each word; every flag succeeds at
    # the middle radius of its first word, so its last grid is drawn and
    # undone: 5 grids of 8 extra draws, 3 of them parallel
    ball, sample = pingpong_case()
    flags, ray_list = zip(*islice(rays(sample), 4))
    radii = (0.01, 1e-3, 1e-4)

    def make_rng(i):
        return ParallelExtraRng(3 + i, flags[i].columns[:, 0], 0.9 * radii[0],
                                (2, 26, 30))

    def state(rng):
        return rng.bit_generator.state[:2]

    results = assert_same_certificates(ball, flags, ray_list, 2.0, make_rng, q=2,
                                       state=state, radii=radii)
    for i, (flag, ray, res) in enumerate(zip(flags, ray_list, results)):
        assert res.success and res.neighborhood_radius == radii[1]
        assert res.pairs_tested == 5 * 8 - 3
        rng = make_rng(i)
        assert expansion_certificate(flag, ray, ball, 2.0, q=2, rng=rng,
                                     radii=radii) == res
        assert state(rng)[1] == 5 * 8


def test_expansion_certificate_measures_planes_squeezed_below_the_rank_tolerance():
    # the stretch along e2 leaves every moved plane 1e12 : 1 between its
    # singular directions, so it keeps one column, and the moved line
    # ends up far from that column: the squeezing word has the best factor
    stretch = np.diag([1.0, 1e12, 1.0])
    ball = SimpleNamespace(matrix=lambda word: stretch)
    flag = Frame.standard(3, [0])
    for seed in range(2):
        res = assert_same_certificate(ball, flag, ["a"], 1e9, q=2, seed=seed,
                                      radii=(1e-7,))
        assert res.word == "A" and res.factor > 1.0


def rng_state(rng):
    return rng.bit_generator.state


def assert_same_certificates(ball, flags, ray_list, c, make_rng, q=1,
                             state=rng_state, **kwargs):
    """Run expansion_certificates on all flags at once, each with its own
    rng from make_rng(index), against the pair loop on one flag at a
    time, and compare the results and every rng's final state."""
    ref_rngs = [make_rng(i) for i in range(len(flags))]
    rngs = [make_rng(i) for i in range(len(flags))]
    expected = [expansion_reference(flag, ray, ball, c, q=q, rng=rng, **kwargs)
                for flag, ray, rng in zip(flags, ray_list, ref_rngs)]
    results = expansion_certificates(flags, ray_list, ball, c, q=q, rngs=rngs,
                                     **kwargs)
    assert results == expected
    assert [state(rng) for rng in rngs] == [state(rng) for rng in ref_rngs]
    return results


@pytest.mark.parametrize("c", [2.0, 1e9])
@pytest.mark.parametrize("name", sorted(CASES))
def test_expansion_certificates_of_all_flags_match_the_pair_loop(name, c):
    ball, sample = CASES[name]()
    flags, ray_list = zip(*rays(sample))
    assert len(flags) == 8
    results = assert_same_certificates(ball, flags, ray_list, c,
                                       np.random.default_rng)
    # factor 2 certifies every flag, 1e9 none, after every grid
    assert [res.success for res in results] == [c == 2.0] * 8


def test_expansion_certificates_that_stop_at_different_steps():
    # rays cut to 0-3 words, all flags on one seed as the CLI draws them:
    # the flags succeed or run out of words after different grids
    ball, sample = CASES["mixed-o21"]()
    flags, ray_list = zip(*rays(sample))
    ray_list = [ray[:i % 4] for i, ray in enumerate(ray_list)]
    results = assert_same_certificates(ball, flags, ray_list, 2.0,
                                       lambda i: np.random.default_rng(7))
    assert {res.success for res in results} == {True, False}
    assert len({(res.word, res.neighborhood_radius) for res in results}) > 2
    assert len({res.pairs_tested for res in results}) > 2


def test_expansion_certificates_on_planes_of_the_o32_pair():
    ball, sample = pingpong_case()
    flags, ray_list = zip(*rays(sample))
    for c in (2.0, 1e9):
        assert_same_certificates(ball, flags, ray_list, c,
                                 lambda i: np.random.default_rng(i + 1), q=2)


def test_expansion_certificates_skip_planes_that_drop_rank_per_flag():
    # each flag's rng makes its own draws parallel, or none of them
    ball, sample = pingpong_case()
    flags, ray_list = zip(*islice(rays(sample), 4))
    radii = (0.01, 1e-3)
    parallel = [(2,), (1, 3, 8), (4, 5, 11), ()]

    def make_rng(i):
        return ParallelExtraRng(3 + i, flags[i].columns[:, 0], 0.9 * radii[0],
                                parallel[i])

    results = assert_same_certificates(ball, flags, ray_list, 1e9, make_rng, q=2,
                                       state=lambda rng: rng.bit_generator.state[:2],
                                       radii=radii)
    for res, ray, draws in zip(results, ray_list, parallel):
        grids = len(radii) * (len(ray) + 1)
        assert res.pairs_tested == 8 * grids - sum(d <= 8 for d in draws)


def test_expansion_certificates_measure_squeezed_planes_of_every_flag():
    # the stub of the one-flag test, on two flags whose rays differ
    stretch = np.diag([1.0, 1e12, 1.0])
    ball = SimpleNamespace(matrix=lambda word: stretch)
    flag = Frame.standard(3, [0])
    results = assert_same_certificates(ball, [flag, flag], [["a"], ["a", "aa"]],
                                       1e9, np.random.default_rng, q=2,
                                       radii=(1e-7,))
    assert [res.word for res in results] == ["A", "AA"]
    assert all(res.factor > 1.0 for res in results)


def test_expansion_certificates_of_no_flags():
    ball, _ = pingpong_case()
    assert expansion_certificates([], [], ball, 2.0) == []
    with pytest.raises(ValueError, match="c must be positive"):
        expansion_certificates([], [], ball, 0.0)


def test_flags_that_share_an_rng_are_refused():
    ball, sample = CASES["schottky-o21"]()
    flags, ray_list = zip(*rays(sample, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="each flag needs its own rng"):
        expansion_certificates(flags, ray_list, ball, 2.0, rngs=[rng, rng])


def test_empty_radii_are_refused():
    # a failure record reports the last radius, which an empty tuple lacks
    ball, sample = CASES["schottky-o21"]()
    flags, ray_list = zip(*rays(sample, 1))
    with pytest.raises(ValueError, match="^radii must not be empty$"):
        expansion_certificates(flags, ray_list, ball, 2.0, radii=())
    with pytest.raises(ValueError, match="^radii must not be empty$"):
        expansion_certificate(flags[0], ray_list[0], ball, 2.0, radii=())


def words_reached(ray, res):
    """The number of candidate words (the identity first) that a
    certificate measured."""
    words = ["", *map(word_inverse, ray)]
    return words.index(res.word) + 1 if res.success else len(words)


@pytest.mark.parametrize("c", [2.0, 1e9])
@pytest.mark.parametrize("name", [*sorted(CASES), "stop-at-different-steps"])
def test_one_factors_pass_per_word_reached(monkeypatch, name, c):
    ball, sample = CASES.get(name, CASES["mixed-o21"])()
    flags, ray_list = zip(*rays(sample))
    if name not in CASES:
        ray_list = [ray[:i % 4] for i, ray in enumerate(ray_list)]
    calls = {"_draw_grid": 0, "_factors": 0}

    def counted(func, call_through):
        def call(*args):
            calls[func] += 1
            return call_through(*args)
        return call

    for func in calls:
        monkeypatch.setattr(domain, func, counted(func, getattr(domain, func)))
    results = expansion_certificates(flags, ray_list, ball, c,
                                     rngs=[np.random.default_rng(7) for _ in flags])
    reached = max(map(words_reached, ray_list, results))
    assert calls == {"_draw_grid": reached, "_factors": reached}
    assert reached < sum(len(ray) + 1 for ray in ray_list)


def test_one_flag_is_expansion_certificate():
    ball, sample = CASES["schottky-o21"]()
    for (flag, ray), c in zip(rays(sample, 3), (2.0, 1e9, 5.0)):
        rng, one_rng = np.random.default_rng(11), np.random.default_rng(11)
        [result] = expansion_certificates([flag], [ray], ball, c, rngs=[rng])
        assert result == expansion_certificate(flag, ray, ball, c, rng=one_rng)
        assert rng_state(rng) == rng_state(one_rng)
        # without rngs each flag draws from a fresh default_rng(0)
        assert expansion_certificates([flag, flag], [ray, ray], ball, c) == \
            [expansion_certificate(flag, ray, ball, c)] * 2


# ---------------------------------------------------------------------------
# domain sampler


# mixed-o21's domain run takes 301 points from the (2, 1) stream
@pytest.mark.parametrize("p,q,count", [(2, 1, 60), (3, 2, 40), (4, 2, 30),
                                       (3, 3, 20), (5, 3, 2), (3, 0, 3),
                                       (2, 1, 301), (3, 2, 301)])
def test_sampler_matches_the_try_loop(p, q, count):
    form = make_witt_form(p, q)
    ref_rng = np.random.default_rng(p + q)
    stream = gaussian_domain_sampler(form, np.random.default_rng(p + q))
    for point in islice(stream, count):
        expected = sampler_reference(form, ref_rng)
        assert np.array_equal(point.frame.columns, expected.frame.columns)
        assert point.stratum == expected.stratum


@pytest.mark.parametrize("max_tries", [1, SAMPLER_BLOCK, 2 * SAMPLER_BLOCK + 5])
def test_sampler_exhaustion_leaves_the_try_loop_state(max_tries):
    # random lines of R^31 are almost never nonpositive for the (30, 1) form
    form = make_witt_form(30, 1)
    with pytest.raises(RuntimeError, match="rejection sampling failed"):
        sampler_reference(form, np.random.default_rng(0), max_tries=max_tries)
    stream = gaussian_domain_sampler(form, np.random.default_rng(0),
                                     max_tries=max_tries)
    with pytest.raises(RuntimeError, match="rejection sampling failed"):
        next(stream)


class Tries:
    """An rng whose standard_normal hands out the given tries (m, n, q)
    first, in place of the first draws of its blocks."""

    def __init__(self, tries):
        self.tries, self.rng = tries, np.random.default_rng(0)

    def standard_normal(self, shape):
        draws = self.rng.standard_normal(shape)
        count = min(len(self.tries), len(draws))
        draws[:count], self.tries = self.tries[:count], self.tries[count:]
        return draws


def witt_planes(p, q, rng):
    """q-planes of strata q, 1 and 0 for the (p, q) Witt form, each under
    a random orthonormal basis: e_1, ..., e_q (isotropic); e_1 with the
    negative vectors (e_i - e_{n+1-i}) / sqrt 2 for i = 2, ..., q; and
    those vectors for i = 1, ..., q."""
    n = p + q
    e = np.eye(n)
    negative = (e[:, :q] - e[:, ::-1][:, :q]) / np.sqrt(2)
    planes = [e[:, :q], np.column_stack([e[:, 0], negative[:, 1:]]), negative]
    return np.stack([plane @ np.linalg.qr(rng.standard_normal((q, q)))[0]
                     for plane in planes]), [q, 1, 0]


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 2), (3, 3)])
def test_sampler_strata_take_restrict_kernels_rule(p, q):
    form = make_witt_form(p, q)
    planes, strata = witt_planes(p, q, np.random.default_rng(p + q))
    vals = np.linalg.eigh(restrict(form, planes))[0]
    assert kernel_mask(vals, form).sum(-1).tolist() == strata
    assert [restrict_kernel(form, Frame(w))[1].k for w in planes] == strata
    # the tries on the boundary are accepted, with in_Xbar's strata
    points = list(islice(gaussian_domain_sampler(form, Tries(planes)), len(planes)))
    assert [pt.stratum for pt in points] == strata
    assert [in_Xbar(pt.frame, form).stratum for pt in points] == strata


def test_sampler_try_short_of_rank_raises_in_Xbars_error():
    form = make_witt_form(3, 2)
    # a nonpositive try of rank 1, after one full-rank interior try
    planes, _ = witt_planes(3, 2, np.random.default_rng(0))
    short = np.column_stack([planes[2][:, 0], 2 * planes[2][:, 0]])
    stream = gaussian_domain_sampler(form, Tries(np.stack([planes[2], short])))
    assert next(stream).stratum == 0
    with pytest.raises(ValueError) as error:
        next(stream)
    with pytest.raises(ValueError) as expected:
        in_Xbar(Frame.from_spanning(short), form)
    assert str(error.value) == str(expected.value) == "frame must have q = 2 columns"


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 3), (5, 3)])
def test_in_Xbar_is_the_stacked_rule_on_each_frame(p, q):
    form = make_witt_form(p, q)
    rng = np.random.default_rng(p + q)
    frames = np.concatenate([orthonormalize(rng.standard_normal((64, p + q, q)))[0],
                             witt_planes(p, q, rng)[0]])
    _, positive, strata = domain._membership(form, frames, MEMBERSHIP_TOL)
    assert positive.any() and not positive.all()

    def verdict(frame):
        try:
            return False, in_Xbar(Frame(frame), form).stratum
        except NotInCompactificationError:
            return True, None

    assert [verdict(frame) for frame in frames] == \
        [(True, None) if rejected else (False, stratum)
         for rejected, stratum in zip(positive.tolist(), strata.tolist())]


def test_membership_takes_one_eigh_per_block_and_per_in_Xbar(monkeypatch):
    form = make_witt_form(3, 2)     # its signature takes an eigvalsh
    calls = dict.fromkeys(("eigh", "eigvalsh", "orthonormalize"), 0)

    def counted(name, func):
        def call(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return call

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (domain, "orthonormalize")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    list(islice(gaussian_domain_sampler(form, np.random.default_rng(0)), 10))
    blocks = calls["orthonormalize"]
    assert blocks > 1 and calls == {"eigh": blocks, "eigvalsh": 0, "orthonormalize": blocks}
    planes, _ = witt_planes(3, 2, np.random.default_rng(0))
    for frame in [*planes, np.eye(5)[:, 1:3]]:      # boundary, interior, positive
        calls["eigh"] = 0
        with contextlib.suppress(NotInCompactificationError):
            in_Xbar(Frame(frame), form)
        assert calls == {"eigh": 1, "eigvalsh": 0, "orthonormalize": blocks}
