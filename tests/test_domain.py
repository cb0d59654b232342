import itertools

import numpy as np
import pytest

from anoctl import domain, forms
from anoctl.algebras import get_algebra
from anoctl.cartan import kak, mu_gaps
from anoctl.domain import (
    ACCUMULATION_TOL,
    CompactPoint,
    NotInCompactificationError,
    bad_set_distance,
    dynamical_relation_scan,
    expansion_certificate,
    gaussian_domain_sampler,
    in_Xbar,
    in_bad_set,
    orbit_coverage,
    subalgebra_kernel_dimension,
    subalgebra_point,
)
from anoctl.forms import (
    Frame,
    cosine_cuts,
    contains,
    cosines,
    intersects,
    make_witt_form,
    principal_sines,
    push_forward,
)
from anoctl.limits import LimitSample, sample_limit_set
from anoctl.presets import mixed_o21, o21_rotation, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball

B1 = build_root_system("B", 1)
THETA1 = ThetaSet(B1, frozenset({1}))


def schottky_setup(radius=5):
    form, gens = schottky_o21()
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, THETA1, form, min_gap=1.0)
    return form, gens, ball, sample


# ---------------------------------------------------------------------------
# membership


def test_in_xbar_examples():
    form = make_witt_form(2, 1)
    assert in_Xbar(Frame.from_spanning(np.array([1.0, 0.0, -1.0])), form).stratum == 0
    assert in_Xbar(Frame.standard(3, [0]), form).stratum == 1
    with pytest.raises(NotInCompactificationError) as exc:
        in_Xbar(Frame.standard(3, [1]), form)
    assert exc.value.violation == pytest.approx(1.0)
    assert type(exc.value.violation) is float


def test_in_xbar_accepts_the_empty_plane_of_a_definite_form():
    form = make_witt_form(3, 0)
    assert in_Xbar(Frame(np.zeros((3, 0))), form).stratum == 0


def test_in_xbar_wrong_dimension():
    form = make_witt_form(3, 2)
    with pytest.raises(ValueError):
        in_Xbar(Frame.standard(5, [0]), form)


def test_interior_preserved_by_group(rng):
    # stratum-0 points stay stratum 0 under form-preserving elements
    from test_cartan import random_opq
    form = make_witt_form(3, 2)
    # the stream and random_opq share the rng
    for pt in itertools.islice(gaussian_domain_sampler(form, rng), 30):
        if not pt.is_interior:
            continue
        g = random_opq(rng, form)
        moved = in_Xbar(Frame.from_spanning(g @ pt.frame.columns), form)
        assert moved.stratum == 0


# ---------------------------------------------------------------------------
# bad sets


def test_interior_points_avoid_bad_set(rng):
    form, gens, ball, sample = schottky_setup()
    for pt in itertools.islice(gaussian_domain_sampler(form, rng), 200):
        if pt.is_interior:
            hit, witness = in_bad_set(pt, sample)
            assert not hit and witness is None


def test_constructed_point_hits_bad_set():
    form, gens, ball, sample = schottky_setup()
    pt = CompactPoint(Frame(sample.columns[3]), 1, form)
    hit, witness = in_bad_set(pt, sample)
    assert hit and witness == sample.words[3]


def test_boundary_gap_point_not_in_bad_set():
    # an isotropic line in a shadow gap of the ping-pong configuration:
    # between the attracting shadows of a and of b (the a/A midpoint
    # would land on the b-axis instead)
    form, gens, ball, sample = schottky_setup()
    by_word = dict(zip(sample.words, sample.columns[:, :, 0]))
    va, vb = by_word["a"], by_word["b"]
    mid = va + vb
    mid /= np.linalg.norm(mid)
    # project the midpoint direction back onto the isotropic cone
    c = witt_cone_point(mid, form)
    pt = in_Xbar(Frame.from_spanning(c), form)
    assert pt.stratum == 1
    hit, _ = in_bad_set(pt, sample, tol=1e-4)
    assert not hit


def witt_cone_point(v, form):
    """Nearest-direction isotropic representative of a 3-vector mix."""
    # in the +- basis the cone is x+^2 + m^2 = x-^2; rescale the negative part
    from anoctl.cartan import witt_pm_basis
    c = witt_pm_basis(2, 1)
    w = c.T @ v
    pos_norm = np.linalg.norm(w[:2])
    w = np.array([w[0], w[1], np.sign(w[2]) * pos_norm if w[2] != 0 else pos_norm])
    return c @ w


def test_bad_set_equivariance(rng):
    # compact elements preserve the metric, so the thresholded predicate
    # is exactly equivariant; a mild boost distorts distances by at most
    # exp(2t), so equivariance holds with the correspondingly slackened
    # tolerance
    from anoctl.presets import o21_boost
    form, gens, ball, sample = schottky_setup()

    def moved_sample_for(g):
        return LimitSample(sample.words, sample.lengths, sample.gaps, np.stack(
            [Frame.from_spanning(g @ cols).columns for cols in sample.columns]),
            sample.theta, sample.form)

    rot = o21_rotation(0.77)
    rot_sample = moved_sample_for(rot)
    boost = o21_boost(0.5)
    boost_sample = moved_sample_for(boost)
    distortion = np.exp(2 * 0.5)
    for pt in itertools.islice(gaussian_domain_sampler(form, rng), 40):
        hit = in_bad_set(pt, sample, tol=1e-5)[0]
        moved = in_Xbar(Frame.from_spanning(rot @ pt.frame.columns), form)
        assert in_bad_set(moved, rot_sample, tol=1e-5)[0] == hit
        bmoved = in_Xbar(Frame.from_spanning(boost @ pt.frame.columns), form)
        if hit:
            assert in_bad_set(bmoved, boost_sample, tol=1e-5 * distortion)[0]
        else:
            assert not in_bad_set(bmoved, boost_sample, tol=1e-5 / distortion)[0]


# ---------------------------------------------------------------------------
# dynamical relation scan


def test_scan_schottky_has_no_flags(rng):
    form, gens, ball, sample = schottky_setup()
    points = [p for p in itertools.islice(gaussian_domain_sampler(form, rng), 60)
              if p.is_interior]
    flags = dynamical_relation_scan(points, ball, sample)
    assert len(flags) == 0


def test_scan_flags_nondiscrete_control(rng):
    formm, gensm = mixed_o21()
    ballm = enumerate_ball(gensm, 5)
    sample = sample_limit_set(ballm, THETA1, formm, min_gap=1.0)
    points = [p for p in itertools.islice(gaussian_domain_sampler(formm, rng), 40)
              if p.is_interior]
    flags = dynamical_relation_scan(points, ballm, sample)
    assert len(flags) >= 1
    assert all(r > 1e-3 for r in flags["residual"])


def test_scan_rejects_bad_points():
    form, gens, ball, sample = schottky_setup()
    bad = CompactPoint(Frame(sample.columns[0]), 1, form)
    with pytest.raises(ValueError):
        dynamical_relation_scan([bad], ball, sample)
    # the message names the first point in the bad set and its first
    # witness at the scan's tolerance
    clean = next(pt for pt in gaussian_domain_sampler(form, np.random.default_rng(1))
                 if np.min(principal_sines(sample.columns, pt.frame)) > 0.1)
    j = len(sample) - 1
    first = np.flatnonzero(principal_sines(sample.columns, Frame(sample.columns[j]))[:, 0]
                           < ACCUMULATION_TOL)[0]
    points = [clean, CompactPoint(Frame(sample.columns[j]), 1, form), bad]
    with pytest.raises(ValueError, match=rf"^scan point 1 is already in the bad set "
                                         rf"\(witness '{sample.words[first]}'\)$"):
        dynamical_relation_scan(points, ball, sample)


def test_scan_empty_inputs():
    form, gens, ball, sample = schottky_setup()
    flags = dynamical_relation_scan([], ball, sample)
    assert len(flags) == 0
    assert sorted(flags.columns) == ["min_gap", "point", "residual", "word"]
    # points, but a ball with no element as long as min_word_length
    points = list(itertools.islice(gaussian_domain_sampler(form, np.random.default_rng(0)), 3))
    flags = dynamical_relation_scan(points, ball, sample, tol=0.0,
                                    min_word_length=ball.radius + 1)
    assert flags.columns == {"point": [], "word": [], "min_gap": [], "residual": []}


# ---------------------------------------------------------------------------
# expansion certificates


def test_expansion_certificate_on_limit_flags():
    form, gens, ball, sample = schottky_setup()
    for word, cols in zip(sample.words, sample.columns[:4]):
        ray = [word[:k] for k in range(1, len(word) + 1)]
        res = expansion_certificate(Frame(cols), ray, ball, c=2.0,
                                    rng=np.random.default_rng(7))
        assert res.success and res.factor >= 2.0
        assert res.word != ""


def test_expansion_factor_grows_with_ray_depth():
    # deeper ray elements expand more, on matched (smaller) neighborhoods
    # of the flag; a gentle translation keeps all scales measurable
    form, gens = schottky_o21(translation=2.0)
    ball = enumerate_ball(gens, 3)
    sample = sample_limit_set(ball, THETA1, form, min_gap=0.5)
    flag = Frame(sample.columns[sample.words.index("a")])
    factors = []
    for n, radius in [(1, 5e-3), (2, 1e-4), (3, 2e-6)]:
        res = expansion_certificate(flag, ["a" * n], ball, c=2.0,
                                    radii=(radius,),
                                    rng=np.random.default_rng(7))
        assert res.success
        factors.append(res.factor)
    assert factors[0] < factors[1] < factors[2]


def test_expansion_identity_certifies_c_equal_one():
    form, gens, ball, sample = schottky_setup()
    res = expansion_certificate(Frame(sample.columns[0]), ["a"], ball, c=1.0,
                                rng=np.random.default_rng(7))
    assert res.success and res.word == ""


def test_expansion_rotation_ray_fails():
    form, gens, ball, sample = schottky_setup()
    rball = enumerate_ball([("r", o21_rotation(0.7))], 3)
    res = expansion_certificate(Frame(sample.columns[0]), ["r", "rr"], rball,
                                c=2.0, rng=np.random.default_rng(7))
    assert not res.success
    assert res.factor < 2.0


# ---------------------------------------------------------------------------
# coverage


def test_orbit_coverage_monotone_in_radius(rng):
    # identical sampled points (same seed) so the bigger ball can only
    # cover more of them
    form, gens, ball, sample = schottky_setup(radius=4)
    small = enumerate_ball(gens, 1)
    core = [next(gaussian_domain_sampler(form, np.random.default_rng(5)))]

    def seeded_sampler():
        return gaussian_domain_sampler(form, np.random.default_rng(99))

    curve_small = orbit_coverage(core, small, seeded_sampler(), 40,
                                 sample=sample, d_core=0.3)
    curve_big = orbit_coverage(core, ball, seeded_sampler(), 40,
                               sample=sample, d_core=0.3)
    for fs, fb in zip(curve_small.fractions, curve_big.fractions):
        if not (np.isnan(fs) or np.isnan(fb)):
            assert fb >= fs - 1e-12


def test_orbit_coverage_empty_ball_is_core_fraction(rng):
    form, gens, ball, sample = schottky_setup(radius=4)
    core = [next(gaussian_domain_sampler(form, np.random.default_rng(5)))]
    identity_ball = enumerate_ball(gens, 0)
    curve = orbit_coverage(core, identity_ball,
                           gaussian_domain_sampler(form, rng), 30,
                           sample=sample, d_core=0.2)
    # with only the identity, coverage counts points already near the core
    assert all(0.0 <= f <= 1.0 for f in curve.fractions if not np.isnan(f))


def test_orbit_coverage_counts_the_points_it_takes(rng):
    # a stream of 3 points asked for 5 trials: the curve is over the 3
    form, gens, ball, sample = schottky_setup(radius=4)
    points = list(itertools.islice(gaussian_domain_sampler(form, rng), 3))
    core = points[:1]
    for with_sample in (sample, None):
        curve = orbit_coverage(core, ball, iter(points), 5, sample=with_sample)
        assert curve == orbit_coverage(core, ball, iter(points), 3, sample=with_sample)
        assert max(curve.counts) <= 3 and curve.fractions[-1] > 0
    assert orbit_coverage(core, ball, iter(()), 5, sample=sample).counts == (0,) * 4


def test_orbit_coverage_blocks_of_trials_give_one_curve(monkeypatch):
    # one trial per block, the default blocks and one block of all trials
    # give the curve whose counts in_bad_set gives point by point
    form, gens, ball, sample = schottky_setup(radius=4)
    points = list(itertools.islice(
        gaussian_domain_sampler(form, np.random.default_rng(7)), 12))
    curves = []
    for table in (1, forms._TABLE, 10 ** 9):
        monkeypatch.setattr(forms, "_TABLE", table)
        curves.append(orbit_coverage(points[:1], ball, iter(points), 12,
                                     sample=sample))
    assert curves[0] == curves[1] == curves[2]
    assert curves[0].counts == tuple(
        sum(not in_bad_set(p, sample, tol=m)[0] for p in points)
        for m in domain.COVERAGE_MARGINS)


def test_stretched_plane_keeps_its_dimension(rng):
    # a^4 has mu ~ (24, 2): it stretches a 2-plane's directions by about
    # e^22 relative to each other, past the 1e-9 rank tolerance; coverage
    # and the relation scan must still push forward whole planes
    from test_cartan import opq_chamber, random_opq_K
    form = make_witt_form(3, 2)
    k = random_opq_K(rng, 3, 2)
    g = k @ opq_chamber(form, [6.0, 0.5]) @ k.T
    ball = enumerate_ball([("a", g)], 4)
    sample = sample_limit_set(ball, ThetaSet(build_root_system("B", 2),
                                             frozenset({1})), form)
    pt = next(p for p in gaussian_domain_sampler(form, rng) if p.is_interior)
    moved = {w: np.linalg.qr(m @ pt.frame.columns)[0]
             for w, m, _ in ball.elements}
    a4 = ball.matrix("aaaa")
    assert Frame.from_spanning(a4 @ pt.frame.columns).k == 1    # the rank drop

    # the core is the image of the point under a^4, so every trial hits
    core = Frame(moved["aaaa"])
    curve = orbit_coverage([core], ball, itertools.repeat(pt), 3,
                           sample=sample, d_core=1e-6)
    assert curve.fractions[0] == 1.0 and curve.counts[0] == 3

    # at tolerance 0 every pushed point is flagged with its residual
    flags = dynamical_relation_scan([pt], ball, sample, tol=0.0,
                                    min_word_length=1)
    assert flags["word"] == [w for w, _, r in ball.elements if r]
    for word, residual in zip(flags["word"], flags["residual"]):
        expected = min(principal_sines(cols, moved[word])[0]
                       for cols in sample.columns)
        assert residual == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_scan_residuals_equal_per_point_bad_set_distance(rng):
    # the stretched-plane case of the test above, with several points
    from test_cartan import opq_chamber, random_opq_K
    form = make_witt_form(3, 2)
    k = random_opq_K(rng, 3, 2)
    g = k @ opq_chamber(form, [6.0, 0.5]) @ k.T
    ball = enumerate_ball([("a", g)], 4)
    sample = sample_limit_set(ball, ThetaSet(build_root_system("B", 2),
                                             frozenset({1})), form)
    points = [p for p in itertools.islice(gaussian_domain_sampler(form, rng), 12)
              if p.is_interior]
    flags = dynamical_relation_scan(points, ball, sample, tol=0.0,
                                    min_word_length=1)
    pts = np.stack([p.frame.columns for p in points])
    expected = [(i, w, bad_set_distance(moved, sample))
                for w, m, r in ball.elements if r
                for i, moved in enumerate(push_forward(m, pts))]
    assert len(flags) == len(expected) > len(ball)
    assert list(zip(flags["point"], flags["word"])) == [e[:2] for e in expected]
    assert np.array_equal(flags["residual"], [e[2] for e in expected])


def per_hit_scan(points, ball, sample, tol=ACCUMULATION_TOL,
                 min_word_length=None):
    """The relation scan's former loop: one (int, float) pair per hit,
    read back element by element, and one flag tuple per pair."""
    if min_word_length is None:
        min_word_length = max(ball.radius, 1)
    elements = np.flatnonzero(ball.lengths >= min_word_length).tolist()
    line_path = points[0].frame.k == 1 and sample.columns.shape[-1] == 1
    if line_path:
        lines = sample.columns[:, :, 0]
        pts = np.stack([pt.frame.columns[:, 0] for pt in points], axis=1)
    else:
        pts = np.stack([pt.frame.columns for pt in points])
    flagged = []
    for index in elements:
        word, mat, r = ball.elements[index]
        if line_path:
            moved = mat @ pts
            moved /= np.linalg.norm(moved, axis=0, keepdims=True)
            cos = np.abs(lines @ moved)
            residuals = np.sqrt(np.clip(1 - np.max(cos, axis=0) ** 2, 0.0, 1.0))
        else:
            residuals = np.min(principal_sines(
                sample.columns, push_forward(mat, pts)[:, None])[..., 0], axis=1)
        hits = [(int(idx), float(residuals[idx]))
                for idx in np.flatnonzero(residuals > tol)]
        if hits:
            flagged.append((index, hits))
    flags = []
    for index, hits in flagged:
        word, mat, r = ball.elements[index]
        dec = kak(mat, sample.form)
        gaps = mu_gaps(dec.mu, sample.theta.root_system)
        gap = min(gaps[a] for a in sample.theta.members)
        flags.extend((idx, word, r, gap, resid) for idx, resid in hits)
    return flags


def assert_scan_matches_per_hit_loop(points, ball, sample, **kwargs):
    flags = dynamical_relation_scan(points, ball, sample, **kwargs)
    columns = ("point", "word", "min_gap", "residual")
    rows = list(zip(*(flags[key] for key in columns)))
    expected = per_hit_scan(points, ball, sample, **kwargs)
    assert rows == [(point, word, gap, residual)
                    for point, word, _, gap, residual in expected]
    # the flags keep no word length: a reduced word is its own length
    assert all(r == len(word) for _, word, r, _, _ in expected)
    assert sorted(flags.columns) == sorted(columns) and len(rows) == len(flags)
    # numpy scalars would make the report unserializable
    for row in rows:
        assert [type(x) for x in row] == [int, str, float, float]
    return flags


def test_scan_matches_per_hit_loop_on_mixed_o21_lines():
    form, gens = mixed_o21()
    ball = enumerate_ball(gens, 5)
    sample = sample_limit_set(ball, THETA1, form, min_gap=1.0)
    stream = gaussian_domain_sampler(form, np.random.default_rng(0))
    points = []
    while len(points) < 100:
        pt = next(stream)
        if pt.is_interior and not in_bad_set(pt, sample)[0]:
            points.append(pt)
    flags = assert_scan_matches_per_hit_loop(points, ball, sample)
    assert len(flags) > 10000


def test_scan_matches_per_hit_loop_on_o32_planes(rng):
    from test_cartan import opq_chamber, random_opq_K
    form = make_witt_form(3, 2)
    gens = [(name, k @ opq_chamber(form, [6.0, 2.0]) @ k.T)
            for name, k in zip("ab", (random_opq_K(rng, 3, 2) for _ in "ab"))]
    ball = enumerate_ball(gens, 3)
    sample = sample_limit_set(ball, ThetaSet(build_root_system("B", 2),
                                             frozenset({1})), form)
    points = [p for p in itertools.islice(gaussian_domain_sampler(form, rng), 30)
              if p.is_interior]
    assert points[0].frame.k == 2
    for tol in (0.0, 1e-4, ACCUMULATION_TOL):
        assert_scan_matches_per_hit_loop(points, ball, sample, tol=tol,
                                         min_word_length=1)


def o32_scan_setup(gens, radius, count, seed=0):
    """The ball of an O(3,2) pair, its line-flag sample and ``count``
    interior 2-planes clear of the bad set at the scan's tolerance."""
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, ThetaSet(build_root_system("B", 2),
                                             frozenset({1})), make_witt_form(3, 2))
    return ball, sample, clear_points(sample, count, seed)


def clear_points(sample, count, seed=0):
    """The first ``count`` interior points of the domain sampler seeded
    with ``seed`` that lie clear of the bad set at the scan's tolerance."""
    stream = gaussian_domain_sampler(sample.form, np.random.default_rng(seed))
    points = []
    while len(points) < count:
        pt = next(stream)
        if pt.is_interior and not in_bad_set(pt, sample, ACCUMULATION_TOL)[0]:
            points.append(pt)
    return points


def nondiscrete_o32(radius, count=20):
    """A chamber element and a compact element of O(3,2): the group is
    not discrete, so long words leave pushed planes off the bad set."""
    from test_cartan import opq_chamber, random_opq_K
    gens = [("a", opq_chamber(make_witt_form(3, 2), [2.0, 0.5])),
            ("b", random_opq_K(np.random.default_rng(3), 3, 2))]
    return o32_scan_setup(gens, radius, count)


def scan_blocks(monkeypatch, ball):
    """Record the table blocks of the scan's pass over the long elements
    of ``ball``: the returned list fills with their sizes."""
    long = np.count_nonzero(ball.lengths >= ball.radius)
    sizes = []

    def recording(count, width):
        blocks = list(forms.table_blocks(count, width))
        if count == long:
            assert not sizes, "one pass over the long elements"
            sizes.extend(len(range(count)[block]) for block in blocks)
        return iter(blocks)
    monkeypatch.setattr(domain, "table_blocks", recording)
    return sizes


def test_scan_matches_per_hit_loop_on_a_nondiscrete_o32_pair(monkeypatch):
    ball, sample, points = nondiscrete_o32(4)
    assert points[0].frame.k == 2 and sample.columns.shape[-1] == 1
    sizes = scan_blocks(monkeypatch, ball)
    flags = assert_scan_matches_per_hit_loop(points, ball, sample)
    assert len(flags) > 1000
    # 20 pushed 2-planes in R^5 per element: 16 elements per block
    assert sizes == [16] * 6 + [12]


def test_scan_blocks_of_136_schottky_elements_at_tol_0(monkeypatch):
    # at tol 0 every (element, point) pair is flagged unless its residual
    # rounds to 0 (long words pull the points within sqrt(eps) of the
    # sample); 12 sample lines and 10 points make a 120-entry table per
    # element
    form, gens, ball, sample = schottky_setup(6)
    points = clear_points(sample, 10)
    sizes = scan_blocks(monkeypatch, ball)
    flags = assert_scan_matches_per_hit_loop(points, ball, sample, tol=0.0)
    assert len(sample) == 12 and sum(sizes) == 972
    assert len(flags) > 7000 and len(set(flags["word"])) > 750
    assert sizes == [136] * 7 + [20]


def mixed_o21_scan_setup():
    """mixed-o21's radius-5 ball, its 206-line sample and 10 points."""
    form, gens = mixed_o21()
    ball = enumerate_ball(gens, 5)
    sample = sample_limit_set(ball, THETA1, form, min_gap=1.0)
    return ball, sample, clear_points(sample, 10)


def test_scan_blocks_of_seven_mixed_o21_elements(monkeypatch):
    # 206 sample lines and 10 points: 7 elements per block, and the
    # 324 long elements leave a ragged last block
    ball, sample, points = mixed_o21_scan_setup()
    sizes = scan_blocks(monkeypatch, ball)
    flags = assert_scan_matches_per_hit_loop(points, ball, sample)
    assert len(sample) == 206 and len(flags) > 1000
    assert sizes == [7] * 46 + [2]


@pytest.mark.parametrize("setup", [mixed_o21_scan_setup, lambda: nondiscrete_o32(4)],
                         ids=["mixed-o21", "o32-planes"])
def test_scan_does_not_depend_on_the_table_size(monkeypatch, setup):
    ball, sample, points = setup()

    def scan(table):
        monkeypatch.setattr(forms, "_TABLE", table)
        return dynamical_relation_scan(points, ball, sample)
    flags = scan(forms._TABLE)
    assert len(flags) > 1000
    for table in (1, 2 ** 22):
        assert scan(table) == flags


def test_scan_does_not_flag_a_residual_equal_to_tol():
    # a residual r read off a tol = 0 scan is rescanned at tol = r: the
    # pair lies in the cosine table's band, and r > r is false
    ball, sample, points = nondiscrete_o32(4, count=4)
    flags = dynamical_relation_scan(points, ball, sample, tol=0.0)
    row = len(flags) // 2
    point, word, r = (flags[key][row] for key in ("point", "word", "residual"))
    assert 0.0 < r < 1.0
    moved = push_forward(ball.matrix(word), points[point].frame.columns)
    c = cosines(moved, sample.columns)
    hi, lo = cosine_cuts(5, 1, r, smallest=True)
    assert np.any((lo <= c) & (c <= hi)) and not np.any(c > hi)
    flags = assert_scan_matches_per_hit_loop(points, ball, sample, tol=r)
    assert (point, word) not in set(zip(flags["point"], flags["word"]))
    assert len(flags) > 0


def test_scan_settles_a_pingpong_pair_from_the_cosine_table(rng, monkeypatch):
    # nothing flags, and no pair is close enough to tol to need the exact
    # kernel: the scan measures no principal angle
    from test_cartan import opq_chamber, random_opq_K
    chamber = opq_chamber(make_witt_form(3, 2), [6.0, 2.0])
    gens = [(name, k @ chamber @ k.T)
            for name, k in zip("ab", (random_opq_K(rng, 3, 2) for _ in "ab"))]
    ball, sample, points = o32_scan_setup(gens, 3, 20)
    calls = []

    def counting(a, b):
        calls.append((np.shape(a), np.shape(b)))
        return principal_sines(a, b)
    monkeypatch.setattr(domain, "principal_sines", counting)
    assert len(dynamical_relation_scan(points, ball, sample)) == 0
    assert calls == []
    # the same points at tol 0 are measured in full
    assert len(dynamical_relation_scan(points, ball, sample, tol=0.0)) > 0
    assert calls


# ---------------------------------------------------------------------------
# subalgebra points


def test_subalgebra_point_empty_theta_is_compact():
    alg = get_algebra("sl2")
    pt = subalgebra_point("sl2", ThetaSet(alg.root_system, frozenset()))
    assert pt.basis.k == 1
    kappa = pt.basis.columns.T @ alg.killing_gram @ pt.basis.columns
    assert np.all(np.linalg.eigvalsh(kappa) < 0)


def test_subalgebra_point_full_theta_kernel_is_nilradical():
    alg = get_algebra("sl2")
    pt = subalgebra_point("sl2", ThetaSet(alg.root_system, frozenset({1})))
    assert subalgebra_kernel_dimension(pt) == 1
    # the kernel direction is the positive root space
    e = alg.root_space(next(eps for eps, _ in alg.positive_root_list()))
    from anoctl.forms import contains
    assert contains(Frame.from_spanning(e), pt.basis, 1e-8)


@pytest.mark.parametrize("tag", ["sl2", "sl3", "o21", "o32", "o41", "sl4"])
def test_kernel_count_equals_nilradical_dimension(tag):
    alg = get_algebra(tag)
    rs = alg.root_system
    for r in range(rs.rank + 1):
        for combo in itertools.combinations(range(1, rs.rank + 1), r):
            th = ThetaSet(rs, frozenset(combo))
            pt = subalgebra_point(tag, th)
            dim_u = sum(
                alg.root_space(eps).shape[1]
                for eps, coeffs in alg.positive_root_list()
                if {i + 1 for i, c in enumerate(coeffs) if c != 0} & set(combo))
            assert subalgebra_kernel_dimension(pt) == dim_u
            assert pt.basis.k == alg.dim_k  # all points live in Gr_{dim k}


def test_nilpotent_incidence_sl2_examples():
    # meeting the nilpotent line forces containment in r_full
    alg = get_algebra("sl2")
    rs = alg.root_system
    e_coords = alg.coords(np.array([[0.0, 1.0], [0.0, 0.0]]))
    l = Frame.from_spanning(e_coords)
    r_full = subalgebra_point("sl2", ThetaSet(rs, frozenset({1})))
    assert intersects(l, r_full.basis, 1e-8) and contains(l, r_full.basis, 1e-8)
    # the opposite point: Ad(w0) r_theta misses the upper nilpotent line
    w0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    from anoctl.algebras import adjoint_rep
    ad_w0, _ = adjoint_rep(w0, "sl2")
    opposite = Frame.from_spanning(ad_w0 @ r_full.basis.columns)
    assert not intersects(l, opposite, 1e-8)


def test_nilpotent_incidence_negative_control():
    # a 2-dim nilpotent space meeting but not contained in a random span
    alg = get_algebra("sl3")
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    l = Frame.from_spanning(np.stack([alg.coords(e12), alg.coords(e13)], axis=1))
    other = np.zeros((3, 3))
    other[1, 0] = 1.0
    w = Frame.from_spanning(np.stack([alg.coords(e12), alg.coords(other)], axis=1))
    assert intersects(l, w, 1e-8) and not contains(l, w, 1e-8)


def test_nilpotent_incidence_zero_dimensional_vacuous():
    alg = get_algebra("sl2")
    l = Frame(np.zeros((3, 0)))
    pt = subalgebra_point("sl2", ThetaSet(alg.root_system, frozenset()))
    assert not intersects(l, pt.basis) and contains(l, pt.basis)
