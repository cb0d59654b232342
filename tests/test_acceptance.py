"""Acceptance suite: one test per criterion, each printing a pass line
with its measured quantities (run with -s to see them)."""

import itertools
import json
import time

import numpy as np
import pytest

from anoctl.algebras import get_algebra
from anoctl.cartan import exterior_power, kak, mu_gaps
from anoctl.domain import (
    dynamical_relation_scan,
    expansion_certificate,
    gaussian_domain_sampler,
    in_bad_set,
    subalgebra_kernel_dimension,
    subalgebra_point,
)
from anoctl.forms import (
    Frame,
    intersects,
    make_witt_form,
    orthogonal_complement,
    restrict_kernel,
    subspace_sum_rank,
)
from anoctl.limits import sample_limit_set, transversality_report
from anoctl.presets import mixed_o21, schottky_o21
from anoctl.roots import (
    ChamberThresholds,
    ThetaSet,
    admissible_closure,
    build_root_system,
    nucleus_saturation,
    table1_rows,
    tau_admissible_sets,
)
from anoctl.satake import MatrixGroup, TauSpec, satake_limit
from anoctl.words import divergence_profile, enumerate_ball, fit_divergence_slope
from test_cartan import opq_chamber, random_opq, random_opq_K
from test_forms import random_isotropic_line, random_nonpositive_plane

RNG_SEED = 74220


def _corpus(rng):
    gl = [rng.standard_normal((5, 5)) for _ in range(1000)]
    form = make_witt_form(3, 2)
    opq = [random_opq(rng, form) for _ in range(1000)]
    return gl, form, opq


@pytest.fixture(scope="module")
def corpus():
    return _corpus(np.random.default_rng(RNG_SEED))


def test_criterion_1_kak_reconstruction(corpus):
    gl, form, opq = corpus
    start = time.perf_counter()
    worst = 0.0
    for g in gl:
        t = kak(g)
        worst = max(worst, np.linalg.norm(t.reconstruct() - g, 2)
                    / np.linalg.norm(g, 2))
    for g in opq:
        t = kak(g, form)
        worst = max(worst, np.linalg.norm(t.reconstruct() - g, 2)
                    / np.linalg.norm(g, 2))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"\nPASS 1: KAK reconstruction on 2x1000 elements "
          f"(worst rel err {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_2_duality(corpus):
    gl, form, opq = corpus
    rs_a = build_root_system("A", 4)
    rs_b = build_root_system("B", 2)
    worst = 0.0
    for g in gl:
        gaps = mu_gaps(kak(g).mu, rs_a)
        gaps_inv = mu_gaps(kak(np.linalg.inv(g)).mu, rs_a)
        for a in range(1, 5):
            worst = max(worst, abs(gaps[a] - gaps_inv[rs_a.opposition[a - 1]]))
    for g in opq:
        gaps = mu_gaps(kak(g, form).mu, rs_b)
        gaps_inv = mu_gaps(kak(np.linalg.inv(g), form).mu, rs_b)
        for a in (1, 2):
            worst = max(worst, abs(gaps[a] - gaps_inv[rs_b.opposition[a - 1]]))
    assert worst <= 1e-9
    print(f"\nPASS 2: duality identity on the corpus (worst dev {worst:.2e})")


def test_criterion_3_exterior_gap_identity():
    rng = np.random.default_rng(RNG_SEED + 1)
    rs = build_root_system("A", 4)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((5, 5))
        gaps = mu_gaps(kak(g).mu, rs)
        for i in (1, 2, 3):
            mu_w = kak(exterior_power(g, i)).mu.values
            worst = max(worst, abs((mu_w[0] - mu_w[1]) - gaps[i]))
    assert worst <= 1e-8
    print(f"\nPASS 3: exterior gap identity, 100 x GL_5, i in 1..3 "
          f"(worst dev {worst:.2e})")


def test_criterion_4_incidence_lemma_brute_force():
    rng = np.random.default_rng(RNG_SEED + 2)
    form = make_witt_form(3, 2)
    tol = 1e-9
    violations = 0
    for trial in range(10000):
        w = random_nonpositive_plane(rng, form, 2, boundary=(trial % 2 == 0))
        l = random_isotropic_line(rng, form)
        if trial % 4 == 0:
            _, kernel = restrict_kernel(form, w, tol)
            if kernel.k:
                l = Frame(kernel.columns[:, :1])
        lperp = orthogonal_complement(form, l, tol)
        meets = intersects(l, w, tol)
        rank_deficient = subspace_sum_rank([w, lperp], tol) < 5
        if meets != rank_deficient:
            violations += 1
        # second equivalence: L subset W  <=>  W subset L-perp
        from anoctl.forms import contains
        lhs = contains(l, w, tol * 10)
        rhs = contains(w, lperp, tol * 10)
        if lhs != rhs:
            violations += 1
    assert violations == 0
    print("\nPASS 4: incidence lemma equivalences, 10^4 random pairs, "
          "0 violations")


def test_criterion_5_table_reproduction():
    start = time.perf_counter()
    rows = table1_rows()
    assert len(rows) == 10
    for rs in rows:
        t1 = rs.table1
        derived = rs.positive_pairing_set(t1.chi_G_coeffs)   # exact Fractions
        expected = frozenset({t1.alpha_G_index,
                              rs.opposition[t1.alpha_G_index - 1]})
        assert derived == expected, rs.type_label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS 5: adjoint table reproduced for all 10 rows "
          f"({elapsed * 1000:.0f} ms, exact arithmetic)")


def test_criterion_6_odd_complex_orthogonal_chain():
    for m in (2, 3):
        rs = build_root_system("B", m)
        support = ThetaSet(rs, frozenset({m}))
        sets = tau_admissible_sets(rs, support)
        expected = [tuple(range(1, i + 1)) for i in range(m + 1)]
        assert sorted(s.sorted_members for s in sets) == sorted(expected)
        for i in range(m + 1):
            th = ThetaSet(rs, frozenset(range(1, i + 1)))
            vee, dd = nucleus_saturation(rs, support, th)
            if i == 0:
                assert vee.sorted_members == tuple(range(1, m + 1))
                assert dd.members == set()
            else:
                assert vee.sorted_members == tuple(range(i, m + 1))
                assert dd.members == {i}
    print("\nPASS 6: odd complex-orthogonal admissible chain at ranks 2, 3")


@pytest.fixture(scope="module")
def schottky_pipeline():
    form, gens = schottky_o21()
    start = time.perf_counter()
    ball = enumerate_ball(gens, 8, cap=100000)
    return form, gens, ball, start


def test_criterion_7_schottky_pipeline(schottky_pipeline):
    form, gens, ball, start = schottky_pipeline
    rs = build_root_system("B", 1)
    theta = ThetaSet(rs, frozenset({1}))
    assert len(ball) <= 100000

    # (a) divergence slope
    profile = divergence_profile(ball, rs, form)
    slope, shape = fit_divergence_slope(profile, 1)
    assert slope > 0.5

    # (b) transversality margin of the limit sample
    sample = sample_limit_set(ball, theta, form, min_gap=1.0)
    trans = transversality_report(sample, form)
    assert trans.margin > 1e-3

    # (c) interior points avoid the bad set
    stream = gaussian_domain_sampler(form, np.random.default_rng(RNG_SEED + 3))
    interior = []
    while len(interior) < 1000:
        pt = next(stream)
        if pt.is_interior:
            interior.append(pt)
    hits = sum(in_bad_set(pt, sample)[0] for pt in interior)
    assert hits == 0

    # (d) dynamical relation scan is clean at the accumulation tolerance
    flags = dynamical_relation_scan(interior[:300], ball, sample, tol=1e-3)
    assert len(flags) == 0

    # (e) expansion certificates with factor 2 for 8 sampled flags
    successes = 0
    for word, cols in zip(sample.words, sample.columns[:8]):
        ray = [word[:k] for k in range(1, len(word) + 1)]
        res = expansion_certificate(Frame(cols), ray, ball, c=2.0,
                                    rng=np.random.default_rng(RNG_SEED + 4))
        successes += res.success
    assert successes == 8

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS 7: Schottky pipeline radius 8 ({len(ball)} elements): "
          f"slope {slope:.2f}, margin {trans.margin:.2e}, 0/1000 bad-set "
          f"hits, 0 scan flags, 8/8 certificates ({elapsed:.1f} s)")


def test_criterion_8_negative_control():
    form, gens = mixed_o21()
    ball = enumerate_ball(gens, 8, cap=100000)
    rs = build_root_system("B", 1)
    theta = ThetaSet(rs, frozenset({1}))
    sample = sample_limit_set(ball, theta, form, min_gap=1.0)
    stream = gaussian_domain_sampler(form, np.random.default_rng(RNG_SEED + 5))
    interior = []
    while len(interior) < 100:
        pt = next(stream)
        if pt.is_interior and not in_bad_set(pt, sample)[0]:
            interior.append(pt)
    flags = dynamical_relation_scan(interior, ball, sample, tol=1e-3)
    assert len(flags) >= 1
    print(f"\nPASS 8: non-discrete control produced {len(flags)} relation "
          f"flags at the same radii")


def test_criterion_9_kernel_counts():
    for tag in ("sl2", "sl3", "o21"):
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
                assert subalgebra_kernel_dimension(pt, tol=1e-8) == dim_u
    print("\nPASS 9: kernel of the Killing form on r_theta matches the "
          "nilradical dimension for sl2, sl3, o(2,1)")


def _random_chamber_sequence(rng, rs, support, steps=60):
    """Sequence with a random prescribed divergent set; returns (epsilon
    sequence, expected theta = admissible closure of the divergent set)."""
    rank = rs.rank
    size = int(rng.integers(0, rank + 1))
    target = set(int(i) for i in
                 rng.choice(np.arange(1, rank + 1), size, replace=False))
    slopes = np.array([rng.uniform(1.0, 2.0) if i in target else 0.0
                       for i in range(1, rank + 1)])
    base = rng.uniform(0.2, 1.5, rank)
    simple = np.array([[float(c) for c in row] for row in rs.simple_root_coords])
    seq = []
    for n in range(steps):
        pairings = base + n * slopes
        h, *_ = np.linalg.lstsq(simple, pairings, rcond=None)
        seq.append(h)
    return seq, admissible_closure(rs, support, target)


def test_criterion_10_satake_limit_consistency():
    thresholds = ChamberThresholds(divergence=30.0)
    cases = []
    a2 = build_root_system("A", 2)
    cases.append((a2, ThetaSet(a2, frozenset({1, 2})), TauSpec.adjoint("sl3"),
                  MatrixGroup(3)))
    b2 = build_root_system("B", 2)
    form = make_witt_form(3, 2)
    cases.append((b2, ThetaSet(b2, frozenset({2})), TauSpec.exterior(2),
                  MatrixGroup(5, form)))
    for rs, support, tau, group in cases:
        rng = np.random.default_rng(RNG_SEED + 6)
        agreements = 0
        for _ in range(50):
            seq, expected = _random_chamber_sequence(rng, rs, support)
            lim = satake_limit(rs, support, seq, tau, group, thresholds)
            assert lim.orbit.theta.members == expected.members
            agreements += lim.agrees
        assert agreements == 50
        print(f"\nPASS 10 ({rs.type_label}_{rs.rank}): combinatorial and "
              f"numeric limits agree in {agreements}/50 cases")


def test_criterion_11_determinism(tmp_path):
    from anoctl.cli import main
    outputs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["table1", "--out", str(out)]) == 0
        assert main(["limitset", "--radius", "5", "--seed", "11",
                     "--out", str(out)]) == 0
        assert main(["domain", "--radius", "4", "--samples", "40",
                     "--seed", "11", "--out", str(out)]) == 0
        assert main(["orbits", "--type", "B", "--rank", "2",
                     "--support", "2", "--out", str(out)]) == 0
        blobs = {}
        for name in ("table1.json", "limitset.csv", "limitset.svg",
                     "domain.json", "orbits.json", "orbits.dot"):
            blobs[name] = (out / name).read_bytes()
        outputs.append(blobs)
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    print("\nPASS 11: byte-identical reports across two seeded runs "
          "(6 artifacts)")
