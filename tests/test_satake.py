from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from anoctl.algebras import get_algebra
from anoctl.forms import make_witt_form
from anoctl.roots import (
    ChamberThresholds,
    RootSystemError,
    ThetaSet,
    admissible_closure,
    build_root_system,
    tau_admissible_sets,
)
from anoctl.satake import (
    MatrixGroup,
    SatakePoint,
    TauSpec,
    eps_to_root_coords,
    orbit_decomposition,
    orbits_to_dot,
    orbits_to_json,
    predicted_rank,
    satake_embed,
    satake_embed_chamber,
    satake_limit,
    support_of,
    tau_weights,
)

THRESH = ChamberThresholds(divergence=30.0)


def theta(rs, *members):
    return ThetaSet(rs, frozenset(members))


# ---------------------------------------------------------------------------
# embedding


def test_embed_identity_matrix():
    p = satake_embed(np.eye(3), TauSpec.identity())
    assert np.allclose(p.hermitian, np.eye(3) / 3)


def test_embed_gl2_diagonal():
    a = 2.0
    p = satake_embed(np.diag([a, 1 / a]), TauSpec.identity())
    expected = np.diag([a**2, a**-2]) / (a**2 + a**-2)
    assert np.allclose(p.hermitian, expected)


def test_embed_equivariance_random(rng):
    sl2 = get_algebra("sl2")
    tau = TauSpec.direct_sum(TauSpec.identity(), TauSpec.adjoint("sl2"))
    for _ in range(25):
        g = scipy.linalg.expm(sl2.from_coords(0.5 * rng.standard_normal(3)))
        h = scipy.linalg.expm(sl2.from_coords(0.5 * rng.standard_normal(3)))
        lhs = satake_embed(h @ g, tau).hermitian
        th = tau.apply(h)
        rhs = th @ satake_embed(g, tau).hermitian @ th.T
        rhs = rhs / np.trace(rhs)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_embed_compact_images_are_orthogonal(rng):
    # tau(K) unitary in the canonical bases
    from conftest import random_orthogonal
    k = random_orthogonal(rng, 3)
    for tau in (TauSpec.identity(), TauSpec.exterior(2)):
        m = tau.apply(k)
        assert np.linalg.norm(m.T @ m - np.eye(m.shape[0])) < 1e-10
    k3 = k * np.linalg.det(k)
    m = TauSpec.adjoint("sl3").apply(k3)
    assert np.linalg.norm(m.T @ m - np.eye(8)) < 1e-10


def test_satake_point_validation():
    with pytest.raises(ValueError):
        SatakePoint(np.diag([1.0, -2.0]))


def test_matrix_group_takes_its_group_from_the_form():
    form = make_witt_form(3, 2)
    assert MatrixGroup(2).tag == "gl"
    assert MatrixGroup(5, form).tag == "opq"
    assert np.array_equal(MatrixGroup(2).chamber_matrix([1.0, -2.0]),
                          np.diag([1.0, -2.0]))
    assert np.array_equal(MatrixGroup(5, form).chamber_matrix([1.0, 0.5]),
                          np.diag([1.0, 0.5, 0.0, -0.5, -1.0]))


def test_chamber_embedding_matches_direct_at_moderate_scale():
    form = make_witt_form(3, 2)
    group = MatrixGroup(5, form)
    tau = TauSpec.exterior(2)
    h = np.array([1.2, 0.4])
    direct = satake_embed(scipy.linalg.expm(group.chamber_matrix(h)), tau)
    stable = satake_embed_chamber(h, tau, group)
    assert np.linalg.norm(direct.hermitian - stable.hermitian) < 1e-10


def test_chamber_embedding_survives_huge_exponents():
    group = MatrixGroup(2)
    p = satake_embed_chamber(np.array([4000.0, -4000.0]), TauSpec.identity(),
                             group)
    assert np.allclose(p.hermitian, np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# supports


def test_support_exterior_q_of_opq():
    b2 = build_root_system("B", 2)
    chi = eps_to_root_coords(b2, [1, 1])
    assert support_of(b2, chi).members == {2}


@pytest.mark.parametrize("rank,expected", [
    (3, ("1/2", "1/4", "3/4")),
    (5, ("1/2", "1", "3/2", "3/4", "5/4")),
    (7, ("1/2", "1", "3/2", "2", "5/2", "5/4", "7/4")),
])
def test_half_spin_weight_expands_in_quarters(rank, expected):
    # 1/2 (eps_1 + ... + eps_n) of D_n, odd n: coefficients in quarters
    rs = build_root_system("D", rank)
    assert eps_to_root_coords(rs, [Fraction(1, 2)] * rank) == \
        [Fraction(c) for c in expected]
    # the other half-spin weight swaps the last two coefficients
    other = eps_to_root_coords(rs, [Fraction(1, 2)] * (rank - 1) + [Fraction(-1, 2)])
    assert other[:-2] == [Fraction(c) for c in expected[:-2]]
    assert other[-2:] == [Fraction(expected[-1]), Fraction(expected[-2])]


def test_weights_outside_the_root_span_or_epsilon_coordinates_raise():
    with pytest.raises(RootSystemError, match="root span"):
        eps_to_root_coords(build_root_system("A", 2), [1, 1, 1])
    with pytest.raises(RootSystemError, match="epsilon coordinates"):
        eps_to_root_coords(build_root_system("G2", 2), [1, 1])
    with pytest.raises(RootSystemError, match="epsilon coordinates"):
        eps_to_root_coords(build_root_system("B", 2), [1, 1, 1])


def test_support_adjoint_is_table_pair():
    for rs in (build_root_system("A", 3), build_root_system("B", 3),
               build_root_system("G2", 2)):
        sup = support_of(rs, rs.table1.chi_G_coeffs)
        a = rs.table1.alpha_G_index
        assert sup.members == {a, rs.opposition[a - 1]}


def test_support_fundamental_weight():
    a3 = build_root_system("A", 3)
    w1 = [Fraction(3, 4), Fraction(2, 4), Fraction(1, 4)]
    assert support_of(a3, w1).members == {1}


def test_support_rejects_non_dominant():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        support_of(a2, [1, -1])


# ---------------------------------------------------------------------------
# orbits


def test_orbit_counts_and_flags():
    a2 = build_root_system("A", 2)
    orbits = orbit_decomposition(a2, theta(a2, 1, 2))
    assert len(orbits) == 4
    assert sum(o.is_open for o in orbits) == 1
    assert sum(o.is_closed for o in orbits) == 1
    assert {o.boundary_levi_rank for o in orbits} == {0, 1, 2}


def test_orbit_chain_odd_complex_case():
    for m in (2, 3):
        bm = build_root_system("B", m)
        orbits = orbit_decomposition(bm, theta(bm, m))
        assert len(orbits) == m + 1
        thetas = sorted(o.theta.sorted_members for o in orbits)
        assert thetas == [tuple(range(1, i + 1)) for i in range(m + 1)]


def test_rank_one_two_orbits():
    a1 = build_root_system("A", 1)
    orbits = orbit_decomposition(a1, theta(a1, 1))
    assert len(orbits) == 2


def test_domination_consistency_saturation():
    # smaller supports absorb admissible sets after closure, matching the
    # surjection between the compactifications
    import itertools
    for rs in (build_root_system("A", 4), build_root_system("B", 3),
               build_root_system("D", 4)):
        idx = list(range(1, rs.rank + 1))
        for big_size in (2, 3):
            for big in itertools.islice(itertools.combinations(idx, big_size), 3):
                for small in itertools.combinations(big, 1):
                    sup_big = theta(rs, *big)
                    sup_small = theta(rs, *small)
                    small_admissible = {s.members
                                        for s in tau_admissible_sets(rs, sup_small)}
                    for th in tau_admissible_sets(rs, sup_big):
                        closed = admissible_closure(rs, sup_small, th.members)
                        assert closed.members in small_admissible
                        assert th.members <= closed.members


def test_orbit_emission():
    a2 = build_root_system("A", 2)
    orbits = orbit_decomposition(a2, theta(a2, 1, 2))
    d = orbits_to_json(orbits)
    assert len(d["orbits"]) == 4
    dot = orbits_to_dot(a2, theta(a2, 1, 2), orbits)
    assert dot.startswith("digraph")


# ---------------------------------------------------------------------------
# chamber limits


def test_limit_gl2_closed_orbit():
    a1 = build_root_system("A", 1)
    group = MatrixGroup(2)
    seq = [np.array([float(n), -float(n)]) for n in range(60)]
    lim = satake_limit(a1, theta(a1, 1), seq, TauSpec.identity(), group, THRESH)
    assert lim.orbit.is_closed
    assert np.allclose(lim.point.hermitian, np.diag([1.0, 0.0]), atol=1e-12)
    assert lim.agrees and lim.numeric_rank == 1


def test_limit_constant_interior():
    a1 = build_root_system("A", 1)
    group = MatrixGroup(2)
    lim = satake_limit(a1, theta(a1, 1), [np.array([0.7, -0.7])] * 8,
                       TauSpec.identity(), group, THRESH)
    assert lim.orbit.is_open
    assert lim.numeric_rank == 2 and lim.agrees
    assert lim.tail_step < 1e-12


def test_limit_opq_boundary_orbit_rank_drop():
    b2 = build_root_system("B", 2)
    form = make_witt_form(3, 2)
    group = MatrixGroup(5, form)
    seq = [np.array([2.0 * n + 1.0, 1.0]) for n in range(60)]
    lim = satake_limit(b2, theta(b2, 2), seq, TauSpec.exterior(2), group, THRESH)
    assert lim.orbit.theta.members == {1}
    assert lim.numeric_rank == lim.predicted_rank == 3


def test_limit_rank_profile_is_function_of_theta(rng):
    b2 = build_root_system("B", 2)
    form = make_witt_form(3, 2)
    group = MatrixGroup(5, form)
    support = theta(b2, 2)
    ranks = {}
    for _ in range(12):
        target = frozenset(int(i) for i in rng.choice([1, 2], rng.integers(0, 3),
                                                      replace=False))
        closed = admissible_closure(b2, support, target)
        slope = np.zeros(2)
        for i in target:
            slope[i - 1] = rng.uniform(1.0, 2.0)
        # epsilon coordinates from prescribed pairing slopes
        base = rng.uniform(0.2, 1.2, 2)
        seq = []
        for n in range(60):
            pair = base + n * slope
            h = np.array([pair[0] + pair[1], pair[1]])  # inverse of B_2 pairings
            seq.append(h)
        lim = satake_limit(b2, support, seq, TauSpec.exterior(2), group, THRESH)
        assert lim.agrees
        key = lim.orbit.theta.sorted_members
        assert key == closed.sorted_members
        ranks.setdefault(key, set()).add(lim.numeric_rank)
    for vals in ranks.values():
        assert len(vals) == 1


def test_limit_ambiguity_propagates():
    from anoctl.roots import AmbiguousChamberSequence
    a1 = build_root_system("A", 1)
    group = MatrixGroup(2)
    seq = [np.array([np.sqrt(n), -np.sqrt(n)]) for n in range(60)]
    with pytest.raises(AmbiguousChamberSequence):
        satake_limit(a1, theta(a1, 1), seq, TauSpec.identity(), group, THRESH)


def test_subalgebra_consistency_sl2():
    # the adjoint-based subalgebra family of sl2 has exactly as many
    # orbits as the maximal Satake combinatorics: one per subset of Delta,
    # with matching kernel profile transitions
    from anoctl.domain import subalgebra_kernel_dimension, subalgebra_point
    a1 = build_root_system("A", 1)
    group = MatrixGroup(2)
    orbits = orbit_decomposition(a1, theta(a1, 1))
    assert len(orbits) == 2
    kernel_dims = set()
    for th_members in (frozenset(), frozenset({1})):
        pt = subalgebra_point("sl2", ThetaSet(a1, th_members))
        kernel_dims.add(subalgebra_kernel_dimension(pt))
    assert kernel_dims == {0, 1}
    # numeric chamber limits under the adjoint embedding realize exactly
    # two distinct rank profiles
    tau = TauSpec.adjoint("sl2")
    profiles = set()
    for seq in ([np.array([0.4, -0.4])] * 8,
                [np.array([float(n), -float(n)]) for n in range(60)]):
        lim = satake_limit(a1, theta(a1, 1), seq, tau, group, THRESH)
        assert lim.agrees
        profiles.add(lim.numeric_rank)
    assert len(profiles) == 2


def test_weights_are_integral():
    b2 = build_root_system("B", 2)
    form = make_witt_form(3, 2)
    group = MatrixGroup(5, form)
    w = tau_weights(TauSpec.exterior(2), group, 2)
    assert len(w) == 10
    assert (1, 1) in w and (0, 0) in w
    assert predicted_rank(b2, theta(b2), w) == 10
    assert predicted_rank(b2, theta(b2, 1, 2), w) == 1
