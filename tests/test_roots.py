import itertools
from fractions import Fraction

import numpy as np
import pytest

from anoctl.roots import (
    AmbiguousChamberSequence,
    ChamberThresholds,
    RootSystemError,
    ThetaSet,
    admissible_closure,
    admissible_lattice_dot,
    build_root_system,
    chamber_sequence_limit,
    is_admissible,
    nucleus_saturation,
    opposition_star,
    positive_roots,
    table1_rows,
    tau_admissible_sets,
)
from anoctl.satake import orbit_decomposition, orbits_to_dot


def theta(rs, *members):
    return ThetaSet(rs, frozenset(members))


# ---------------------------------------------------------------------------
# construction and Table 1


def test_a3_opposition_swaps_ends():
    rs = build_root_system("A", 3)
    assert rs.opposition == (3, 2, 1)


def test_b2_epsilon_coordinates():
    rs = build_root_system("B", 2)
    assert rs.simple_root_coords == (
        (Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1)))


def test_g2_table_entry():
    rs = build_root_system("G2", 2)
    assert rs.table1.chi_G_coeffs == (3, 2)
    # the distinguished root is forced by the pairing property; with the
    # printed highest-root coefficients it is the long root alpha_2
    assert rs.positive_pairing_set(rs.table1.chi_G_coeffs) == {rs.table1.alpha_G_index}


@pytest.mark.parametrize("rs", table1_rows(), ids=lambda r: f"{r.type_label}{r.rank}")
def test_table1_pairing_property(rs):
    t1 = rs.table1
    expected = frozenset({t1.alpha_G_index, rs.opposition[t1.alpha_G_index - 1]})
    assert rs.positive_pairing_set(t1.chi_G_coeffs) == expected


def test_table1_across_classical_ranks():
    for t, ranks in [("A", range(1, 7)), ("B", range(1, 7)), ("C", range(2, 7)),
                     ("BC", range(1, 7)), ("D", range(3, 7))]:
        for r in ranks:
            rs = build_root_system(t, r)
            t1 = rs.table1
            expected = frozenset({t1.alpha_G_index, rs.opposition[t1.alpha_G_index - 1]})
            assert rs.positive_pairing_set(t1.chi_G_coeffs) == expected


def _standard_cartan_matrix(label, rank):
    """Independent construction of the Cartan integers per diagram type."""
    import numpy as np
    a = 2 * np.eye(rank, dtype=int)

    def link(i, j, down=1, up=1):
        a[i, j] = -down
        a[j, i] = -up

    if label == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif label in ("B", "BC"):
        for i in range(rank - 2):
            link(i, i + 1)
        if rank >= 2:
            link(rank - 2, rank - 1, down=2, up=1)
    elif label == "C":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, down=1, up=2)
    elif label == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        if rank >= 3:
            link(rank - 3, rank - 1)
        a[rank - 2, rank - 1] = a[rank - 1, rank - 2] = 0 if rank >= 3 else \
            a[rank - 2, rank - 1]
        if rank == 2:
            a[0, 1] = a[1, 0] = 0
    elif label in ("E6", "E7", "E8"):
        chain = [(0, 2)] + [(i, i + 1) for i in range(2, rank - 1)]
        for i, j in chain + [(1, 3)]:
            link(i, j)
    elif label == "F4":
        link(0, 1)
        link(1, 2, down=2, up=1)
        link(2, 3)
    elif label == "G2":
        link(0, 1, down=1, up=3)
    return a


def test_cartan_pairing_matches_standard_cartan_matrix():
    import numpy as np
    cases = [("A", 4), ("B", 3), ("C", 3), ("BC", 3), ("D", 4), ("D", 5),
             ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    for label, rank in cases:
        rs = build_root_system(label, rank)
        # A_ij = <alpha_i, alpha_j-check> = 2(a_i, a_j)/(a_j, a_j)
        derived = np.array(
            [[2 * rs.pairing(i, j) / rs.pairing(j, j)
              for j in range(1, rank + 1)] for i in range(1, rank + 1)])
        assert np.array_equal(derived, _standard_cartan_matrix(label, rank)), \
            (label, rank)


def test_unsupported_ranks_rejected():
    with pytest.raises(RootSystemError):
        build_root_system("E6", 5)
    with pytest.raises(RootSystemError):
        build_root_system("C", 1)
    with pytest.raises(RootSystemError):
        build_root_system("H", 2)


# ---------------------------------------------------------------------------
# opposition involution against the longest-element oracle


def _weyl_w0_action(rs):
    """Longest-element action on simple roots, by exact reflections: march
    the antidominant equal-pairings vector back into the chamber."""
    rank = rs.rank
    P = [[rs.pairing(i + 1, j + 1) for j in range(rank)] for i in range(rank)]

    def pair(c, j):
        return sum(c[i] * P[i][j] for i in range(rank))

    def reflect(c, j):
        coeff = 2 * pair(c, j) / P[j][j]
        out = list(c)
        out[j] -= coeff
        return out

    # v0 with (v0, alpha_j) = 1 for all j (solve P c = 1 exactly)
    import fractions
    A = [[fractions.Fraction(P[i][j]) for j in range(rank)] for i in range(rank)]
    b = [fractions.Fraction(1)] * rank
    for col in range(rank):           # Gauss elimination over Q
        piv = next(r for r in range(col, rank) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        b[col] *= inv
        for r in range(rank):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                b[r] -= f * b[col]
    v0 = b

    word = []
    u = [-x for x in v0]
    for _ in range(10000):
        j = next((j for j in range(rank) if pair(u, j) < 0), None)
        if j is None:
            break
        u = reflect(u, j)
        word.append(j)
    assert all(pair(u, j) > 0 for j in range(rank))

    images = []
    for i in range(rank):
        c = [fractions.Fraction(0)] * rank
        c[i] = fractions.Fraction(1)
        for j in word:
            c = reflect(c, j)
        neg = [-x for x in c]
        match = [k + 1 for k in range(rank)
                 if all(neg[m] == (1 if m == k else 0) for m in range(rank))]
        assert len(match) == 1, "-w0(alpha) is not a simple root"
        images.append(match[0])
    return tuple(images)


@pytest.mark.parametrize("t,r", [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                                 ("B", 2), ("B", 3), ("B", 4),
                                 ("C", 2), ("C", 3), ("C", 4),
                                 ("BC", 2), ("BC", 3),
                                 ("D", 3), ("D", 4), ("D", 5),
                                 ("F4", 4), ("G2", 2), ("E6", 6)])
def test_opposition_matches_longest_element(t, r):
    rs = build_root_system(t, r)
    assert rs.opposition == _weyl_w0_action(rs)


def test_opposition_star_examples():
    a3 = build_root_system("A", 3)
    assert opposition_star(a3, theta(a3, 1)).members == {3}
    b2 = build_root_system("B", 2)
    assert opposition_star(b2, theta(b2, 1)).members == {1}
    full = theta(a3, 1, 2, 3)
    assert opposition_star(a3, full).members == {1, 2, 3}


def test_opposition_star_is_involution():
    import itertools
    for rs in table1_rows():
        for r in range(rs.rank + 1):
            for combo in itertools.islice(
                    itertools.combinations(range(1, rs.rank + 1), r), 20):
                th = theta(rs, *combo)
                assert opposition_star(rs, opposition_star(rs, th)).members == th.members


# ---------------------------------------------------------------------------
# admissible sets, nuclei


def brute_force_admissible(rs, support, th):
    """Definition check with an independent BFS on the pairing graph with
    the support weight as an extra vertex."""
    vertices = sorted(set(range(1, rs.rank + 1)) - set(th.members)) + ["chi"]
    if len(vertices) == 1:
        return True

    def linked(u, v):
        if u == "chi":
            return v in support.members
        if v == "chi":
            return u in support.members
        return rs.adjacent(u, v)

    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        u = frontier.pop()
        for v in vertices:
            if v not in seen and linked(u, v):
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(vertices)


def test_odd_complex_orthogonal_chain():
    for m in (2, 3):
        rs = build_root_system("B", m)
        support = theta(rs, m)
        sets = tau_admissible_sets(rs, support)
        expected = [tuple(range(1, i + 1)) for i in range(m + 1)]
        assert sorted(s.sorted_members for s in sets) == sorted(expected)


def test_admissible_brute_force_cross_check():
    import itertools
    for rs in [build_root_system("A", 4), build_root_system("B", 3),
               build_root_system("D", 4), build_root_system("F4", 4)]:
        for sup_size in (1, 2):
            for sup in itertools.islice(
                    itertools.combinations(range(1, rs.rank + 1), sup_size), 4):
                support = theta(rs, *sup)
                fast = {s.sorted_members for s in tau_admissible_sets(rs, support)}
                slow = set()
                for r in range(rs.rank + 1):
                    for combo in itertools.combinations(range(1, rs.rank + 1), r):
                        if brute_force_admissible(rs, support, theta(rs, *combo)):
                            slow.add(combo)
                assert fast == slow


def test_full_support_makes_everything_admissible():
    rs = build_root_system("A", 3)
    support = theta(rs, 1, 2, 3)
    assert len(tau_admissible_sets(rs, support)) == 8


def test_rank_one_admissible_sets():
    rs = build_root_system("A", 1)
    sets = tau_admissible_sets(rs, theta(rs, 1))
    assert sorted(s.sorted_members for s in sets) == [(), (1,)]


def test_empty_and_full_always_admissible():
    for rs in table1_rows():
        support = theta(rs, rs.table1.alpha_G_index)
        assert is_admissible(rs, support, theta(rs))
        assert is_admissible(rs, support, theta(rs, *range(1, rs.rank + 1)))


def test_nucleus_saturation_chain_values():
    for m in (2, 3):
        rs = build_root_system("B", m)
        support = theta(rs, m)
        vee, dd = nucleus_saturation(rs, support, theta(rs))
        assert vee.sorted_members == tuple(range(1, m + 1)) and dd.members == set()
        for i in range(1, m + 1):
            vee, dd = nucleus_saturation(rs, support, theta(rs, *range(1, i + 1)))
            assert vee.sorted_members == tuple(range(i, m + 1))
            assert dd.members == {i}


def test_nucleus_full_support_full_theta():
    rs = build_root_system("A", 2)
    support = theta(rs, 1, 2)
    vee, dd = nucleus_saturation(rs, support, theta(rs, 1, 2))
    assert dd.members == {1, 2}


def test_nucleus_rejects_inadmissible():
    rs = build_root_system("B", 3)
    with pytest.raises(RootSystemError):
        nucleus_saturation(rs, theta(rs, 3), theta(rs, 2))


def test_nucleus_containments_all_supported_systems():
    import itertools
    for rs in table1_rows():
        if rs.rank > 6:
            continue
        support = theta(rs, rs.table1.alpha_G_index)
        for th in tau_admissible_sets(rs, support):
            vee, dd = nucleus_saturation(rs, support, th)
            assert dd.members <= th.members
            assert dd.members <= vee.members


# ---------------------------------------------------------------------------
# positive roots


POSITIVE_ROOT_COUNTS = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
                        "C": lambda r: r * r, "D": lambda r: r * (r - 1),
                        "BC": lambda r: r * (r + 1)}


def test_positive_roots_counts_and_expansions():
    # every type at every rank up to 6, checked in exact arithmetic
    for t, r in ((t, r) for t in POSITIVE_ROOT_COUNTS
                 for r in range(2 if t in ("C", "D") else 1, 7)):
        rs = build_root_system(t, r)
        roots = positive_roots(rs)
        assert len(roots) == POSITIVE_ROOT_COUNTS[t](r)
        for eps, coeffs in roots:
            assert all(isinstance(c, Fraction) and c.denominator == 1 and c >= 0
                       for c in coeffs)
            assert all(sum(c * row[j] for c, row in zip(coeffs, rs.simple_root_coords)) == x
                       for j, x in enumerate(eps))
        # the highest root is Table 1's, where the type has an entry
        if rs.table1 is not None:
            assert max((c for _, c in roots), key=sum) == \
                tuple(Fraction(c) for c in rs.table1.chi_G_coeffs)


# ---------------------------------------------------------------------------
# chamber sequences


def test_constant_sequence_converges_to_interior():
    rs = build_root_system("B", 2)
    support = theta(rs, 2)
    h = np.array([3.0, 1.0])
    res = chamber_sequence_limit(rs, support, [h] * 10)
    assert res.theta.members == set()
    assert res.finite_coords == {1: pytest.approx(2.0), 2: pytest.approx(1.0)}


def test_single_root_divergence():
    rs = build_root_system("A", 2)
    support = theta(rs, 1, 2)
    seq = [np.array([2.0 * n + 1.0, 1.0, 0.0]) for n in range(200)]
    res = chamber_sequence_limit(rs, support,
                                 seq, ChamberThresholds(divergence=100.0))
    assert res.theta.members == {1}
    assert res.finite_coords[2] == pytest.approx(1.0)


def test_barycentric_divergence_hits_closed_orbit():
    rs = build_root_system("B", 2)
    support = theta(rs, 2)
    seq = [n * np.array([2.0, 1.0]) for n in range(300)]
    res = chamber_sequence_limit(rs, support, seq,
                                 ChamberThresholds(divergence=100.0))
    assert res.theta.is_full() and res.finite_coords == {}


def test_inadmissible_divergent_set_closes_up():
    # B_2 with support {a_2}: {a_2} alone is inadmissible, the unique
    # minimal admissible superset is all of Delta
    rs = build_root_system("B", 2)
    support = theta(rs, 2)
    seq = [np.array([n + 5.0, n + 4.0]) for n in range(300)]  # a_1 pairing stays 1
    res = chamber_sequence_limit(rs, support, seq,
                                 ChamberThresholds(divergence=100.0))
    assert res.theta.is_full()


def test_ambiguous_sequence_reported():
    rs = build_root_system("B", 2)
    support = theta(rs, 2)
    seq = [np.array([np.sqrt(n) + 2.0, 1.0]) for n in range(200)]  # slow growth
    with pytest.raises(AmbiguousChamberSequence):
        chamber_sequence_limit(rs, support, seq,
                               ChamberThresholds(divergence=1e3))


def test_sequence_outside_chamber_rejected():
    rs = build_root_system("B", 2)
    with pytest.raises(RootSystemError):
        chamber_sequence_limit(rs, theta(rs, 2), [np.array([1.0, 2.0])])


def test_admissible_closure_uniqueness_brute_force():
    import itertools
    rs = build_root_system("B", 3)
    support = theta(rs, 3)
    admissible = {s.members for s in tau_admissible_sets(rs, support)}
    for r in range(4):
        for combo in itertools.combinations(range(1, 4), r):
            s = frozenset(combo)
            closure = admissible_closure(rs, support, s).members
            supersets = [a for a in admissible if s <= a]
            assert closure in supersets
            assert all(closure <= a for a in supersets)


# ---------------------------------------------------------------------------
# emission


def test_json_and_dot_emission():
    rs = build_root_system("B", 2)
    d = rs.to_json()
    assert d["type"] == "B" and d["table1"]["alpha_G"] == 2
    dot = admissible_lattice_dot(rs, theta(rs, 2))
    assert dot.startswith("digraph") and "t_empty" in dot
    assert dot.count("->") == 2  # chain of 3 admissible sets


def subsets(rs):
    """Every subset of the simple roots in (size, lexicographic) order."""
    roots = range(1, rs.rank + 1)
    return [combo for r in range(rs.rank + 1)
            for combo in itertools.combinations(roots, r)]


def reference_lattice_dot(sets):
    """admissible_lattice_dot's cubic cover loop over sorted member tuples."""
    names = {s: "t_" + "_".join(map(str, s)) if s else "t_empty" for s in sets}
    lines = ["digraph admissible {", "  rankdir=BT;"]
    lines += [f'  {names[s]} [label="{{{",".join(map(str, s))}}}"];' for s in sets]
    members = [set(s) for s in sets]
    for a in members:
        for b in members:
            if a < b and not any(a < c < b for c in members):
                lines.append(f"  {names[tuple(sorted(a))]} -> {names[tuple(sorted(b))]};")
    return "\n".join(lines + ["}"]) + "\n"


def test_closure_rule_gives_the_filtered_sets_and_their_lattice():
    # every type up to rank 7: one- and two-root supports, the adjoint
    # support and all of Delta
    systems = [build_root_system(t, r) for t in ("A", "B", "BC", "C", "D")
               for r in range(2 if t in ("C", "D") else 1, 8)]
    systems += [build_root_system(t, r) for t, r in (("E6", 6), ("E7", 7),
                                                     ("F4", 4), ("G2", 2))]
    for rs in systems:
        roots = range(1, rs.rank + 1)
        supports = [c for k in (1, 2) for c in itertools.combinations(roots, k)]
        supports.append(tuple(roots))
        if rs.table1 is not None:
            a = rs.table1.alpha_G_index
            supports.append({a, rs.opposition[a - 1]})
        for sup in supports:
            support = theta(rs, *sup)
            # the 2^rank filter that tau_admissible_sets replaced
            expected = [c for c in subsets(rs)
                        if brute_force_admissible(rs, support, theta(rs, *c))]
            sets = tau_admissible_sets(rs, support)
            assert [s.sorted_members for s in sets] == expected
            assert [c for c in subsets(rs)
                    if is_admissible(rs, support, theta(rs, *c))] == expected
            assert admissible_lattice_dot(rs, support) == reference_lattice_dot(expected)


def test_rank_40_chain_of_orbits():
    # the type A support {1}: theta is a tail {j+1, ..., 40} of the chain
    rs = build_root_system("A", 40)
    support = theta(rs, 1)
    orbits = orbit_decomposition(rs, support)
    assert [o.theta.sorted_members for o in orbits] == \
        [tuple(range(41 - size, 41)) for size in range(41)]
    dot = orbits_to_dot(rs, support, orbits)
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == 40
    assert edges[0] == "  t_empty -> t_40;" and edges[-1] == \
        "  t_" + "_".join(map(str, range(2, 41))) + " -> t_" + \
        "_".join(map(str, range(1, 41))) + ";"
