"""Restricted-root-system data and boundary-orbit combinatorics.

Simple roots with exact rational pairings, opposition involutions, the
adjoint-representation table (distinguished simple root and highest
root), admissibility of subsets with respect to a support, nuclei and
saturations, and classification of Weyl-chamber sequences.

All pairings are exact ``Fraction`` values; floating point only enters
through chamber sequences.  Data is immutable and safe for concurrent
reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

SUPPORTED_TYPES = ("A", "B", "C", "D", "BC", "E6", "E7", "E8", "F4", "G2")

# Highest root of the adjoint representation in simple-root coordinates,
# together with the simple root pairing positively with it.  The
# distinguished root is derived from the pairing property
# {a : (chi, a) > 0} = {alpha, alpha*}, which the constructor checks.
_EXCEPTIONAL_CHI = {
    "E6": (2, (1, 2, 2, 3, 2, 1)),
    "E7": (1, (2, 2, 3, 4, 3, 2, 1)),
    "E8": (8, (2, 3, 4, 6, 5, 4, 3, 2)),
    "F4": (1, (2, 3, 4, 2)),
    "G2": (2, (3, 2)),
}


class RootSystemError(ValueError):
    pass


class AmbiguousChamberSequence(ValueError):
    """Finite thresholds could not classify a chamber sequence."""

    def __init__(self, msg, undecided=()):
        super().__init__(msg)
        self.undecided = tuple(undecided)


class Table1Entry(NamedTuple):
    alpha_G_index: int                # 1-based simple root index
    chi_G_coeffs: tuple               # expansion of the highest root in Delta


class RootSystem(NamedTuple):
    type_label: str
    rank: int
    cartan_pairing: tuple             # rank x rank tuple of Fractions (a_i, a_j)
    simple_root_coords: tuple | None  # rank x eps_dim Fractions, classical only
    opposition: tuple                 # 1-based permutation, opposition involution
    table1: Table1Entry | None

    @property
    def eps_dim(self):
        return len(self.simple_root_coords[0]) if self.simple_root_coords else None

    def pairing(self, i, j):
        """(alpha_i, alpha_j) for 1-based indices."""
        return self.cartan_pairing[i - 1][j - 1]

    def adjacent(self, i, j):
        return i != j and self.pairing(i, j) != 0

    def weight_pairing(self, coeffs, i):
        """(sum_j coeffs_j alpha_j, alpha_i) with exact arithmetic."""
        return sum(Fraction(c) * self.pairing(j + 1, i)
                   for j, c in enumerate(coeffs))

    def pair_eps(self, i, h):
        """<alpha_i, H> for H given in epsilon coordinates (floats)."""
        if self.simple_root_coords is None:
            raise RootSystemError(
                f"type {self.type_label} has no epsilon coordinates")
        row = self.simple_root_coords[i - 1]
        return float(sum(float(c) * h[j] for j, c in enumerate(row)))

    def positive_pairing_set(self, coeffs):
        """{alpha in Delta : (weight, alpha) > 0} for a root-coefficient weight."""
        return frozenset(i for i in range(1, self.rank + 1)
                         if self.weight_pairing(coeffs, i) > 0)

    def to_json(self):
        d = {
            "type": self.type_label,
            "rank": self.rank,
            "cartan_pairing": [[str(x) for x in row] for row in self.cartan_pairing],
            "opposition": list(self.opposition),
        }
        if self.simple_root_coords is not None:
            d["simple_root_coords"] = [[str(x) for x in row]
                                       for row in self.simple_root_coords]
        if self.table1 is not None:
            d["table1"] = {"alpha_G": self.table1.alpha_G_index,
                           "chi_G": list(self.table1.chi_G_coeffs)}
        return d

    def __repr__(self):
        return f"RootSystem({self.type_label}, rank={self.rank})"


class ThetaSet:
    """A subset of the simple roots, stored as sorted 1-based indices;
    equal (and hashed alike) when root system and members are."""

    def __init__(self, root_system, members=frozenset()):
        self.root_system = root_system
        self.members = frozenset(int(i) for i in members)
        if not all(1 <= i <= root_system.rank for i in self.members):
            raise RootSystemError(f"theta members must lie in 1..{root_system.rank}")

    def __eq__(self, other):
        if type(other) is not ThetaSet:
            return NotImplemented
        return (self.root_system, self.members) == (other.root_system, other.members)

    def __hash__(self):
        return hash((self.root_system, self.members))

    @property
    def sorted_members(self):
        return tuple(sorted(self.members))

    def complement(self):
        return ThetaSet(self.root_system,
                        frozenset(range(1, self.root_system.rank + 1)) - self.members)

    def is_full(self):
        return len(self.members) == self.root_system.rank

    def to_json(self):
        return {"members": list(self.sorted_members)}

    def __repr__(self):
        return f"ThetaSet({set(self.sorted_members) or '{}'})"


# ---------------------------------------------------------------------------
# construction


def _chain_pairing(rank, norms, off):
    """Gram matrix of a chain diagram given squared norms and chain
    off-diagonal values."""
    m = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = Fraction(norms[i])
    for i in range(rank - 1):
        m[i][i + 1] = m[i + 1][i] = Fraction(off[i])
    return m


def _eps_rows(rows, dim):
    out = []
    for entries in rows:
        row = [Fraction(0)] * dim
        for j, c in entries:
            row[j] = Fraction(c)
        out.append(tuple(row))
    return tuple(out)


def build_root_system(type_label, rank):
    """Populate full combinatorial data for a supported (type, rank)."""
    t = type_label
    if t not in SUPPORTED_TYPES:
        raise RootSystemError(f"unsupported type {type_label!r}")

    if t == "A":
        if rank < 1:
            raise RootSystemError("type A needs rank >= 1")
        pairing = _chain_pairing(rank, [2] * rank, [-1] * (rank - 1))
        coords = _eps_rows([[(i, 1), (i + 1, -1)] for i in range(rank)], rank + 1)
        opposition = tuple(rank + 1 - i for i in range(1, rank + 1))
        table1 = Table1Entry(1, (1,) * rank)
    elif t in ("B", "BC"):
        if rank < 1:
            raise RootSystemError(f"type {t} needs rank >= 1")
        norms = [2] * (rank - 1) + [1]
        pairing = _chain_pairing(rank, norms, [-1] * (rank - 1))
        coords = _eps_rows([[(i, 1), (i + 1, -1)] for i in range(rank - 1)]
                           + [[(rank - 1, 1)]], rank)
        opposition = tuple(range(1, rank + 1))
        if t == "BC":
            table1 = Table1Entry(1, (2,) * rank)
        elif rank >= 2:
            table1 = Table1Entry(2, (1,) + (2,) * (rank - 1))
        else:
            # B_1 = A_1: highest root is epsilon_1 = alpha_1
            table1 = Table1Entry(1, (1,))
    elif t == "C":
        if rank < 2:
            raise RootSystemError("type C needs rank >= 2")
        norms = [2] * (rank - 1) + [4]
        off = [-1] * (rank - 2) + [-2]
        pairing = _chain_pairing(rank, norms, off)
        coords = _eps_rows([[(i, 1), (i + 1, -1)] for i in range(rank - 1)]
                           + [[(rank - 1, 2)]], rank)
        opposition = tuple(range(1, rank + 1))
        table1 = Table1Entry(1, (2,) * (rank - 1) + (1,))
    elif t == "D":
        if rank < 2:
            raise RootSystemError("type D needs rank >= 2")
        pairing = _chain_pairing(rank, [2] * rank, [-1] * (rank - 2) + [0])
        if rank >= 3:
            pairing[rank - 3][rank - 1] = pairing[rank - 1][rank - 3] = Fraction(-1)
        coords = _eps_rows([[(i, 1), (i + 1, -1)] for i in range(rank - 1)]
                           + [[(rank - 2, 1), (rank - 1, 1)]], rank)
        if rank % 2 == 1:
            opposition = tuple(range(1, rank - 1)) + (rank, rank - 1)
        else:
            opposition = tuple(range(1, rank + 1))
        if rank == 2:
            table1 = None        # D_2 = A_1 x A_1 is not simple
        elif rank == 3:
            table1 = Table1Entry(2, (1, 1, 1))
        else:
            table1 = Table1Entry(2, (1,) + (2,) * (rank - 3) + (1, 1))
    else:
        expected_rank = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}[t]
        if rank != expected_rank:
            raise RootSystemError(f"type {t} has rank {expected_rank}")
        coords = None
        if t in ("E6", "E7", "E8"):
            pairing = [[Fraction(0)] * rank for _ in range(rank)]
            for i in range(rank):
                pairing[i][i] = Fraction(2)
            chain = [(1, 3)] + [(i, i + 1) for i in range(3, rank)]
            for i, j in chain + [(2, 4)]:
                pairing[i - 1][j - 1] = pairing[j - 1][i - 1] = Fraction(-1)
            if t == "E6":
                opposition = (6, 2, 5, 4, 3, 1)
            else:
                opposition = tuple(range(1, rank + 1))
        elif t == "F4":
            pairing = _chain_pairing(4, [2, 2, 1, 1], [-1, -1, Fraction(-1, 2)])
            opposition = (1, 2, 3, 4)
        else:  # G2, alpha_1 short
            pairing = _chain_pairing(2, [2, 6], [-3])
            opposition = (1, 2)
        alpha_G, chi = _EXCEPTIONAL_CHI[t]
        table1 = Table1Entry(alpha_G, chi)

    rs = RootSystem(t, rank, tuple(tuple(row) for row in pairing),
                    coords, opposition, table1)
    _check_table1(rs)
    return rs


def _check_table1(rs):
    """The defining property of the table entry: the simple roots pairing
    positively with the highest root are exactly the distinguished root
    and its opposition image."""
    if rs.table1 is None:
        return
    a = rs.table1.alpha_G_index
    expected = frozenset({a, rs.opposition[a - 1]})
    got = rs.positive_pairing_set(rs.table1.chi_G_coeffs)
    if got != expected:
        raise RootSystemError(
            f"table entry inconsistent for {rs.type_label}_{rs.rank}: "
            f"positive set {set(got)} != {set(expected)}")


def table1_rows():
    """The ten canonical adjoint-data rows, one per supported type."""
    picks = [("A", 4), ("B", 3), ("C", 3), ("BC", 3), ("D", 4),
             ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    return [build_root_system(t, r) for t, r in picks]


# ---------------------------------------------------------------------------
# positive roots (classical types, epsilon coordinates)


def positive_roots(rs):
    """Positive roots as (eps_coords tuple, simple-root coefficients tuple).

    Classical types only; used by the Lie-algebra layer for root-space
    decompositions.
    """
    t, n = rs.type_label, rs.rank
    if rs.simple_root_coords is None:
        raise RootSystemError("positive_roots requires epsilon coordinates")
    dim = rs.eps_dim
    roots = []

    def eps(*pairs):
        v = [Fraction(0)] * dim
        for j, c in pairs:
            v[j] = Fraction(c)
        return tuple(v)

    if t == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                roots.append(eps((i, 1), (j, -1)))
    elif t in ("B", "BC", "C", "D"):
        for i in range(n):
            for j in range(i + 1, n):
                roots.append(eps((i, 1), (j, -1)))
                roots.append(eps((i, 1), (j, 1)))
        if t in ("B", "BC"):
            for i in range(n):
                roots.append(eps((i, 1)))
        if t in ("C", "BC"):
            for i in range(n):
                roots.append(eps((i, 2)))
    else:
        raise RootSystemError(f"positive_roots not available for {t}")
    return [(r, tuple(eps_to_root_coords(rs, r))) for r in roots]


def eps_to_root_coords(rs, eps_vector):
    """Exact expansion (Fractions) of a vector in epsilon coordinates in
    the simple roots, by elimination over the rationals and checked by
    exact reconstruction; RootSystemError without epsilon coordinates
    or outside the root span."""
    if rs.simple_root_coords is None:
        raise RootSystemError(f"type {rs.type_label} has no epsilon coordinates")
    vec = [Fraction(c) for c in eps_vector]
    if len(vec) != rs.eps_dim:
        raise RootSystemError(f"need {rs.eps_dim} epsilon coordinates")
    # sum_i x_i alpha_i[j] = vec[j] for each j; the simple roots are
    # independent, so every unknown finds a pivot
    eqs = [[row[j] for row in rs.simple_root_coords] + [vec[j]]
           for j in range(rs.eps_dim)]
    for i in range(rs.rank):
        pivot = next(r for r in range(i, len(eqs)) if eqs[r][i])
        eqs[i], eqs[pivot] = eqs[pivot], eqs[i]
        eqs[i] = [v / eqs[i][i] for v in eqs[i]]
        for r, eq in enumerate(eqs):
            if r != i and eq[i]:
                eqs[r] = [a - eq[i] * b for a, b in zip(eq, eqs[i])]
    coeffs = [eq[-1] for eq in eqs[:rs.rank]]
    if any(sum(c * row[j] for c, row in zip(coeffs, rs.simple_root_coords)) != v
           for j, v in enumerate(vec)):
        raise RootSystemError("weight does not lie in the root span")
    return coeffs


# ---------------------------------------------------------------------------
# opposition, admissibility, nuclei


def opposition_star(rs, theta):
    """Image of a subset under the opposition involution."""
    return ThetaSet(rs, frozenset(rs.opposition[i - 1] for i in theta.members))


def _neighbours(rs):
    """Each simple root's Dynkin neighbours, read once from the pairing."""
    roots = range(1, rs.rank + 1)
    return {i: frozenset(j for j in roots if rs.adjacent(i, j)) for i in roots}


def _closure(neighbours, support, members):
    """``members`` plus every root that no path outside ``members`` joins
    to the support: the minimal admissible superset."""
    reached = set(support) - members
    stack = list(reached)
    while stack:
        new = neighbours[stack.pop()] - members - reached
        reached |= new
        stack.extend(new)
    return members | (neighbours.keys() - reached)


def is_admissible(rs, support, theta):
    """Whether the complement of theta is connected to the support: every
    component of Delta minus theta must contain a support member, so
    theta is its own closure."""
    return _closure(_neighbours(rs), support.members, theta.members) == theta.members


def tau_admissible_sets(rs, support):
    """All admissible subsets for the given support, sorted by inclusion
    (size, then lexicographically).  Each but the least, the closure of
    the empty set (not empty where the diagram is disconnected, as D_2's
    is), is the closure of a smaller one plus one root."""
    if not support.members:
        raise RootSystemError("support must be nonempty")
    neighbours = _neighbours(rs)
    found, grown = set(), {_closure(neighbours, support.members, frozenset())}
    while grown:
        found |= grown
        grown = {_closure(neighbours, support.members, theta | {a})
                 for theta in grown for a in neighbours.keys() - theta} - found
    return [ThetaSet(rs, m) for m in sorted(found, key=lambda m: (len(m), sorted(m)))]


def nucleus_saturation(rs, support, theta):
    """(theta_vee, theta_dd): simple roots non-orthogonal to the complement
    of theta or to the support weight, and the nucleus theta & theta_vee."""
    if not is_admissible(rs, support, theta):
        raise RootSystemError(f"{theta!r} is not admissible for support {support!r}")
    complement = set(range(1, rs.rank + 1)) - set(theta.members)
    vee = set()
    for a in range(1, rs.rank + 1):
        if a in complement or a in support.members:
            vee.add(a)
        elif any(rs.adjacent(a, b) for b in complement):
            vee.add(a)
    theta_vee = ThetaSet(rs, frozenset(vee))
    theta_dd = ThetaSet(rs, frozenset(vee) & theta.members)
    return theta_vee, theta_dd


def admissible_closure(rs, support, subset):
    """Minimal admissible superset of ``subset``.  Unique because
    admissible supersets of a fixed set are closed under intersection."""
    return ThetaSet(rs, _closure(_neighbours(rs), support.members, frozenset(subset)))


# ---------------------------------------------------------------------------
# chamber sequences


class ChamberThresholds(NamedTuple):
    divergence: float = 1e3      # pairing value that counts as +infinity
    cauchy_tol: float = 1e-6     # tail spread that counts as convergent
    tail_fraction: float = 0.25
    chamber_tol: float = 1e-8


class ChamberLimit(NamedTuple):
    theta: ThetaSet
    finite_coords: dict          # 1-based root index -> limit pairing t_alpha


def chamber_sequence_limit(rs, support, h_seq, thresholds=None):
    """Classify the tail of a chamber sequence against a support.

    Each H must lie in the closed chamber (all simple pairings >= -tol).
    Roots whose tail pairings stay above the divergence threshold form
    the divergent set; its minimal admissible superset is the boundary
    index theta, and the remaining pairings must be Cauchy within
    tolerance.  Oscillating or slowly growing tails raise
    AmbiguousChamberSequence rather than guessing.  A cleanly
    classified sequence converges: the chamber closure is compact and
    the minimal admissible superset is unique.
    """
    th = thresholds or ChamberThresholds()
    h_seq = [np.asarray(h, dtype=float) for h in h_seq]
    if not h_seq:
        raise RootSystemError("empty chamber sequence")
    pairings = np.array([[rs.pair_eps(i, h) for i in range(1, rs.rank + 1)]
                         for h in h_seq])
    if np.min(pairings) < -th.chamber_tol:
        raise RootSystemError("sequence leaves the closed positive chamber")

    tail_len = max(2, int(np.ceil(th.tail_fraction * len(h_seq))))
    tail = pairings[-tail_len:] if len(h_seq) > 1 else pairings

    divergent, convergent, undecided = set(), set(), set()
    for i in range(1, rs.rank + 1):
        col = tail[:, i - 1]
        if col.max() - col.min() <= th.cauchy_tol:
            convergent.add(i)
        elif col.min() >= th.divergence:
            divergent.add(i)
        else:
            undecided.add(i)

    theta = admissible_closure(rs, support, divergent)
    bad = undecided - set(theta.members)
    if bad:
        raise AmbiguousChamberSequence(
            f"pairings of roots {sorted(bad)} neither diverge past "
            f"{th.divergence} nor settle within {th.cauchy_tol}", bad)
    finite = {i: float(tail[:, i - 1].mean())
              for i in sorted(set(range(1, rs.rank + 1)) - set(theta.members))}
    return ChamberLimit(theta, finite)


# ---------------------------------------------------------------------------
# report emission


def admissible_lattice_dot(rs, support, sets=None):
    """Inclusion lattice of admissible sets in dot format (covering edges).
    ``sets`` are all the admissible sets, in emission order.  The covers
    of theta are the minimal closures of theta plus one root, since every
    admissible superset contains one."""
    sets = sets if sets is not None else tau_admissible_sets(rs, support)
    neighbours = _neighbours(rs)
    order = {s.members: k for k, s in enumerate(sets)}
    names = {s.members: ("t_" + "_".join(map(str, s.sorted_members))
                         if s.members else "t_empty")
             for s in sets}
    lines = ["digraph admissible {", "  rankdir=BT;"]
    for s in sets:
        label = "{" + ",".join(map(str, s.sorted_members)) + "}"
        lines.append(f'  {names[s.members]} [label="{label}"];')
    for s in sets:
        grown = {_closure(neighbours, support.members, s.members | {a})
                 for a in neighbours.keys() - s.members}
        covers = [b for b in grown if not any(c < b for c in grown)]
        lines.extend(f"  {names[s.members]} -> {names[b]};"
                     for b in sorted(covers, key=order.__getitem__))
    lines.append("}")
    return "\n".join(lines) + "\n"
