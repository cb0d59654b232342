"""Embeddings of symmetric spaces into projective Hermitian matrices,
support computation, boundary-orbit decomposition, and chamber-limit
cross-checks.

Projective Hermitian points are canonicalized by trace normalization.
Boundary points are matched through rank/kernel profiles of limit
matrices, never through stabilizer subgroups; chamber limits are
evaluated stably through the weight decomposition of the derived
representation, so arbitrarily divergent sequences never overflow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebras import adjoint_rep, get_algebra
from .cartan import exterior_power, tag_of
from .roots import (
    ThetaSet,
    admissible_lattice_dot,
    chamber_sequence_limit,
    eps_to_root_coords,  # noqa: F401  (re-exported)
    nucleus_saturation,
    tau_admissible_sets,
)

PSD_TOL = 1e-10


class SatakePoint:
    """A projective Hermitian matrix, stored trace-normalized."""

    def __init__(self, hermitian):
        h = np.asarray(hermitian, dtype=float)
        h = 0.5 * (h + h.T)
        tr = np.trace(h)
        if tr <= 0:
            raise ValueError("matrix has nonpositive trace")
        h = h / tr
        if np.min(np.linalg.eigvalsh(h)) < -PSD_TOL:
            raise ValueError("matrix is not positive semidefinite")
        self.hermitian = h

    def rank(self, rel_tol=1e-8):
        vals = np.linalg.eigvalsh(self.hermitian)
        return int(np.sum(vals > rel_tol * vals[-1]))

    def to_json(self):
        from .forms import matrix_to_json
        return matrix_to_json(self.hermitian)


class SatakeOrbit(NamedTuple):
    theta: ThetaSet
    theta_vee: ThetaSet
    theta_dd: ThetaSet
    boundary_levi_rank: int
    is_open: bool
    is_closed: bool

    def to_json(self):
        return {
            "theta": list(self.theta.sorted_members),
            "theta_vee": list(self.theta_vee.sorted_members),
            "theta_dd": list(self.theta_dd.sorted_members),
            "boundary_levi_rank": self.boundary_levi_rank,
            "is_open": self.is_open,
            "is_closed": self.is_closed,
        }


# ---------------------------------------------------------------------------
# representation functors


class TauSpec(NamedTuple):
    """A representation functor: identity, an exterior power, the adjoint
    representation of a named algebra, or a finite direct sum."""
    kind: str
    i: int | None = None
    algebra: str | None = None
    parts: tuple = ()

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def exterior(cls, i):
        return cls("exterior", i=i)

    @classmethod
    def adjoint(cls, algebra):
        return cls("adjoint", algebra=algebra)

    @classmethod
    def direct_sum(cls, *parts):
        return cls("sum", parts=tuple(parts))

    def apply(self, g):
        if self.kind == "identity":
            return np.asarray(g, dtype=float)
        if self.kind == "exterior":
            return exterior_power(g, self.i)
        if self.kind == "adjoint":
            return adjoint_rep(g, self.algebra)[0]
        blocks = [p.apply(g) for p in self.parts]
        return _block_diag(blocks)

    def d_apply(self, h):
        """Derived representation on a diagonal Cartan element."""
        h = np.asarray(h, dtype=float)
        if self.kind == "identity":
            return h
        if self.kind == "exterior":
            if np.linalg.norm(h - np.diag(np.diag(h))) > 1e-12:
                raise ValueError("d_apply expects a diagonal Cartan element")
            import itertools
            d = np.diag(h)
            sums = [sum(d[list(c)]) for c in
                    itertools.combinations(range(len(d)), self.i)]
            return np.diag(np.array(sums))
        if self.kind == "adjoint":
            return get_algebra(self.algebra).ad(h)
        return _block_diag([p.d_apply(h) for p in self.parts])


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


class MatrixGroup(NamedTuple):
    """Ambient group context for chamber evaluation: maps epsilon
    coordinates to Cartan matrices of the group that ``form`` picks."""
    n: int
    form: object = None

    @property
    def tag(self):
        return tag_of(self.form)

    def chamber_matrix(self, h_eps):
        h = np.asarray(h_eps, dtype=float)
        if self.tag == "gl":
            if len(h) != self.n:
                raise ValueError(f"need {self.n} epsilon coordinates")
            return np.diag(h)
        q = self.form.q
        if len(h) != q:
            raise ValueError(f"need {q} epsilon coordinates")
        d = np.zeros(self.n)
        d[:q] = h
        d[self.n - q:] = -h[::-1]
        return np.diag(d)


# ---------------------------------------------------------------------------
# embedding and support


def satake_embed(g, tau):
    """Trace-normalized tau(g) tau(g)^*; equivariant for the left action
    h: P -> tau(h) P tau(h)^*."""
    m = tau.apply(g)
    return SatakePoint(m @ m.T)


def satake_embed_chamber(h_eps, tau, group):
    """The embedding of exp(H) for a chamber element, evaluated through
    the weight decomposition so that arbitrarily large H never
    overflows."""
    d = tau.d_apply(group.chamber_matrix(h_eps))
    d = 0.5 * (d + d.T)
    vals, vecs = np.linalg.eigh(d)
    w = 2.0 * (vals - vals[-1])
    expw = np.exp(w)
    p = (vecs * expw) @ vecs.T
    return SatakePoint(p)


def support_of(rs, highest_weight):
    """Support of a dominant weight given in simple-root coefficient
    coordinates: the simple roots pairing positively with it."""
    coeffs = [Fraction(c) for c in highest_weight]
    if len(coeffs) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} root coefficients")
    pairings = [rs.weight_pairing(coeffs, i) for i in range(1, rs.rank + 1)]
    if any(p < 0 for p in pairings):
        raise ValueError("weight is not dominant")
    return ThetaSet(rs, frozenset(i + 1 for i, p in enumerate(pairings) if p > 0))


# ---------------------------------------------------------------------------
# orbits


def orbit_decomposition(rs, support):
    """One orbit per admissible set, with nucleus and saturation; the
    empty set indexes the unique open orbit and the full set the unique
    closed one."""
    if not support.members:
        raise ValueError("support must be nonempty")
    orbits = []
    for th in tau_admissible_sets(rs, support):
        vee, dd = nucleus_saturation(rs, support, th)
        orbits.append(SatakeOrbit(
            th, vee, dd,
            boundary_levi_rank=rs.rank - len(th.members),
            is_open=len(th.members) == 0,
            is_closed=th.is_full()))
    return orbits


def orbits_to_json(orbits):
    return {"orbits": [o.to_json() for o in orbits]}


def orbits_to_dot(rs, support, orbits):
    return admissible_lattice_dot(rs, support, [o.theta for o in orbits])


# ---------------------------------------------------------------------------
# chamber limits


class SatakeLimit(NamedTuple):
    point: SatakePoint
    orbit: SatakeOrbit
    numeric_rank: int
    predicted_rank: int
    tail_step: float              # matrix distance between the last two steps

    @property
    def agrees(self):
        return self.numeric_rank == self.predicted_rank


def tau_weights(tau, group, rank):
    """Integer weight vectors of the derived representation, one per
    basis vector (with multiplicity), probed over the epsilon basis."""
    probes = [group.chamber_matrix(_eps_unit(group, rank, j))
              for j in range(rank)]
    mats = [0.5 * (tau.d_apply(p) + tau.d_apply(p).T) for p in probes]
    # generic dominant regular combination: decreasing positive weights
    # separating distinct integer weight vectors
    generic = sum((np.pi ** (-j)) * m for j, m in enumerate(mats))
    _, vecs = np.linalg.eigh(generic)
    weights = []
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        w = [float(v @ m @ v) for m in mats]
        weights.append(tuple(int(round(x)) for x in w))
        if any(abs(w[j] - weights[-1][j]) > 1e-6 for j in range(rank)):
            raise ValueError("weights did not round to integers")
    return weights


def _eps_unit(group, rank, j):
    if group.tag == "gl":
        e = np.zeros(group.n)
    else:
        e = np.zeros(group.form.q)
    e[j] = 1.0
    return e


def predicted_rank(rs, theta, weights):
    """Number of weights (with multiplicity) congruent to the highest one
    modulo the span of the complement of theta."""
    simple = np.array([[float(c) for c in row] for row in rs.simple_root_coords])
    top = max(weights, key=lambda w: sum((np.pi ** (-j)) * w[j]
                                         for j in range(len(w))))
    complement = [i for i in range(1, rs.rank + 1) if i not in theta.members]
    span = simple[[i - 1 for i in complement], :].T if complement else None
    count = 0
    for w in weights:
        diff = np.array(top, dtype=float) - np.array(w, dtype=float)
        if span is None:
            ok = np.linalg.norm(diff) < 1e-9
        else:
            coeffs, *_ = np.linalg.lstsq(span, diff, rcond=None)
            ok = np.linalg.norm(span @ coeffs - diff) < 1e-9
        count += ok
    return count


def satake_limit(rs, support, h_seq, tau, group, thresholds=None):
    """Chamber-sequence limit evaluated two ways: the combinatorial
    classification of the pairings and the numeric matrix limit of the
    embedding.  Their rank data must agree; ambiguity in the
    classification propagates as an error.

    The weight probes pair epsilon coordinates of the sequence with the
    group's Cartan; the root system's epsilon dimension must match the
    group (e.g. A_{n-1} with gl_n, B_q/D_q with the matching form).
    The rank cut, 1e-12 relative, must sit below exp(-2 <chi - w, t>)
    for the bounded coordinates t and above the divergence suppression;
    it handles finite coordinates up to a few units against a divergence
    threshold of a few tens.
    """
    limit = chamber_sequence_limit(rs, support, h_seq, thresholds)
    orbit_by_theta = {o.theta.sorted_members: o
                      for o in orbit_decomposition(rs, support)}
    orbit = orbit_by_theta[limit.theta.sorted_members]

    point = satake_embed_chamber(h_seq[-1], tau, group)
    prev = satake_embed_chamber(h_seq[-2], tau, group) if len(h_seq) > 1 else point
    tail_step = float(np.linalg.norm(point.hermitian - prev.hermitian))

    weights = tau_weights(tau, group, rs.eps_dim if group.tag == "gl"
                          else group.form.q)
    pred = predicted_rank(rs, limit.theta, weights)
    return SatakeLimit(point, orbit, point.rank(1e-12), pred, tail_step)
