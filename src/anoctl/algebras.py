"""Matrix Lie algebras at desk scale: adjoint representations, Killing
forms, and restricted root-space decompositions.

Supported tags: "sl2".."sl4" and "oPQ" for p >= q with p + q <= 5 (Witt
basis).  Bases are Frobenius-orthonormal, so the adjoint action of the
maximal compact subgroup is by genuinely orthogonal matrices, which is
what the Satake embedding layer needs.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .forms import make_witt_form, null_space
from .roots import build_root_system, positive_roots

# relative tolerance of coords' and adjoint_rep's membership checks
MEMBERSHIP_TOL = 1e-8


class KillingForm(NamedTuple):
    algebra_tag: str
    gram: np.ndarray
    dim_k: int


class LieAlgebra:
    """A concrete matrix Lie algebra with its restricted root data.

    Coordinates are taken in the stored Frobenius-orthonormal basis; the
    Cartan subspace is the diagonal one of the defining representation.
    """

    def __init__(self, tag, basis, cartan, root_system, form=None):
        self.tag = tag
        self.basis = [np.asarray(b, dtype=float) for b in basis]
        self.dim = len(self.basis)
        self.n = self.basis[0].shape[0]
        self.form = form
        self.cartan = [np.asarray(h, dtype=float) for h in cartan]
        self.rank = len(cartan)
        self.root_system = root_system
        flat = np.stack([b.reshape(-1) for b in self.basis], axis=1)
        self._flat = flat
        self._pinv = np.linalg.pinv(flat)
        self._ad = [self._ad_matrix(b) for b in self.basis]
        self.killing_gram = np.array(
            [[np.trace(a @ b) for b in self._ad] for a in self._ad])

    # -- coordinates -------------------------------------------------------

    def coords(self, x):
        """Basis coordinates of a matrix; rejects matrices outside the
        algebra (residual above MEMBERSHIP_TOL, relative)."""
        x = np.asarray(x, dtype=float)
        c = self._pinv @ x.reshape(-1)
        resid = np.linalg.norm(self._flat @ c - x.reshape(-1))
        if resid > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(x)):
            raise ValueError(f"matrix not in {self.tag} (residual {resid:.2e})")
        return c

    def from_coords(self, c):
        return (self._flat @ np.asarray(c, dtype=float)).reshape(self.n, self.n)

    def _ad_matrix(self, x):
        cols = [self._pinv @ (x @ b - b @ x).reshape(-1) for b in self.basis]
        return np.stack(cols, axis=1)

    def ad(self, x):
        """ad of a matrix (given as a matrix or as coordinates)."""
        x = np.asarray(x, dtype=float)
        if x.shape == (self.dim,):
            x = self.from_coords(x)
        return self._ad_matrix(x)

    def bracket_coords(self, c1, c2):
        x = self.from_coords(c1)
        y = self.from_coords(c2)
        return self._pinv @ (x @ y - y @ x).reshape(-1)

    # -- structure ---------------------------------------------------------

    @property
    def compact_subalgebra(self):
        """Coordinate basis of k = fixed points of X -> -X^T."""
        if not hasattr(self, "_k_basis"):
            rows = [(b + b.T).reshape(-1) for b in self.basis]
            self._k_basis = null_space(np.stack(rows, axis=1))
        return self._k_basis

    @property
    def dim_k(self):
        return self.compact_subalgebra.shape[1]

    def killing(self):
        return KillingForm(self.tag, self.killing_gram, self.dim_k)

    def cartan_ad(self):
        return [self.ad(h) for h in self.cartan]

    def zero_space(self):
        """g_0: joint kernel of ad over the Cartan subspace (coords)."""
        stacked = np.vstack(self.cartan_ad())
        return null_space(stacked)

    def eps_pairing(self, eps_coords, h):
        """<alpha, H> for a root in epsilon coordinates and H in the
        Cartan subspace (epsilon_j reads the j-th diagonal entry)."""
        return float(sum(float(c) * h[j, j] for j, c in enumerate(eps_coords)))

    def root_space(self, eps_coords):
        """Root space for the functional with the given epsilon
        coordinates (coords basis, one column per multiplicity)."""
        blocks = [adh - self.eps_pairing(eps_coords, h) * np.eye(self.dim)
                  for adh, h in zip(self.cartan_ad(), self.cartan)]
        return null_space(np.vstack(blocks))

    def positive_root_list(self):
        """(eps_coords, simple-root coefficients) pairs from the attached
        restricted root system."""
        return positive_roots(self.root_system)


def _sl_algebra(n):
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n))
                e[i, j] = 1.0
                basis.append(e)
    diag = []
    for i in range(n - 1):
        h = np.zeros((n, n))
        h[i, i], h[i + 1, i + 1] = 1.0, -1.0
        diag.append(h.reshape(-1))
    qmat, _ = np.linalg.qr(np.stack(diag, axis=1))
    basis.extend(qmat[:, i].reshape(n, n) for i in range(n - 1))
    cartan = []
    for i in range(n - 1):
        h = np.zeros((n, n))
        h[i, i], h[i + 1, i + 1] = 1.0, -1.0
        cartan.append(h)
    rs = build_root_system("A", n - 1)
    return LieAlgebra(f"sl{n}", basis, cartan, rs)


def _o_algebra(p, q):
    form = make_witt_form(p, q)
    g = form.gram
    n = p + q
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j], e[j, i] = 1.0, -1.0
            basis.append((g @ e) / np.sqrt(2.0))
    cartan = []
    for i in range(q):
        h = np.zeros((n, n))
        h[i, i], h[n - 1 - i, n - 1 - i] = 1.0, -1.0
        cartan.append(h)
    if q == 0:
        raise ValueError("o(p,0) is compact; no restricted roots")
    rs = build_root_system("B" if p > q else "D", q)
    return LieAlgebra(f"o{p}{q}", basis, cartan, rs, form=form)


@lru_cache(maxsize=None)
def get_algebra(tag):
    """Registry of the supported algebras (sl_n, n <= 4; o(p,q),
    p + q <= 5)."""
    m = re.fullmatch(r"sl(\d)", tag)
    if m:
        n = int(m.group(1))
        if not 2 <= n <= 4:
            raise ValueError("sl_n supported for 2 <= n <= 4")
        return _sl_algebra(n)
    m = re.fullmatch(r"o(\d)(\d)", tag)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if not (p >= q >= 1 and p + q <= 5 and (p > q or q >= 2)):
            raise ValueError(f"o({p},{q}) not supported")
        return _o_algebra(p, q)
    raise ValueError(f"unknown algebra tag {tag!r}")


def adjoint_rep(g, algebra_tag):
    """Adjoint action of a group element on its Lie algebra, together
    with the Killing form (raw trace form of ad, no normalization).

    The returned matrix is orthogonal-on-coordinates for elements of the
    maximal compact subgroup and always preserves the Killing gram.
    """
    alg = get_algebra(algebra_tag)
    g = np.asarray(g, dtype=float)
    if g.shape != (alg.n, alg.n):
        raise ValueError(f"element must be {alg.n}x{alg.n}")
    if algebra_tag.startswith("sl"):
        if abs(np.linalg.det(g) - 1.0) > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(g) ** alg.n):
            raise ValueError("element does not have determinant 1")
    else:
        gram = alg.form.gram
        defect = np.linalg.norm(g.T @ gram @ g - gram, 2)
        if defect > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(g, 2) ** 2):
            raise ValueError("element does not preserve the form")
    ginv = np.linalg.inv(g)
    cols = [alg.coords(g @ b @ ginv) for b in alg.basis]
    return np.stack(cols, axis=1), alg.killing()
