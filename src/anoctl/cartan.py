"""KAK decompositions, Cartan projections, flag maps, exterior powers.

``kak(g, form)`` takes a form, and the form picks the group (``tag_of``):
no form is "gl" (real invertible matrices), a real Witt form "opq" (its
orthogonal group), a complex one "onC" (the complex orthogonal group of
the canonical complex Witt form, handled with complex matrices and
realified flags).

The chamber representative mu(g) is the vector of log singular values in
a root-adapted order: all of them, weakly decreasing, for gl; the top q,
weakly decreasing and nonnegative, for opq and onC.  Decompositions are
deterministic: sign ambiguities in the compact factors are resolved by
forcing the first significant entry of each canonical column positive.

For opq the factorization works at any scale representable in floats:
the symmetric square g^T g is processed by deflation, using the exact
reciprocal-pair symmetry I M I = M^{-1} (I the +-1 diagonal of the form)
so that logarithms only ever see well-conditioned blocks, and compact
factors are assembled from the singular directions that are resolvable
in float64 (unresolvable directions contribute below the reconstruction
tolerance by construction and are completed orthogonally).

onC is factored as opq is past that scale, at every scale: T^H g T
(T = complex_pm_basis) has maximal compact O(n, R), and its singular
triples pair up by conjugation, (sigma, u, v) with (1/sigma, conj u,
conj v).  The imaginary and real parts of a resolved u and v are the
columns of a slot pair of the real compact factors; the other slots
are filled as opq's pool is.

Every path takes two steps: one front end (``_front``: kak's input
checks and one stacked SVD of b^H g b, b the chamber basis, under the
band rule, kept read-only as a ``Front``), then its group's assembly
of k, mu and l from any rows of that front (``Front.kak``).  Word-length
balls are screened with ``cartan_mu_batch``, which reads the same
front and keeps it: its mu is kak's bit for bit wherever kak reads mu
off the SVD (gl, onC, opq past spectral norm 1e6), and only opq's
moderate rows, where kak squares g, carry a margin.  The batch only
settles decisions that its margins settle (an element is not a sphere
minimum, its gap is below the floor, its flag merges into a kept one).
Everything else is decomposed from the batch's kept front
(``GroupBall.kak``), so a ball runs one SVD per form: the limit
sampler's blocks, which give its exact gaps and its flags, and the
gaps of ``GroupBall.gaps`` (the divergence profile's and the relation
scan's) where the batch's margin is not 0.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .forms import Frame, WittForm, check_isotropic, orthonormalize

FORM_PRESERVATION_TOL = 1e-8
_SIGNIFICANT = 1e-9
# relative spectral-norm error of a KAK reconstruction
_RECONSTRUCTION_TOL = 1e-9


class GapTooSmallError(ValueError):
    """A flag map was requested where the defining root gap is too small
    for the flag to be numerically well defined."""

    def __init__(self, alpha, value, tol):
        super().__init__(
            f"gap <alpha_{alpha}, mu(g)> = {value:.3e} is below tol {tol:.3e}; "
            "the flag point is numerically ill-defined")
        self.alpha = alpha
        self.value = value


class MuVector:
    """Cartan projection value in the closed positive chamber."""

    def __init__(self, group_tag, values):
        v = np.asarray(values, dtype=float)
        if np.any(np.diff(v) > 1e-9):
            raise ValueError("mu must be weakly decreasing")
        if group_tag in ("opq", "onC") and v.size and v[-1] < -1e-9:
            raise ValueError("opq/onC mu must be nonnegative")
        self.group_tag, self.values = group_tag, v

    def __len__(self):
        return len(self.values)


class KakTriple(NamedTuple):
    """g = k exp(a(mu)) l with k, l in the declared maximal compact."""
    k: np.ndarray
    mu: MuVector
    l: np.ndarray
    form: WittForm | None = None

    def chamber_matrix(self):
        return chamber_exp(self.mu, self.form)

    def reconstruct(self):
        return self.k @ self.chamber_matrix() @ self.l


def tag_of(form):
    """The ``group_tag`` of the group that ``form`` picks: "gl" for
    None, "opq" for a real Witt form, "onC" for a complex one."""
    if form is None:
        return "gl"
    return "onC" if form.is_complex else "opq"


def chamber_exp(mu, form=None):
    """exp of the chamber element with the given projection value."""
    v = mu.values
    if form is None:
        return np.diag(np.exp(v))
    n = form.n
    d = np.ones(n, dtype=complex if form.is_complex else float)
    d[:len(v)] = np.exp(v)
    d[n - len(v):] = np.exp(-v[::-1])
    return np.diag(d)


# ---------------------------------------------------------------------------
# stacks
#
# _kak_gl, _kak_opq and _kak_onC assemble stacks (N, n, n) from the Front
# of their rows; kak passes one matrix as the one-slice case.  Every
# stacked LAPACK, BLAS and elementwise call gives each slice the bits of
# the same call on that slice alone, so steps that depend on the data run
# once per group of slices that take the same branch.


def _dot(a, b):
    """Dot products of stacked contiguous vectors (..., n): the BLAS dot
    that ``a @ b`` and ``np.linalg.norm`` take on one pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(m, x):
    """m @ x for stacked matrices and vectors: the BLAS gemv of one
    pair."""
    return (m @ x[..., None])[..., 0]


def _vecmat(x, m):
    """x @ m for stacked vectors and matrices: the BLAS gemv of one
    pair, with m transposed."""
    return (x[..., None, :] @ m)[..., 0, :]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _by_columns(a):
    """A copy of a stack (N, n, k) whose slices are column-major, as
    ``m[:, mask]`` lays out one slice: numpy picks the BLAS call (and so
    the rounding) from the layout."""
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, 1, 2)), 1, 2)


def _groups(labels):
    """(label, mask) for each distinct label of an integer array (without
    np.unique, whose import of numpy.ma costs about 1 MiB)."""
    return [(v, labels == v) for v in sorted(set(labels.tolist()))]


def _first_error(bad, message):
    """Raise ``message(j)`` for the first slice j flagged ``bad``."""
    bad = np.flatnonzero(bad)
    if bad.size:
        raise ValueError(message(bad[0]))


class Front:
    """The start of every Cartan path for a stack g (N, n, n), as _front
    computes it: the form, g itself, the chamber basis b (None for gl),
    the SVD u, s, vh of gb = b^H g b, and the band mask ``resolved``
    (N, r).  Assembly reads only the first r singular values and
    vectors, so a kept front may hold only those.  All but g are made
    read-only, so that one front serves every later decomposition of its
    rows unchanged (a ball keeps one per form, in its batch)."""

    def __init__(self, form, g, b, u, s, vh, resolved):
        self.form, self.g = form, g
        self.b, self.u, self.s, self.vh, self.resolved = b, u, s, vh, resolved
        for a in (b, u, s, vh, resolved):
            if a is not None:
                a.flags.writeable = False

    @property
    def gb(self):
        """b^H g b as _front computes it, so with its bits (a slice takes
        the same BLAS calls in a stack of any size); not kept, to save
        memory, since only the assembly reads it, on a few rows."""
        return _chamber_matrices(self.g, self.b)

    def kak(self, rows):
        """kak of the slices at ``rows`` (any order, repeats allowed) as
        arrays (k (m, n, n), mu (m, r), l (m, n, n)), from this front:
        each row is bit for bit the one-matrix result."""
        rows = np.asarray(rows, dtype=int)
        part = Front(self.form, self.g[rows], self.b, *(a[rows] for a in (
            self.u, self.s, self.vh, self.resolved)))
        return {"gl": _kak_gl, "opq": _kak_opq, "onC": _kak_onC}[tag_of(self.form)](part)


def _chamber_matrices(g, b):
    """b^H g b for a stack g (N, n, n) of finite matrices (g for gl)."""
    return g if b is None else b.conj().T @ g @ b


def _front(g, form):
    """The Front of a stack (N, n, n): kak's input checks in its order
    and with its messages (shape, then for the first offending matrix
    finite entries and invertibility, or preservation of the form at
    FORM_PRESERVATION_TOL), and the one SVD of b^H g b, b the chamber
    basis of the form (none for gl).

    Its band mask ``resolved`` (N, r) says which of the r exponents of
    mu clear the band rule: all of them for gl; for opq and onC those
    whose singular value is at least 1 + band, band = 3e6 eps s_0.
    Below it float64 cannot separate an exponent from 0 at that scale,
    and reading it as 0 perturbs the reconstruction by less than its
    tolerance."""
    n = g.shape[-1] if form is None else form.n
    if g.shape[1:] != (n, n):
        raise ValueError("g must be square" if form is None else f"g must be {n}x{n}")
    finite = np.all(np.isfinite(g), axis=(1, 2))
    # the identity stands in for non-finite matrices, which LAPACK rejects
    gf = np.where(finite[:, None, None], g, np.eye(n))
    b = None if form is None else (
        complex_pm_basis(n) if form.is_complex else witt_pm_basis(form.p, form.q))
    u, s, vh = np.linalg.svd(_chamber_matrices(gf, b))
    if form is None:
        _first_error(~finite | ~(s[:, -1] > 0) | ~np.all(np.isfinite(s), axis=1),
                     lambda j: "g has non-finite entries" if not finite[j]
                     else "g is not invertible")
        return Front(form, g, b, u, s, vh, np.ones(s.shape, dtype=bool))
    # |g^T G g - G| > tol max(1, |g|)^2 max(1, |G|) on operands scaled by
    # powers of two, which is exact and does not overflow past |g| ~ 1e154
    top = np.maximum(1.0, s[:, 0])
    scale = np.ldexp(1.0, np.frexp(top)[1])[:, None, None]
    gs = gf / scale
    error = np.swapaxes(gs, 1, 2) @ form.gram @ gs - form.gram / scale / scale
    limit = FORM_PRESERVATION_TOL * (top / scale[:, 0, 0]) ** 2 * max(1.0, form.gram_norm)
    # the Frobenius norm bounds the spectral norm and needs no SVD; only
    # the rows it does not clear take the spectral norm
    defect = np.linalg.norm(error, axis=(1, 2))
    over = ~(defect <= limit)
    if np.any(over):
        defect[over] = np.linalg.norm(error[over], 2, axis=(1, 2))
    _first_error(~finite | ~(defect <= limit), lambda j: "g has non-finite entries"
                 if not finite[j] else "matrix does not preserve the form (defect "
                 f"{float(defect[j]) * scale[j].item() * scale[j].item():.2e})")
    r = n // 2 if form.is_complex else form.q
    return Front(form, g, b, u, s, vh,
                 s[:, :r] >= 1.0 + 3e6 * np.finfo(float).eps * s[:, :1])


# ---------------------------------------------------------------------------
# sign canonicalization


def _canonicalize_signs(u, vt=None):
    """Force the first significant entry of each column of every u in a
    stack (..., n, k) positive, compensating on the matching rows of
    vt."""
    mag = np.abs(u)
    cmax = np.max(mag, axis=-2, keepdims=True)
    first = np.argmax(mag > _SIGNIFICANT * cmax, axis=-2)[..., None, :]
    flip = np.take_along_axis(u, first, axis=-2) < 0
    u = np.where(flip, -u, u)
    if vt is None:
        return u
    rows = min(u.shape[-1], vt.shape[-2])
    flip_rows = np.zeros(vt.shape[:-1] + (1,), dtype=bool)
    flip_rows[..., :rows, 0] = flip[..., 0, :rows]
    return u, np.where(flip_rows, -vt, vt)


# ---------------------------------------------------------------------------
# gl


def _kak_gl(f):
    """KAK of invertible real matrices, from the SVD of their Front f."""
    u, vt = _canonicalize_signs(f.u, f.vh)
    return u, np.log(f.s), vt


# ---------------------------------------------------------------------------
# opq


def witt_pm_basis(p, q):
    """Orthogonal change of basis C with C^T G C = diag(+1_p, -1_q) for
    the canonical Witt gram G; chamber diagonals map to the standard
    block-antidiagonal abelian subspace."""
    n = p + q
    c = np.zeros((n, n))
    r = 1.0 / np.sqrt(2.0)
    for i in range(q):
        c[i, i] = r
        c[n - 1 - i, i] = r          # u_i^+ = (e_i + e_{n+1-i})/sqrt(2)
        c[i, p + i] = r
        c[n - 1 - i, p + i] = -r     # u_i^- = (e_i - e_{n+1-i})/sqrt(2)
    for j in range(q, p):
        c[j, j] = 1.0
    return c


def _reciprocal_log(m, ipq):
    """S = 1/2 log(m) for each SPD m of a stack satisfying
    ipq m ipq = m^{-1}.

    Huge eigenpairs are peeled one at a time while the working block's
    spectral norm exceeds 1e6; each peeled eigenvector v has its
    reciprocal partner exactly at ipq v, so the orthogonal complement
    stays invariant and the remaining block is better conditioned.  In
    the final block only eigenvalues >= 1 are used and their mirrors are
    reconstructed through ipq, so the log never sees an eigenvalue
    computed with poor relative accuracy.  Matrices are peeled
    together while their working spaces have the same dimension.  A
    block's spectral norm comes from the eigh just taken, with an SVD
    only inside the rounding band of 1e6 (_final_blocks).
    """
    n = m.shape[-1]
    s = np.zeros(m.shape)
    # (rows of the stack, their working bases (len(rows), n, k))
    groups = [(np.arange(len(m)), np.broadcast_to(np.eye(n), m.shape))]
    for _ in range(n):
        peeled = []
        for rows, w in groups:
            if w.shape[-1] == 0:
                continue
            wt = np.swapaxes(w, 1, 2)
            mw = wt @ m[rows] @ w
            mw = 0.5 * (mw + np.swapaxes(mw, 1, 2))
            vals, vecs = np.linalg.eigh(mw)
            final = _final_blocks(mw, vals)
            # final blocks: the eigenvalues > 1 are a suffix of eigh's order
            ipq_w = np.swapaxes(w[final], 1, 2) @ ipq @ w[final]
            for c, same in _groups(np.sum(vals[final] > 1.0, axis=1)):
                pick = np.flatnonzero(final)[same]
                kept = _by_columns(vecs[pick, :, vecs.shape[-1] - c:])
                logs = 0.5 * np.log(vals[pick, vals.shape[-1] - c:])
                lplus = (kept * logs[:, None, :]) @ np.swapaxes(kept, 1, 2)
                ipq_c = ipq_w[same]
                s_blk = lplus - ipq_c @ lplus @ ipq_c
                s[rows[pick]] += w[pick] @ s_blk @ np.swapaxes(w[pick], 1, 2)
            peel = ~final
            if not peel.any():
                continue
            w, rows = w[peel], rows[peel]
            v = (w @ vecs[peel][:, :, -1:])[..., 0]
            lam = 0.5 * np.log(vals[peel, -1])
            vbar = _matvec(ipq, v)
            vbar -= v * _dot(v, vbar)[:, None]
            vbar /= np.sqrt(_dot(vbar, vbar))[:, None]
            s[rows] += lam[:, None, None] * (_outer(v, v) - _outer(vbar, vbar))
            # orthonormal complement of {v, vbar} inside the working space
            proj = w - _outer(v, _vecmat(v, w)) - _outer(vbar, _vecmat(vbar, w))
            uu, sv = np.linalg.svd(proj, full_matrices=False)[:2]
            peeled += [(rows[same], _by_columns(uu[same, :, :d]))
                       for d, same in _groups(np.sum(sv > 0.5, axis=1))]
        groups = peeled
    return s


# eigh and the SVD are each backward stable: their spectral norms of a
# k x k block lay at most 2.4 k eps |mw| apart on 48,700 blocks (the
# presets' radius-8 balls, the pingpong pair's radius-6 ball, random O(p,q)
# up to O(5,3); OpenBLAS's SkylakeX kernel)
_NORM_BAND = 16.0


def _final_blocks(mw, vals):
    """np.linalg.norm(mw, 2, axis=(1, 2)) <= 1e6 for symmetric blocks mw
    (N, k, k) with eigh eigenvalues vals (N, k): their largest magnitude
    decides, and only the blocks within _NORM_BAND k eps 1e6 of the
    bound take the SVD norm."""
    top = np.max(np.abs(vals), axis=1)
    final = top <= 1e6
    near = np.abs(top - 1e6) <= _NORM_BAND * mw.shape[-1] * np.finfo(float).eps * 1e6
    if near.any():
        final[near] = np.linalg.norm(mw[near], 2, axis=(1, 2)) <= 1e6
    return final


def _polar(a, full_matrices=True):
    """uu @ vvt of np.linalg.svd(a, full_matrices), the orthogonal polar
    factor of each matrix of a stack; 1 x 1 blocks take copysign(1, x),
    the SVD's bits (on +-0, +-subnormals and 1e5 values from 1e-300 to
    1e300), with no LAPACK call."""
    if a.shape[-2:] == (1, 1):
        return np.copysign(1.0, a)
    uu, _, vvt = np.linalg.svd(a, full_matrices=full_matrices)
    return uu @ vvt


def _complete_orthogonal(known, slots, n):
    """Complete known orthonormal vectors to n x n orthogonal matrices,
    for a stack: ``known`` (N, len(slots), n) holds the vectors of the
    column ``slots``, in that order; the other columns are filled from
    the nullspace, which one full SVD of the polished block gives.  A
    block that fills every slot is only polished."""
    out = np.zeros((len(known), n, n))
    missing = [j for j in range(n) if j not in slots]
    if slots:
        # polish the known block onto the nearest orthonormal set
        mat = _polar(np.swapaxes(known, 1, 2), full_matrices=False)
        out[:, :, slots] = mat
        if not missing:
            return out
        basis = np.linalg.svd(mat)[0][:, :, len(slots):]
    else:
        basis = np.broadcast_to(np.eye(n), out.shape)
    out[:, :, missing] = _canonicalize_signs(basis)
    return out


# above this spectral norm the squared matrix g^T g no longer resolves the
# full exponent range in float64 and the direct SVD assembly takes over
_MODERATE_NORM = 1e6


def _kak_opq(f):
    """KAK of elements of O(b) for a real Witt form b, from their Front f.

    Up to spectral norm 1e6 all exponents are recovered to full precision
    through the deflated logarithm of g^T g.  Beyond that the singular
    value decomposition of g itself is paired up using the mirror
    symmetry (sigma, 1/sigma); exponents that float64 cannot separate
    from 0 at that scale are reported as 0, which perturbs the
    reconstruction by less than its relative tolerance.
    """
    p, q = f.form.p, f.form.q
    c, gp, resolved = f.b, f.gb, f.resolved
    ipq = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    kdbl, k1 = np.zeros(gp.shape), np.zeros(gp.shape)
    lam = np.where(resolved, np.log(f.s[:, :q]), 0.0)
    moderate = f.s[:, 0] <= _MODERATE_NORM
    for big, rows in _groups(np.where(moderate, -1, np.sum(resolved, axis=1))):
        if big < 0:
            kdbl[rows], lam[rows], k1[rows] = _assemble_opq_moderate(gp[rows], ipq, p, q)
        else:
            kdbl[rows], k1[rows] = _extreme_factors(gp[rows], f.u[rows], f.vh[rows],
                                                    p, q, big)
    k = c @ kdbl @ c.T
    l = c @ np.swapaxes(k1, 1, 2) @ c.T
    return k, lam, l


def _assemble_opq_moderate(gp, ipq, p, q):
    """Factor through S = 1/2 log(g^T g): exact-grade at moderate scale."""
    m = np.swapaxes(gp, 1, 2) @ gp
    m = 0.5 * (m + np.swapaxes(m, 1, 2))
    s = _reciprocal_log(m, ipq)
    u1, lam, v1t = np.linalg.svd(s[:, :p, p:])
    u1, v1t = _canonicalize_signs(u1, v1t)
    k1 = np.zeros(gp.shape)
    k1[:, :p, :p] = u1
    k1[:, p:, p:] = np.swapaxes(v1t, 1, 2)

    # left factor columns: the top singular direction of every reciprocal
    # pair determines both block columns (its mirror is ipq times it, so
    # the mirror is never computed through gp, where it would be noise)
    kdbl = np.zeros(gp.shape)
    root2 = np.sqrt(2.0)
    for i in range(q):
        rplus = (k1[:, :, i] + k1[:, :, p + i]) / root2
        splus = _matvec(gp, rplus) / np.exp(lam[:, i:i + 1])
        kdbl[:, :p, i] = root2 * splus[:, :p]
        kdbl[:, p:, p + i] = root2 * splus[:, p:]
    for j in range(q, p):
        kdbl[:, :, j] = _matvec(gp, k1[:, :, j])
    kdbl = _block_polish(kdbl, p)
    return kdbl, lam, k1


def _normalize(vectors):
    return vectors / np.sqrt(_dot(vectors, vectors))[..., None]


def _extreme_factors(gp, u, vt, p, q, nbig):
    """_kak_opq's compact factors past the moderate norm, for a stack
    whose first ``nbig`` exponents are resolved: the singular triple of
    gp for 1/sigma is (ipq u, ipq v), so the canonical factor columns
    are the +-block parts of v and u."""
    big = list(range(nbig))
    k1pp = _complete_orthogonal(_normalize(vt[:, :nbig, :p]), big, p)
    k1qq = _complete_orthogonal(_normalize(vt[:, :nbig, p:]), big, q)
    k1 = np.zeros(gp.shape)
    k1[:, :p, :p] = k1pp
    k1[:, p:, p:] = k1qq

    # pool slots act by the identity exponent; their left columns are
    # the images of k1's under gp
    left = np.swapaxes(u[:, :, :nbig], 1, 2)
    kdbl = np.zeros(gp.shape)
    for blk, right in ((slice(0, p), k1pp), (slice(p, p + q), k1qq)):
        size = blk.stop - blk.start

        def image(slot):
            x = np.zeros(gp.shape[:2])
            x[:, blk] = right[:, :, slot]
            return _matvec(gp, x)[:, blk]

        kdbl[:, blk, blk] = _pool_factor(
            big, _normalize(np.ascontiguousarray(left[:, :, blk])),
            range(nbig, size), image, size)
    return kdbl, k1


def _pool_factor(known, vecs, slots, image, size):
    """Orthogonal matrices (N, size, size) whose columns ``known`` are
    the orthonormal vectors ``vecs`` (N, len(known), size).  Each pool
    slot in turn takes the Gram-Schmidt image ``image(slot)`` (N, size)
    where that is resolvable; the other columns are completed
    orthogonally."""
    # (rows, known slots, their vectors) per pattern of kept slots
    groups = [(np.arange(len(vecs)), known, vecs)]
    for slot in slots:
        img = image(slot)
        groups = [part for rows, kept, v in groups
                  for part in _try_add_column(rows, kept, v, slot, img[rows])]
    out = np.zeros((len(vecs), size, size))
    for rows, kept, v in groups:
        out[rows] = _complete_orthogonal(v, kept, size)
    return out


def _try_add_column(rows, known, vecs, slot, img):
    """Gram-Schmidt a candidate column against the known ones, for a
    stack; the rows where it is numerically degenerate drop it (it will
    be completed orthogonally).  Returns the (rows, known slots, vectors)
    groups that add it and that do not."""
    v = img.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(vecs.shape[1]):
            v -= vecs[:, j] * _dot(vecs[:, j], v)[:, None]
        nrm = np.sqrt(_dot(v, v))
        size = np.sqrt(_dot(img, img))
        add = np.all(np.isfinite(img), axis=1) & (0.5 <= size) & \
            (size <= 2.0) & (nrm >= 1e-3)
        v /= nrm[:, None]
    parts = [(rows[add], known + [slot],
              np.concatenate([vecs[add], v[add, None]], axis=1)),
             (rows[~add], known, vecs[~add])]
    return [part for part in parts if part[0].size]


def _block_polish(kdbl, p):
    """Project near block-orthogonal matrices exactly onto O(p) x O(q):
    each diagonal block's polar factor (_polar, so a 1 x 1 block, O(p, 1)'s
    q-block, takes its sign)."""
    out = np.zeros_like(kdbl)
    for blk in (slice(0, p), slice(p, None)):
        out[:, blk, blk] = _polar(kdbl[:, blk, blk])
    return out


# ---------------------------------------------------------------------------
# onC


def complex_pm_basis(n):
    """Unitary T with T^T G T = I for the canonical complex Witt gram
    (full antidiagonal); conjugation carries the complex orthogonal group
    to the standard one with maximal compact O(n, R)."""
    m = n // 2
    t = np.zeros((n, n), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    for i in range(m):
        t[i, i] = r
        t[n - 1 - i, i] = r                 # a_i
        t[i, n - m + i] = 1j * r
        t[n - 1 - i, n - m + i] = -1j * r   # b_i
    if n % 2:
        t[m, m] = 1.0
    return t


def _kak_onC(f):
    """KAK of elements of the complex orthogonal group of the canonical
    complex Witt form, from the one SVD of their Front f, at any scale
    (see the module docstring).  The first matrix that a decomposition
    does not reconstruct to relative accuracy _RECONSTRUCTION_TOL in the
    spectral norm raises ValueError."""
    n, m = f.form.n, f.form.n // 2
    t, g, s = f.b, f.g, f.s
    lam = np.where(f.resolved, np.log(s[:, :m]), 0.0)
    kss, rot = np.zeros(g.shape), np.zeros(g.shape)
    for big, rows in _groups(np.sum(f.resolved, axis=1)):
        kss[rows], rot[rows] = _onC_factors(f.gb[rows], f.u[rows], f.vh[rows], big)
    k = t @ kss @ t.conj().T
    l = t @ np.swapaxes(rot, 1, 2) @ t.conj().T
    d = np.concatenate([np.exp(lam), np.ones((len(g), n - 2 * m)),
                        np.exp(-lam[:, ::-1])], axis=1)
    error = np.linalg.norm((k * d[:, None, :]) @ l - g, 2, axis=(1, 2))
    _first_error(~(error <= _RECONSTRUCTION_TOL * s[:, 0]), lambda j: (
        f"onC KAK is not accurate at spectral norm {s[j, 0]:.3g}: its "
        f"reconstruction misses the relative tolerance {_RECONSTRUCTION_TOL:g}"))
    return k, lam, l


def _onC_factors(gs, u, vh, nbig):
    """_kak_onC's real orthogonal factors kss, rot with gs = kss exp(a) rot^T
    (a the chamber element in the T basis), for a stack whose first
    ``nbig`` exponents are resolved.  Slot pair i is (i, n - n // 2 + i);
    its columns are sqrt(2) times the imaginary and real parts of the
    i-th singular vectors."""
    n = gs.shape[-1]
    big = list(range(nbig)) + list(range(n - n // 2, n - n // 2 + nbig))

    def slot_columns(vectors):
        """The columns of the slots ``big`` from singular vectors (N, nbig, n)."""
        return np.sqrt(2.0) * np.concatenate([vectors.imag, vectors.real], axis=1)

    rot = _complete_orthogonal(slot_columns(vh[:, :nbig].conj()), big, n)
    # pool slots act by the identity exponent: their left columns are
    # the real images of rot's, where resolvable
    kss = _pool_factor(big, slot_columns(np.swapaxes(u[:, :, :nbig], 1, 2)),
                       sorted(set(range(n)) - set(big)),
                       lambda slot: np.real(_matvec(gs, rot[:, :, slot])), n)
    return kss, rot


# ---------------------------------------------------------------------------
# dispatch, gaps, flags


def kak(g, form=None):
    """Cartan decomposition in the group that ``form`` picks (see the
    module docstring): _front, then its group's assembly (Front.kak).
    ``g`` is one matrix, which gives a KakTriple, or a stack (N, n, n),
    which gives plain arrays (k (N, n, n), mu (N, r), l (N, n, n)), each
    row bit for bit its own one-matrix result; the first bad matrix
    raises ValueError."""
    tag = tag_of(form)
    g = np.asarray(g, dtype=complex if tag == "onC" else float)
    if g.ndim == 3:
        return _front(g, form).kak(np.arange(len(g)))
    (k,), (mu,), (l,) = _front(g[None], form).kak([0])
    return KakTriple(k, MuVector(tag, mu), l, form)


def _root_coeffs(length, rs, tag):
    """The simple roots of rs in epsilon coordinates (length, rank), for
    a mu of ``length`` entries in the group of ``tag``; ValueError if
    rs does not fit that group."""
    if tag == "gl" and (rs.type_label != "A" or rs.rank != length - 1):
        raise ValueError(f"gl mu of length {length} needs root system A_{length - 1}")
    if tag != "gl" and (rs.type_label not in ("B", "D") or rs.rank != length):
        raise ValueError(f"{tag} mu of length {length} needs type B or D of rank {length}")
    return np.array([[float(c) for c in row] for row in rs.simple_root_coords]).T


def root_gaps(mu, rs, tag):
    """Gaps (..., rank) of stacked mu values (..., r) in the group of
    ``tag``: each has at most two terms +-mu_j, so it is rounded once,
    and a row gives the same bits alone or in any stack."""
    mu = np.asarray(mu, dtype=float)
    return mu @ _root_coeffs(mu.shape[-1], rs, tag)


def mu_gaps(mu, rs):
    """Pairings of a MuVector with each simple root, as a 1-based dict."""
    return dict(enumerate(root_gaps(mu.values, rs, mu.group_tag).tolist(), 1))


# ---------------------------------------------------------------------------
# batched Cartan projections

# every screen margin includes this much: rounding of mu and of the gaps
# (|mu| < 710 in float64) and slack for the caller's own comparisons
SCREEN_MARGIN = 1e-9
# |batched - kak| stays below eps * kappa times this; the measured ratio
# is below 11 on random O(2,1), O(3,2), O(4,2), O(3,3), O(5,3) elements
# at exponents up to 40 and on the preset balls
_SCREEN_GROWTH = 100.0


class MuBatch(NamedTuple):
    """Cartan projections of a stack of matrices from kak's own SVD.

    ``mu`` (N, r) is in kak's chamber order, and ``margin`` (N, r)
    bounds |mu - kak(g).mu| entrywise: it is 0 (the same bits) except on
    opq's moderate rows, where kak squares g.  ``u`` holds the left
    singular vectors in descending order: (N, n, n) for gl and opq, and
    for onC (N, 2n, 2n) realified in xi_theta's order.  ``frames(i)``
    spans the i-plane that xi_theta reads off ``kak(g).k``; where the
    defining gap exceeds 1, ``flag_margin`` (N,) bounds the largest
    principal-angle sine between the two (inf for onC).  A batch whose
    margins are all inf settles nothing.  ``front`` is the Front that
    the batch is read from, less the singular values and vectors that
    assembly does not read, kept so that ``front.kak(rows)`` decomposes
    any of its rows without a second SVD.
    """
    group_tag: str
    mu: np.ndarray
    margin: np.ndarray
    u: np.ndarray
    flag_margin: np.ndarray
    front: Front

    def gaps(self, rs):
        """(gaps, slack): (N, rank) pairings of mu with the simple roots,
        in root order (root_gaps of mu), and bounds on their distance from
        root_gaps of kak's mu (0 where the gaps are kak's own bits)."""
        coeffs = _root_coeffs(self.mu.shape[1], rs, self.group_tag)
        undecided = np.isinf(self.margin)
        slack = np.where(undecided, 0.0, self.margin) @ np.abs(coeffs)
        slack[np.any(undecided, axis=1)] = np.inf
        return root_gaps(self.mu, rs, self.group_tag), slack

    def frames(self, i):
        """(N, *, k) orthonormal columns of the flags that xi_theta reads
        off the first i columns of kak(g).k, for plane dimension i."""
        if self.group_tag != "onC":
            return self.u[:, :, :i]
        n = self.u.shape[-1] // 2
        return np.concatenate([self.u[:, :, :i], self.u[:, :, n:n + i]], axis=2)


def cartan_mu_batch(mats, form=None):
    """mu of every matrix of an (N, n, n) stack, in the group that
    ``form`` picks, from the stacked SVD that kak starts from (its input
    checks raise kak's ValueError for the first offending matrix).

    Where kak reads mu off that SVD (gl, onC, and opq past spectral norm
    1e6, under kak's band rule) the batch's mu is kak's, bit for bit.
    kak's opq path squares g below that norm, so there the error grows with
    (s_0 / s_{q-1})^2.  The flags of gl and opq are bounded with a growth
    of s_0 / s_m, s_m the smallest singular value that enters mu.  See
    MuBatch.
    """
    tag = tag_of(form)
    given = np.asarray(mats)
    front = _front(given.astype(complex if tag == "onC" else float, copy=False), form)
    b, u, s = front.b, front.u, front.s
    r = front.resolved.shape[1]
    s0 = s[:, 0]
    moderate = (tag == "opq") & (s0 <= _MODERATE_NORM)
    # kak's squared opq path reads no exponent as 0
    resolved = front.resolved | moderate[:, None]
    mu = np.where(resolved, np.log(s[:, :r]), 0.0)
    # s_m, the smallest singular value that enters mu
    m = np.maximum(np.sum(resolved, axis=1), 1)
    ratio = s0 / s[np.arange(len(s)), m - 1]
    with np.errstate(over="ignore"):    # the square is kept only below 1e6
        kappa = np.where(moderate, np.maximum(s0, ratio ** 2), ratio)
    bound = SCREEN_MARGIN + _SCREEN_GROWTH * np.finfo(float).eps * kappa
    margin = np.repeat(np.where(moderate, bound, 0.0)[:, None], r, axis=1)
    # assembly reads only the first r singular values and vectors (gl's r
    # is n), so the batch keeps no more; onC reads g through numpy's exact
    # cast to complex, so it keeps the given matrices, not their copy
    kept = front if tag == "gl" else Front(
        form, given if tag == "onC" else front.g, b, u[:, :, :r].copy(),
        s[:, :r].copy(), front.vh[:, :r].copy(), front.resolved)
    if tag == "onC":    # no bound is known for its realified flags
        return MuBatch(tag, mu, margin, _realify(b @ u), np.full(len(s), np.inf), kept)
    return MuBatch(tag, mu, margin, u if b is None else b @ u, bound, kept)


def _theta_to_plane_dim(theta, form):
    """Numeric scope of the flag map: a singleton {alpha_i}; for p = q the
    (p-1)-plane case is indexed by {alpha_{p-1}, alpha_p}."""
    members = sorted(theta.members)
    if not members:
        raise ValueError("theta must be nonempty")
    tag = tag_of(form)
    if tag == "gl":
        if len(members) != 1:
            raise ValueError("gl flag maps support a single simple root")
        return members[0]
    q = form.q if tag == "opq" else form.n // 2
    p_eq_q = tag == "opq" and form.p == form.q
    if len(members) == 1:
        i = members[0]
        if p_eq_q and i >= q - 1:
            raise ValueError(
                "for p = q the (p-1)-plane flag is indexed by {alpha_{p-1}, alpha_p}")
        return i
    if p_eq_q and members == [q - 1, q]:
        return q - 1
    raise ValueError(f"unsupported theta {members} for this group")


def xi_theta(g, theta, form=None, tol=1e-6):
    """Flag map: the Frame of flag_of the compact left factor of kak(g,
    form), for the plane dimension of theta (flag_of's one-matrix case).

    Requires every gap <alpha, mu(g)> for alpha in theta to exceed tol;
    otherwise GapTooSmallError is raised, because the flag would depend on
    the tie-breaking inside the decomposition.
    """
    i = _theta_to_plane_dim(theta, form)
    dec = kak(g, form)
    gaps = mu_gaps(dec.mu, theta.root_system)
    for a in sorted(theta.members):
        if gaps[a] <= tol:
            raise GapTooSmallError(a, gaps[a], tol)
    return Frame(flag_of(dec.k, i, form))


def flag_of(k, i, form=None):
    """The orthonormal columns (..., n, i) of the flags spanned by the
    first i columns of compact left factors k (..., n, n), realified
    (..., 2n, 2i) for onC.  One stacked orthonormalize takes every slice
    (LAPACK decomposes each on its own), so each is bit for bit the Frame
    that Frame.from_spanning builds from it.  Raises ValueError if a
    slice has rank below its column count and, for opq and onC, unless
    every span is isotropic for the form (check_isotropic)."""
    cols = k[..., :i]
    if form is not None and form.is_complex:
        cols = _realify(cols)
    cols, ranks = orthonormalize(cols)
    if np.any(ranks < cols.shape[-1]):
        raise ValueError("flag columns are linearly dependent")
    if form is not None:
        check_isotropic(cols, form)
    return cols


def _realify(cols):
    """The real columns [[Re, -Im], [Im, Re]] (..., 2n, 2k) of complex
    columns (..., n, k): a real spanning set of their complex span."""
    re, im = np.real(cols), np.imag(cols)
    return np.concatenate([np.concatenate([re, im], axis=-2),
                           np.concatenate([-im, re], axis=-2)], axis=-1)


# ---------------------------------------------------------------------------
# exterior powers


def exterior_power(g, i):
    """Matrix of the i-th exterior power in the lexicographic induced
    basis; functorial in g."""
    g = np.asarray(g)
    n = g.shape[0]
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= {n - 1}")
    combos = list(itertools.combinations(range(n), i))
    out = np.empty((len(combos), len(combos)), dtype=g.dtype)
    for a, rows in enumerate(combos):
        for b, cols in enumerate(combos):
            out[a, b] = np.linalg.det(g[np.ix_(rows, cols)])
    return out
