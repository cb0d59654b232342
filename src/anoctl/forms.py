"""Dense linear algebra over indefinite symmetric bilinear forms.

Witt normal forms, orthonormal subspace frames, restrictions and kernels,
principal-angle distances on projective spaces and Grassmannians, and
incidence tests.  Everything here is a pure function of its inputs; the
value types are treated as immutable after construction and are safe to
share across threads.

Subspaces are always carried as Euclidean-orthonormal frames (never as
projectors or Pluecker coordinates): principal-angle computations stay
stable and storage is O(nk).  Incidence functions also take stacked
frames: arrays of orthonormal columns of shape (..., n, k), one frame
per leading index, so a query against a whole sample is one batched
call whose Frame case is the single slice.  One rule, settle, cuts
every cosine table against a bound by the cuts of cosine_cuts; it
leaves the unsure entries to an exact kernel.  first_below makes every
yes/no incidence decision on a whole table with it, and pairs_below is
its form for single pairs, such as those that the projection window
(window_pairs) finds.  Complex vector spaces are
realized as real spaces of doubled dimension together with an explicit
complex-structure matrix J; a complex bilinear form is carried as the
pair of real forms (its real and imaginary parts).
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import is_not, sub

import numpy as np

# Global defaults for rank / membership decisions.  All rank and
# intersection decisions are singular-value thresholds against a single
# relative tolerance.
DEFAULT_TOL = 1e-9
ORTHONORMALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-12
_EPS = np.finfo(float).eps


class FormSignatureError(ValueError):
    """A gram matrix does not have the declared signature."""


class WittForm:
    """A nondegenerate symmetric bilinear form in Witt normal form.

    For signature (p, q) with p >= q the canonical gram matrix pairs
    coordinate i with coordinate n+1-i for i <= q (antidiagonal ones) and
    is the identity on the middle p-q block, so isotropic coordinate
    planes are spanned by leading basis vectors.

    ``field_tag`` is "real" or "complex".  A complex form of dimension n
    uses the same canonical n x n gram read as a complex-bilinear form;
    accessors provide the doubled real realization (real part, imaginary
    part, complex structure J) on R^{2n}.
    """

    def __init__(self, p, q, gram, field_tag="real"):
        gram = np.asarray(gram, dtype=float)
        n = p + q
        if gram.shape != (n, n):
            raise ValueError(f"gram must be {n}x{n}, got {gram.shape}")
        scale = np.linalg.norm(gram, 2)
        if scale > 0 and np.linalg.norm(gram - gram.T, 2) > SYMMETRY_TOL * scale:
            raise FormSignatureError("gram matrix is not symmetric")
        pos, neg, null = signature(gram, SYMMETRY_TOL)
        if (pos, neg, null) != (p, q, 0):
            raise FormSignatureError(
                f"gram has signature {(pos, neg, null)}, expected ({p}, {q}, 0)")
        self.p = int(p)
        self.q = int(q)
        self.gram = gram
        self.field_tag = field_tag

    @property
    def n(self):
        return self.p + self.q

    @property
    def is_complex(self):
        return self.field_tag == "complex"

    # -- complex realization on R^{2n} ------------------------------------
    # Coordinates on R^{2n} are (Re z, Im z).

    def j_matrix(self):
        """Multiplication by sqrt(-1) on the doubled real space."""
        self._require_complex()
        n = self.n
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        return J

    def re_gram(self):
        """Real part of the complex form as a 2n x 2n real gram matrix."""
        self._require_complex()
        G = self.gram
        return np.block([[G, np.zeros_like(G)], [np.zeros_like(G), -G]])

    def _require_complex(self):
        if not self.is_complex:
            raise ValueError("operation requires a complex form")

    @cached_property
    def real_gram(self):
        """The real gram that frames are measured with: ``gram`` for a
        real form, ``re_gram()`` on R^{2n} for a complex one."""
        return self.re_gram() if self.is_complex else self.gram

    @cached_property
    def isotropy_scale(self):
        """max(|real_gram|_2, 1), the scale of check_isotropic's
        test."""
        return max(np.linalg.norm(self.real_gram, 2), 1.0)

    @cached_property
    def gram_norm(self):
        """Spectral norm of ``gram``, the scale of in_Xbar's
        nonpositivity test."""
        return np.linalg.norm(self.gram, 2)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        d = matrix_to_json(self.gram)
        d.update({"p": self.p, "q": self.q, "field": self.field_tag})
        return d

    @classmethod
    def from_json(cls, d):
        return cls(d["p"], d["q"], matrix_from_json(d), d.get("field", "real"))

    def __repr__(self):
        return f"WittForm(p={self.p}, q={self.q}, field={self.field_tag!r})"


def make_witt_form(p, q, field_tag="real"):
    """Canonical Witt form of signature (p, q), p >= q >= 0, p + q >= 1.

    The caller must order the signature so that p >= q; inputs with
    p < q are rejected rather than silently swapped.
    """
    if not (p >= q >= 0 and p + q >= 1):
        raise ValueError(f"need p >= q >= 0 and p + q >= 1, got ({p}, {q})")
    n = p + q
    gram = np.zeros((n, n))
    for i in range(q):
        gram[i, n - 1 - i] = 1.0
        gram[n - 1 - i, i] = 1.0
    for i in range(q, p):
        gram[i, i] = 1.0
    return WittForm(p, q, gram, field_tag)


def signature(m, tol):
    """Signature (pos, neg, null) of a symmetric matrix.

    Eigenvalues above +tol*|m|, below -tol*|m| and in between are counted,
    where |m| is the spectral norm.
    """
    m = np.asarray(m, dtype=float)
    scale = np.linalg.norm(m, 2) if m.size else 0.0
    if scale > 0 and np.linalg.norm(m - m.T, 2) > max(tol, SYMMETRY_TOL) * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    cut = tol * scale
    pos = int(np.sum(w > cut))
    neg = int(np.sum(w < -cut))
    return pos, neg, len(w) - pos - neg


class Frame:
    """An orthonormal spanning frame for a k-dimensional subspace of R^n.

    Frames with equal column span compare equal under ``span_equals``
    (all principal angles zero within tolerance); the stored columns are
    one choice of orthonormal basis.
    """

    def __init__(self, columns):
        columns = np.asarray(columns, dtype=float)
        if columns.ndim == 1:
            columns = columns[:, None]
        n, k = columns.shape
        if k > n:
            raise ValueError(f"frame has more columns ({k}) than ambient dim ({n})")
        check_orthonormal(columns)
        self.columns = columns
        self.ambient_dim = n
        self.k = k

    @classmethod
    def from_spanning(cls, vectors):
        """Orthonormalize a spanning set (columns); drops dependent columns
        (_svd_rank's rule)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        u, rank = _svd_rank(vectors)
        return cls(u[:, :rank])

    @classmethod
    def standard(cls, n, indices):
        """Frame spanned by the listed standard basis vectors of R^n."""
        cols = np.zeros((n, len(indices)))
        for j, i in enumerate(indices):
            cols[i, j] = 1.0
        return cls(cols)

    def span_equals(self, other, tol=DEFAULT_TOL):
        if self.ambient_dim != other.ambient_dim or self.k != other.k:
            return False
        if self.k == 0:
            return True
        return dist_grassmann(self, other) < tol

    def to_json(self):
        return matrix_to_json(self.columns)

    @classmethod
    def from_json(cls, d):
        return cls(matrix_from_json(d))

    def __repr__(self):
        return f"Frame(ambient_dim={self.ambient_dim}, k={self.k})"


def check_orthonormal(columns):
    """Frame's check on stacked columns (..., n, k): raise unless every
    slice is orthonormal within ORTHONORMALITY_TOL (spectral norm of its
    gram defect), reporting the first slice that is not."""
    k = columns.shape[-1]
    if not k:
        return
    # non-finite or huge columns make non-finite defects, which fail
    with np.errstate(invalid="ignore", over="ignore"):
        bad = _first_defect(np.swapaxes(columns, -1, -2) @ columns - np.eye(k),
                            ORTHONORMALITY_TOL)
    if bad:
        raise ValueError(f"columns are not orthonormal ({bad}); "
                         "use Frame.from_spanning to orthonormalize")


def _first_defect(defects, bound):
    """Where the first slice of a stack of defects (..., k, k) has a
    non-finite entry or a spectral norm above bound, as "defect X" or
    "slice I is not finite"; None if no slice does.  The Frobenius norm
    of the whole stack bounds every slice's spectral norm, and no SVD
    runs unless it exceeds the bound, and none on a slice with a
    non-finite entry (its spectral norm may come back NaN, which passes
    any bound, or not at all)."""
    if np.linalg.norm(defects) <= bound:
        return None
    defects = defects.reshape((-1,) + defects.shape[-2:])
    finite = np.isfinite(defects).all(axis=(1, 2))
    first = int(np.argmin(finite)) if not finite.all() else len(defects)
    norms = np.linalg.norm(defects[:first], 2, axis=(-2, -1))
    over = np.flatnonzero(norms > bound)
    if over.size:
        return f"defect {norms[over[0]]:.2e}"
    return f"slice {first} is not finite" if first < len(defects) else None


def _svd_rank(vectors):
    """The SVD behind every spanning frame: the left singular vectors
    (..., n, k) of a stack and the rank of each slice, its count of
    singular values above DEFAULT_TOL times its largest (0 when k = 0)."""
    if vectors.shape[-1] == 0:
        return vectors, np.zeros(vectors.shape[:-2], dtype=int)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u, (s > DEFAULT_TOL * s[..., :1]).sum(-1)


def null_space(a, tol=DEFAULT_TOL):
    """Orthonormal columns spanning the null space of a (m, n): the right
    singular vectors past its rank, the count of singular values above
    tol times the largest (_svd_rank's rule; all of R^n when m = 0)."""
    _, s, vt = np.linalg.svd(a)
    return vt[(s > tol * s[:1]).sum():].T


def orthonormalize(vectors):
    """``Frame.from_spanning`` over a stack (..., n, k), k >= 0: the
    SVD's left columns (..., n, k), checked like a Frame's, and the rank
    of each slice.  The first rank columns of a slice are bit for bit
    the columns from_spanning keeps for it (one shared ``_svd_rank``)."""
    u, ranks = _svd_rank(vectors)
    check_orthonormal(u)
    return u, ranks


def check_isotropic(columns, form):
    """Raise unless the span of each frame of the orthonormal columns
    (..., n, k) is isotropic for the form, measured with its real gram:
    the restricted gram's spectral norm must not exceed DEFAULT_TOL times
    isotropy_scale.  The error reports the first slice that fails."""
    with np.errstate(invalid="ignore", over="ignore"):
        bad = _first_defect(np.swapaxes(columns, -1, -2) @ form.real_gram @ columns,
                            DEFAULT_TOL * form.isotropy_scale)
    if bad:
        raise ValueError(f"frame span is not isotropic for the form ({bad})")


# ---------------------------------------------------------------------------
# restrictions and kernels


def restrict(form, columns):
    """The form restricted to stacked frames (..., n, k): the
    symmetrized (..., k, k) grams, each slice bit for bit the one-frame
    value."""
    gram = form.real_gram
    if columns.shape[-2] != gram.shape[0]:
        raise ValueError("frame ambient dimension does not match the form")
    restricted = np.swapaxes(columns, -1, -2) @ gram @ columns
    return 0.5 * (restricted + np.swapaxes(restricted, -1, -2))


def restrict_kernel(form, w, tol=DEFAULT_TOL):
    """Restrict a form to a frame's span: (k x k gram, kernel frame).

    The kernel spans the null space of the restricted form, decided by
    singular values relative to tol (scaled by ``form.isotropy_scale``).
    """
    restricted = restrict(form, w.columns)
    if w.k == 0:
        return restricted, Frame(np.zeros((w.ambient_dim, 0)))
    vals, vecs = np.linalg.eigh(restricted)
    null_cols = vecs[:, kernel_mask(vals, form, tol)]
    kernel = Frame(w.columns @ null_cols) if null_cols.shape[1] else \
        Frame(np.zeros((w.ambient_dim, 0)))
    return restricted, kernel


def kernel_mask(vals, form, tol=DEFAULT_TOL):
    """restrict_kernel's rule on the ``eigh`` eigenvalues (..., k) of
    restricted grams: which of them span the kernel, those within tol
    times ``form.isotropy_scale`` of 0."""
    return np.abs(vals) <= tol * form.isotropy_scale


# ---------------------------------------------------------------------------
# principal angles and distances


def principal_sines(a, b):
    """Sines of the principal angles between frames (ascending).

    ``a`` and ``b`` are Frames or stacked orthonormal columns of shape
    (..., n, k) that broadcast against each other; returns shape
    (..., min(k_a, k_b)).  Each slice is computed from the residual
    (I - P_big) Q_small, which stays accurate for small angles.
    """
    a = getattr(a, "columns", a)
    b = getattr(b, "columns", b)
    small, big = (a, b) if a.shape[-1] <= b.shape[-1] else (b, a)
    resid = small - big @ (np.swapaxes(big, -1, -2) @ small)
    s = np.linalg.svd(resid, compute_uv=False)
    return np.sort(np.clip(s, 0.0, 1.0), axis=-1)


def frame_products(x, frames):
    """F^T x against every frame F of a stack (N, n, j), for x of shape
    (..., n, k): shape (N, j) + x.shape[:-2] + (k,), tensordot's
    products from one np.dot of the same reshaped operands."""
    n, k = x.shape[-2:]
    # np.moveaxis(x, -2, 0), without its per-call cost
    lead = x.transpose((x.ndim - 2, *range(x.ndim - 2), x.ndim - 1))
    prod = np.dot(frames.transpose(0, 2, 1).reshape(-1, n), lead.reshape(n, -1))
    return prod.reshape((len(frames), frames.shape[-1]) + x.shape[:-2] + (k,))


def cosines(x, frames):
    """The cosine table c = |F^T x|_F^2 against every frame F of a stack
    (N, n, j): shape (N,) for one frame x (n, k), (N, R) for a stack
    (R, n, k).  c is the sum of the squared cosines of the principal
    angles."""
    return np.sum(frame_products(x, frames) ** 2, axis=(1, -1))


# products |F^T x| per block of a cosine table.  The tables of the
# all-pairs pass and of domain's stacked incidence decisions, and
# keep_first's window pairs, go in table_blocks, so this bounds them
# however many frames they hold
_TABLE = 2 ** 14


def table_blocks(count, width):
    """Slices of range(count) in blocks of about _TABLE products, for
    items that take ``width`` products each (at least one per block)."""
    step = max(1, _TABLE // max(1, width))
    return (slice(first, first + step) for first in range(0, count, step))


def cosine_band(n, k):
    """Rounding band of c = |F^T x|_F^2 for frames in R^n with k
    principal angles, wide enough to cover that of principal_sines' d^2
    too."""
    return 64 * (n + k) * k * _EPS


def cosine_cuts(n, k, bound, smallest=False):
    """The cuts (hi, lo) that settle a cosine table c = |A^T B|_F^2 of
    frames in R^n with k principal angles against bound: above hi the
    sine of the largest principal angle (of the smallest, with
    smallest=True) certainly lies below bound, below lo it certainly
    does not (see first_below)."""
    # a signed square: no sine lies below a negative bound
    band, square = cosine_band(n, k), bound * abs(bound)
    if smallest:
        return k * (1.0 - square + band), 1.0 - square - band
    return k - square + band, k * (1.0 - square - band)


def settle(c, n, k, bound, smallest=False):
    """The one cut rule: masks (below, unsure) of a cosine table c against
    bound, by cosine_cuts.  An entry below lo is settled at or above
    bound, even where hi < lo (bounds <= 0); one above hi is settled
    below it; the rest, NaN and inf among them, are unsure."""
    hi, lo = cosine_cuts(n, k, bound, smallest)
    unsure = ~(c < lo)
    below = c > hi
    below &= c < np.inf
    below &= unsure
    unsure &= ~below
    return below, unsure


def first_below(c, n, k, bound, exact, smallest=False, first=True):
    """For each column of a cosine table, the first row whose sine of
    the largest principal angle (of the smallest, with smallest=True)
    lies below bound, or -1: an int for a table c (N,), an int array
    (P,) for a table (N, P).

    Each entry holds c = |A^T B|_F^2 for a pair of frames in R^n with k
    principal angles.  It bounds the squared sines by
    1 - c <= sin^2 theta_min <= 1 - c/k <= sin^2 theta_max <= k - c, so
    settle decides every entry except those whose bounds straddle
    bound^2 within cosine_band and those that are not finite.  One call
    exact(index) decides these with the exact kernel, as a boolean array
    over index, the tuple of their row (and column) arrays in row-major
    order.  The answers are the exact kernel's as long as exact gives
    each entry the value a call on the whole table would, as
    principal_sines and push_forward do slice by slice.  With
    first=False any row below bound will do: a column with an entry
    settled below it sends nothing to exact."""
    if not len(c):
        return -1 if c.ndim == 1 else np.full(c.shape[1:], -1)
    below, unsure = settle(c, n, k, bound, smallest)
    if not first:
        unsure &= ~below.any(0)
    if unsure.any():
        index = unsure.nonzero()
        below[index] = exact(index)
    rows = below.argmax(0, keepdims=True)
    rows[~below.any(0, keepdims=True)] = -1
    return rows[0]


def pair_cosines(a, b):
    """c = |A^T B|_F^2 of each pair of frames of two stacks (P, n, k) and
    (P, n, j): shape (P,)."""
    return np.sum(np.einsum("pni,pnj->pij", a, b) ** 2, axis=(1, 2))


def pairs_below(a, b, bound):
    """For each pair of frames of two stacks (P, n, k), whether the sine
    of their largest principal angle lies below bound, as first_below
    decides a table entry: settle cuts c = pair_cosines(a, b), and
    principal_sines(a, b) decides the pairs it leaves unsure."""
    below, ask = settle(pair_cosines(a, b), *a.shape[-2:], bound)
    if ask.any():
        below[ask] = principal_sines(a[ask], b[ask])[:, -1] < bound
    return below


# ---------------------------------------------------------------------------
# sorted-key windows and the keep-first rule; frames keyed by F -> F F^T


def projection_coordinate(frames, entry):
    """p(F) = s (F F^T)_ab of each frame of a stack (..., n, k), entry
    (a, b) with a <= b, s = 1 on the diagonal and sqrt(2) off it.

    p is one coordinate of the isometric embedding of frames by their
    projections (upper triangle, off-diagonal entries times sqrt(2)), so
    |p(F) - p(G)| <= |F F^T - G G^T|_F = sqrt(2 (k - c)) <= sqrt(2 k) d
    for frames with k columns, c = |F^T G|_F^2 and d the sine of their
    largest principal angle."""
    a, b = entry
    p = np.einsum("...k,...k->...", frames[..., a, :], frames[..., b, :])
    return p if a == b else np.sqrt(2.0) * p


def projection_entry(frames, reach):
    """The entry (a, b), a <= b, whose projection_coordinate leaves the
    fewest pairs of a stack of frames (N, n, k) within reach of each
    other: the coordinate whose windows hold the fewest frames.  An
    entry is flat near frames where it is extremal, so frames gathered
    there share its windows."""
    def pairs(entry):
        x = np.sort(projection_coordinate(frames, entry))
        return int(np.sum(np.searchsorted(x, x + reach, side="right")))

    return min(((int(a), int(b)) for a, b in zip(*np.triu_indices(frames.shape[-2]))),
               key=pairs)


def window_reach(n, k, bound):
    """Half-width of the window of projection coordinates that holds every
    pair of frames in R^n with k columns whose cosine c is not settled
    above bound by cosine_cuts' lo: c >= lo within cosine_band of the
    exact c gives |F F^T - G G^T|_F^2 = 2 (k - c) <= 2 (k - lo + band),
    which is 2 k bound^2 plus a rounding term, and a second band covers
    the rounding of the coordinates and of the frames' orthonormality."""
    band = cosine_band(n, k)
    return float(np.sqrt(max(2.0 * (k - cosine_cuts(n, k, bound)[1] + 2.0 * band), 0.0)))


def window_pairs(x, keys, reach, width):
    """The pairs (r, j) of points x (R,) and sorted keys (N,) that lie
    within reach of each other, |x[r] - keys[j]| <= reach, for one reach
    or a reach per point (R,), as index arrays (r, j) in chunks of about
    _TABLE products (table_blocks, each pair ``width`` products): a
    window that holds every key costs more chunks, never a larger one.
    Within a chunk r ascends, and j ascends for each r."""
    first = np.searchsorted(keys, x - reach)
    ends = np.cumsum(np.searchsorted(keys, x + reach, side="right") - first)
    total = int(ends[-1]) if len(ends) else 0
    # pair t of query r is key t - shift[r]
    shift = np.concatenate([[0], ends[:-1]]) - first
    for part in table_blocks(total, width):
        t = np.arange(part.start, min(part.stop, total))
        r = np.searchsorted(ends, t, side="right")
        yield r, t - np.take(shift, r)


class KeyIndex:
    """The keys of the items kept so far in ascending order (``keys``),
    with each key's row in the order kept (``rows``): the index that
    keep_first searches and grows."""

    def __init__(self):
        self.keys = np.empty(0)
        self.rows = np.empty(0, dtype=np.intp)

    def __len__(self):
        return len(self.keys)

    def merged(self, x):
        """``keys`` and ``rows`` with the keys x (B,) of the next B rows
        merged in."""
        start = len(self)
        keys = np.concatenate([self.keys, x])
        rows = np.concatenate([self.rows, np.arange(start, start + len(x))])
        # a sorted run and the block: a stable sort merges them
        order = np.argsort(keys, kind="stable")
        return keys[order], rows[order]

    def add(self, x):
        """Index the keys x (B,) as the next B rows."""
        self.keys, self.rows = self.merged(x)


def keep_first(x, index, reach, close, width):
    """The keep-first rule on a block of items with keys x (B,), in order
    after the rows of a KeyIndex: the mask (B,) of the items close to no
    indexed item and to no earlier item that the mask keeps, the verdicts
    of a one-at-a-time sweep.  The kept items' keys join the index.

    close(r, j) decides pairs of block items r and earlier rows j as a
    boolean array; rows go on from the index, so row len(index) + i is
    item i.  It sees only the pairs within reach (one, or one per item)
    in one window_pairs search of the index and the block, ``width``
    products per pair, and a pair out of reach must not be close.  An
    item close to an indexed one is dropped; the close pairs within the
    block are then swept in order of their later item, which is dropped
    if the earlier one is kept."""
    start = len(index)
    keys, rows = index.merged(x)
    keep = np.ones(len(x), dtype=bool)
    inside = []
    for r, j in window_pairs(x, keys, reach, width):
        j = np.take(rows, j)
        earlier = j < start + r
        r, j = r[earlier], j[earlier]
        hit = close(r, j)
        keep[r[hit & (j < start)]] = False
        hit &= j >= start
        inside.extend(zip(r[hit].tolist(), (j[hit] - start).tolist()))
    # r ascends, chunk after chunk, so each earlier item's verdict is
    # final before a later item asks for it
    for r, i in inside:
        if keep[i]:
            keep[r] = False
    index.add(x[keep])
    return keep


def push_forward(mats, columns):
    """Orthonormal columns spanning mats @ columns, for stacked matrices
    (..., n, n) and frames (..., n, k): one stacked SVD that keeps all k
    columns (no rank decision, so a plane stretched far past the
    relative tolerance keeps its dimension).  The columns are not
    checked like a Frame's: they only feed principal-angle measurements
    inside the scan loops."""
    return _svd_rank(mats @ columns)[0]


def dist_projective(l1, l2):
    """|sin| of the angle between two lines (frames with one column)."""
    if l1.k != 1 or l2.k != 1:
        raise ValueError("dist_projective expects one-column frames")
    if not np.any(l1.columns) or not np.any(l2.columns):
        raise ValueError("zero column")
    return float(principal_sines(l1, l2)[0])


def dist_grassmann(w1, w2):
    """Hausdorff distance between projectivized spans of equal-dimensional
    subspaces under the projective sine metric = sine of the largest
    principal angle."""
    if w1.ambient_dim != w2.ambient_dim or w1.k != w2.k:
        raise ValueError("frames must have equal ambient dimension and k")
    if w1.k == 0:
        return 0.0
    return float(principal_sines(w1, w2)[-1])


def dist_to_incidence(w, l):
    """Distance from the line l to the projectivized span of w.

    Equals the Grassmannian distance from w to the incidence set of
    q-planes containing l (whose zero locus this function implicitly
    carries): the sine of the smallest principal angle between l and w.
    """
    if l.k != 1:
        raise ValueError("l must be a line (one column)")
    if w.ambient_dim != l.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return float(principal_sines(l, w)[0])


def intersects(a, b, tol=DEFAULT_TOL):
    """True iff the spans intersect nontrivially (smallest principal
    angle sine below tol)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.k == 0 or b.k == 0:
        return False
    return float(principal_sines(a, b)[0]) < tol


def contains(inner, outer, tol=DEFAULT_TOL):
    """True iff span(inner) is contained in span(outer) (every principal
    angle sine below tol)."""
    if inner.ambient_dim != outer.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if inner.k == 0:
        return True
    if inner.k > outer.k:
        return False
    return float(principal_sines(inner, outer)[-1]) < tol


def orthogonal_complement(form, w, tol=DEFAULT_TOL):
    """Frame of the b-orthogonal complement of span(w)."""
    return Frame(null_space((form.real_gram @ w.columns).T, tol))


def subspace_sum_rank(frames, tol=DEFAULT_TOL):
    """Rank of the sum of the given spans (singular-value decision)."""
    cols = np.hstack([f.columns for f in frames])
    if cols.shape[1] == 0:
        return 0
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


# ---------------------------------------------------------------------------
# JSON matrix encoding shared across the package


def matrix_to_json(m):
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": m.reshape(-1).tolist()}


def matrix_from_json(d):
    m = np.asarray(d["data"], dtype=float).reshape(d["rows"], d["cols"])
    return m


# rows of a Records table encoded and written at a time: on mixed-o21's
# radius-8 report (129,476 rows) this batch keeps the writer under the
# relation scan's peak RSS of 81 MiB, where 16,384 rows reached 89 MiB
# and 65,536 rows 122 MiB
_RECORD_BATCH = 4096

# encoder chunks joined per write: json's indenting encoder yields one
# chunk per token, 446,138 of them for mixed-o21's radius-8 ball report,
# while a Records batch is written as it comes
_WRITE_BATCH = 4096


class Records:
    """A table of scalar rows kept as columns: ``columns`` maps each str
    key to a list with one value per row, and ``len()`` is the row count.
    At a top-level key, dump_json writes it as the list of one dict per
    row that json would write, without building those dicts."""
    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def __eq__(self, other):
        return isinstance(other, Records) and self.columns == other.columns

    def __len__(self):
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, key):
        return self.columns[key]


# json's C encoder, with its own errors and no NaN, for a list of scalars
# one per line: an encoded scalar holds no raw newline, so splitting the
# text at "\n" gives the members
_COLUMN = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ": ", "\n", True, False, False)
_JSON = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)


def _cells(values):
    """The JSON text of each of ``values``, from one encoder call.  Only a
    container's text starts with a bracket, so one search of the whole
    text rejects containers."""
    text = "".join(_COLUMN(values, 0))
    if text.startswith(("[[", "[{")) or "\n[" in text or "\n{" in text:
        raise TypeError("Records values must be JSON scalars")
    cells = text.split("\n")
    cells[0] = cells[0][1:]
    cells[-1] = cells[-1][:-1]
    return cells


def _run_cells(values):
    """_cells of ``values``, with each run of one repeated object encoded
    once at its head and its text repeated down the run.  Runs are told
    by identity, never by ==: 0.0 and -0.0, or 1, 1.0 and True, are equal
    but encode differently.  A list with no repeated object goes to
    _cells whole."""
    new = [True, *map(is_not, islice(values, 1, None), values)]
    if all(new):
        return _cells(values)
    heads = list(compress(count(), new))
    return chain.from_iterable(map(repeat, _cells(list(compress(values, new))),
                                   map(sub, heads[1:] + [len(values)], heads)))


def _record_batches(records):
    """The text of ``records`` as the value of a top-level key, a batch of
    rows at a time: each column of a batch is one encoder call on its run
    heads (_run_cells), and each batch is one join of its cells interleaved
    with the key heads and row ends."""
    keys = sorted(records.columns)
    columns = [records.columns[k] for k in keys]
    rows = len(records)
    if any(len(c) != rows for c in columns):
        raise ValueError("Records columns differ in length")
    # per row, each key's head then its cell; a row's first head closes
    # the row before it
    names = [json.encoder.encode_basestring_ascii(k) + ": " for k in keys]
    heads = ["\n    },\n    {\n      " + names[0] if j == 0 else ",\n      " + name
             for j, name in enumerate(names)]
    stride = 2 * len(keys)
    sep = "[\n    "
    for start in range(0, rows, _RECORD_BATCH):
        size = min(rows - start, _RECORD_BATCH)
        parts = [None] * (stride * size)
        for j, (head, column) in enumerate(zip(heads, columns)):
            parts[2 * j::stride] = [head] * size
            parts[2 * j + 1::stride] = _run_cells(column[start:start + size])
        parts[0] = sep + "{\n      " + names[0]
        parts.append("\n    }")
        yield "".join(parts)
        sep = ",\n    "
    yield "\n  ]" if rows else "[]"


def _joined(chunks):
    """The chunks of json's encoder, joined _WRITE_BATCH at a time."""
    while batch := list(islice(chunks, _WRITE_BATCH)):
        yield "".join(batch)


def _top_level(obj):
    """The text of a dict that holds Records, walked at its top level over
    its str keys.  json indents the other values for depth 0, so two
    spaces go after each line break, which never falls inside a JSON
    string."""
    sep = "{\n  "
    for key in sorted(obj):
        yield sep + json.encoder.encode_basestring_ascii(key) + ": "
        if isinstance(obj[key], Records):
            yield from _record_batches(obj[key])
        else:
            for chunk in _joined(_JSON.iterencode(obj[key])):
                yield chunk.replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}"


def dump_json(obj, path):
    """Write ``obj`` with the bytes of ``json.dump(obj, fh, sort_keys=True,
    indent=2, allow_nan=False)`` and a final newline, where a Records at a
    top-level key stands for its list of row dicts.  A NaN or infinity
    raises ValueError, and a Records anywhere else json's TypeError; a
    report that fails is removed, not left partly written."""
    walk = isinstance(obj, dict) and any(isinstance(v, Records)
                                         for v in obj.values())
    with open(path, "w") as fh:
        try:
            fh.writelines(_top_level(obj) if walk else _joined(_JSON.iterencode(obj)))
            fh.write("\n")
        except BaseException:
            fh.close()
            os.remove(path)
            raise
