"""Word-length balls of finitely generated matrix groups.

Generators are named by single lowercase letters; inverses are the
matching uppercase letters, so words are plain strings like "abA".
Enumeration is breadth-first over reduced words in shortlex order
(alphabet order: each generator followed by its inverse, in input
order), with matrix-level deduplication so that group relations collapse
the ball.  Output is deterministic and independent of any parallel
evaluation order.
"""

from __future__ import annotations

import io
from functools import cached_property
from typing import NamedTuple

import numpy as np

# kak stays bound here for perfbench's tracer, which wraps every binding
# of it
from .cartan import cartan_mu_batch, kak, root_gaps  # noqa: F401
from .forms import KeyIndex, keep_first

DEDUP_TOL = 1e-8


class CapExceededError(RuntimeError):
    """Ball enumeration hit the element cap; carries the truncated ball."""

    def __init__(self, ball):
        super().__init__(
            f"element cap reached at radius {ball.radius}; "
            "partial ball attached")
        self.ball = ball


def word_inverse(word):
    return word[::-1].swapcase()


class GroupBall:
    """Deduplicated, word-length-graded group elements in shortlex
    order, stored as columns: the words, their lengths (N,) and the
    element matrices stacked as one (N, n, n) array.  The one result it
    keeps is cartan_mu_batch of the whole ball per form, with the Front
    (the stacked SVD) that the batch is read from: ``kak`` decomposes
    any elements from that front where their decomposition is used, so
    the ball runs one SVD per form."""

    def __init__(self, alphabet, letters, words, lengths, matrices, truncated=False):
        self.alphabet = alphabet      # each generator, then its inverse
        self.letters = letters        # their matrices, in alphabet order
        self.words, self.lengths, self.matrices = words, lengths, matrices
        self.truncated = truncated
        self._batches = {}

    @cached_property
    def elements(self):
        """(word, matrix, word_length) triples in shortlex order.  The
        matrices are row views of ``matrices``."""
        return list(zip(self.words, self.matrices, self.lengths.tolist()))

    @cached_property
    def _positions(self):
        return {w: i for i, w in enumerate(self.words)}

    def cartan_batch(self, form=None):
        """cartan_mu_batch of the whole ball in the group that ``form``
        picks, computed once per form."""
        if form not in self._batches:
            self._batches[form] = cartan_mu_batch(self.matrices, form)
        return self._batches[form]

    def kak(self, indices, form=None):
        """kak of the elements at ``indices`` (any order, repeats
        allowed) in the group that ``form`` picks, as arrays (k (m, n, n),
        mu (m, r), l (m, n, n)): each row is bit for bit kak of that
        element alone, assembled from the front that the batch keeps."""
        return self.cartan_batch(form).front.kak(indices)

    def gaps(self, indices, rs, form=None):
        """root_gaps (m, rank) of kak's mu for the elements at ``indices``,
        read off the batch where its margin is 0 (kak's bits there); one
        ``kak`` call on the ball's front takes the other elements."""
        indices = np.asarray(indices, dtype=int)
        batch = self.cartan_batch(form)
        mu = batch.mu[indices]
        inexact = np.flatnonzero(np.any(batch.margin[indices], axis=1))
        if inexact.size:
            mu[inexact] = self.kak(indices[inexact], form)[1]
        return root_gaps(mu, rs, batch.group_tag)

    @property
    def radius(self):
        return int(self.lengths[-1]) if len(self.lengths) else 0

    def matrix(self, word):
        """Matrix of a reduced word (evaluated even if deduplicated away)."""
        index = self._positions.get(word)
        return self.evaluate(word) if index is None else self.matrices[index]

    def evaluate(self, word):
        out = np.eye(self.letters.shape[-1])
        for ch in word:
            out = out @ self.letters[self.alphabet.index(ch)]
        return out

    def __len__(self):
        return len(self.words)


def _frobenius(mats):
    """Frobenius norms of stacked matrices (N, n, n); NaN or inf for
    non-finite entries.  Each sum of squares is the BLAS dot that
    np.linalg.norm takes, so a norm equals np.linalg.norm's bit for bit
    unless that sum overflows; then it is rescaled by the largest
    entry."""
    flat = mats.reshape(-1, mats.shape[-1] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((flat[:, None] @ flat[..., None])[:, 0, 0])
        over = np.isinf(norms)
        top = np.max(np.abs(flat[over]), axis=1, keepdims=True)
        norms[over] = top[:, 0] * np.linalg.norm(flat[over] / top, axis=1)
    return norms


# Candidates deduplicated at once: bounds the memory of a sphere's
# products and lets the cap stop enumeration inside a sphere.
_BLOCK = 8192


def enumerate_ball(generators, radius, cap=None):
    """All reduced products of the generators up to the radius, matrix
    deduplicated, in shortlex order.

    ``generators`` is a list of (name, matrix) pairs; names must be
    distinct lowercase letters.  A product is kept unless it lies within
    DEDUP_TOL (relative Frobenius distance) of a shortlex-earlier kept
    element.  Raises CapExceededError (with the truncated ball attached)
    if the total element count would exceed ``cap``, and ValueError if a
    product leaves the floating-point range.
    """
    alphabet, mats = [], []
    for name, m in generators:
        if not (len(name) == 1 and name.islower()):
            raise ValueError(f"generator name {name!r} must be one lowercase letter")
        if name in alphabet:
            raise ValueError(f"duplicate generator name {name!r}")
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"generator {name!r} is not a square matrix")
        if mats and m.shape != mats[0].shape:
            raise ValueError(f"generator {name!r} is {len(m)}x{len(m)} but "
                             f"generator {alphabet[0]!r} is {len(mats[0])}x{len(mats[0])}")
        try:
            minv = np.linalg.inv(m)
            invertible = np.allclose(m @ minv, np.eye(len(m)), atol=1e-8)
        except np.linalg.LinAlgError:
            invertible = False
        if not invertible:
            raise ValueError(f"generator {name!r} is not invertible")
        # so that the inverse of letter l is letter l ^ 1
        alphabet += [name, name.upper()]
        mats += [m, minv]
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    letters = np.stack(mats)
    n = letters.shape[-1]
    # keys project the matrices on a unit vector, |key(m) - key(m')| <=
    # |m - m'|_F, and the test implies |m - m'|_F <= DEDUP_TOL max(|m|_F,
    # 1) / (1 - DEDUP_TOL), which bounds the reach below.  The keys only
    # narrow the search, so no decision depends on the vector; its
    # entries are rationally independent, so that distinct integer
    # matrices get distinct keys
    unit = np.cos(np.arange(1.0, n * n + 1))
    unit /= np.linalg.norm(unit)
    store, index = np.eye(n)[None], KeyIndex()
    index.add(store.reshape(1, n * n) @ unit)
    words, lengths = [""], [0]
    front, last = np.arange(1), np.array([-1])    # last letters; -1: none
    step = max(1, _BLOCK // len(alphabet))
    for r in range(1, radius + 1):
        first, lasts = len(words), []
        for s in range(0, len(front), step):
            f, l = np.nonzero(np.arange(len(alphabet)) != last[s:s + step, None] ^ 1)
            f += front[s]
            with np.errstate(over="ignore", invalid="ignore"):
                cand = store[f] @ letters[l]
                cand_norms, cand_keys = _frobenius(cand), cand.reshape(-1, n * n) @ unit
            bad = np.flatnonzero(~np.isfinite(cand_norms))
            if bad.size:
                word = words[f[bad[0]]] + alphabet[l[bad[0]]]
                raise ValueError(f"ball element {word!r} overflows the "
                                 "floating-point range")
            # drop what matches an earlier element or an earlier kept
            # candidate
            pool = np.concatenate([store, cand])
            new = np.flatnonzero(keep_first(
                cand_keys, index, 1.01 * DEDUP_TOL * np.maximum(cand_norms, 1.0),
                lambda i, j: _frobenius(cand[i] - pool[j]) <= DEDUP_TOL * np.maximum(
                    np.maximum(cand_norms[i], _frobenius(pool[j])), 1.0),
                n * n))
            room = new.size if cap is None else max(cap - len(words), 0)
            truncated, new = new.size > room, new[:room]
            words += [words[a] + alphabet[b]
                      for a, b in zip(f[new].tolist(), l[new].tolist())]
            lengths += [r] * new.size
            store = np.concatenate([store, cand[new]])
            lasts.append(l[new])
            if truncated:
                raise CapExceededError(GroupBall(
                    alphabet, letters, words, np.array(lengths), store, True))
        if len(words) == first:
            break
        front, last = np.arange(first, len(words)), np.concatenate(lasts)
    return GroupBall(alphabet, letters, words, np.array(lengths), store)


# ---------------------------------------------------------------------------
# divergence profiles


class RadiusEntry(NamedTuple):
    radius: int
    min_gap: dict          # 1-based root index -> minimal gap on the sphere
    argmin_word: dict      # 1-based root index -> word achieving it


class DivergenceProfile(NamedTuple):
    per_radius: list

    def gaps_of(self, root):
        return np.array([e.min_gap[root] for e in self.per_radius])

    def radii(self):
        return np.array([e.radius for e in self.per_radius])

    def to_csv(self):
        out = io.StringIO()
        out.write("radius,root,min_gap,word\n")
        for entry in self.per_radius:
            for root in sorted(entry.min_gap):
                out.write(f"{entry.radius},{root},"
                          f"{entry.min_gap[root]:.12g},{entry.argmin_word[root]}\n")
        return out.getvalue()


def divergence_profile(ball, rs, form=None):
    """Per-radius minima of the root gaps of mu over each sphere, with
    the achieving words.  Growing minima are finite-radius evidence of
    divergence; no asymptotic verdict is implied."""
    if not len(ball):
        raise ValueError("empty ball")
    approx, slack = ball.cartan_batch(form).gaps(rs)
    spheres = []
    for r in range(ball.radius + 1):
        sphere = np.flatnonzero(ball.lengths == r)
        if sphere.size:
            spheres.append((r, sphere[_possible_minima(approx[sphere], slack[sphere])]))
    gaps = iter(ball.gaps(np.concatenate([s for _, s in spheres]), rs, form).tolist())
    entries = []
    for r, sphere in spheres:
        best, best_word = {}, {}
        for idx, row in zip(sphere, gaps):
            word = ball.words[idx]
            for root, val in enumerate(row, 1):
                if val < -1e-9:
                    raise ValueError(
                        f"gap {val} of {word!r} leaves the closed chamber")
                if root not in best or val < best[root] - 1e-15:
                    best[root] = val
                    best_word[root] = word
        entries.append(RadiusEntry(r, best, best_word))
    return DivergenceProfile(entries)


# Any gap, exact or batched, is below 2048 in absolute value, so this
# covers the 1e-15 tie rule of the scan plus the rounding of its
# subtraction.
_TIE_REACH = 1e-15 + 4 * np.spacing(2048.0)


def _possible_minima(approx, slack):
    """Sorted sphere positions whose exact gaps may be a sphere minimum
    or leave the chamber, given batched gaps within ``slack`` of them.

    Every exact gap left out exceeds the exact minimum T by more than
    (len + 1) * _TIE_REACH, so it lies above a gap-free slot of width
    _TIE_REACH inside that reach, and no element above the slot displaces
    one below it in the scan.  So the scan over the positions returned
    picks the same words and values as the scan over the whole sphere.
    """
    lo = approx - slack
    reach = np.min(approx + slack, axis=0) + (len(approx) + 1) * _TIE_REACH
    return np.flatnonzero(np.any((lo <= reach) | (lo < -1e-9), axis=1))


def fit_divergence_slope(profile, root, skip=1):
    """Least-squares slope of min_gap vs radius (radii >= skip), plus a
    crude linear-vs-logarithmic shape call.

    Returns (slope, shape) with shape in {"linear", "sublinear"}: the
    log model a*log(r)+b is preferred when it fits the tail with less
    residual than the affine model.
    """
    radii = profile.radii()
    keep = radii >= skip
    r = radii[keep].astype(float)
    y = profile.gaps_of(root)[keep]
    if len(r) < 3:
        raise ValueError("need at least three radii to fit")
    slope = np.polyfit(r, y, 1)[0]
    lin_resid = np.linalg.norm(np.polyval(np.polyfit(r, y, 1), r) - y)
    logfit = np.polyfit(np.log(r), y, 1)
    log_resid = np.linalg.norm(np.polyval(logfit, np.log(r)) - y)
    shape = "linear" if lin_resid <= log_resid else "sublinear"
    return float(slope), shape


# ---------------------------------------------------------------------------
# proximal elements


def cyclic_reduction(word):
    """(prefix, core) with word = prefix core prefix^{-1} and core
    cyclically reduced."""
    prefix = ""
    while len(word) >= 2 and word[0] == word_inverse(word[-1]):
        prefix += word[0]
        word = word[1:-1]
    return prefix, word


def proximal_elements(ball, gap_threshold, i=1):
    """Ball elements with a dominant real eigenvalue cluster of size i.

    Returns (word, attracting frame, top gap) triples where the top gap
    is log |lambda_i| - log |lambda_{i+1}| and, for i = 1, the top
    eigenvalue is required to be real (imaginary part at most 1e-9 of
    its modulus) and simple.  The attracting frame is the top eigenline
    (or the top invariant i-space via a sorted real Schur form).

    Eigen-data is computed on the cyclically reduced core of the word
    and conjugated back: eigenproblems of strongly distorted conjugates
    are arbitrarily ill-conditioned, while the core stays well behaved.
    """
    import scipy.linalg

    from .forms import Frame

    out = []
    for word, _, r in ball.elements:
        if r == 0:
            continue
        prefix, core = cyclic_reduction(word)
        mat = ball.matrix(core)
        conj = ball.matrix(prefix) if prefix else None
        vals = np.linalg.eigvals(mat)
        order = np.argsort(-np.abs(vals))
        vals = vals[order]
        if len(vals) <= i:
            continue
        top, nxt = np.abs(vals[i - 1]), np.abs(vals[i])
        if nxt <= 0 or np.log(top / nxt) < gap_threshold:
            continue
        if i == 1:
            if abs(np.imag(vals[0])) > 1e-9 * abs(vals[0]):
                continue
            w, v = np.linalg.eig(mat)
            idx = int(np.argmax(np.abs(w)))
            vec = np.real(v[:, idx])
            if np.linalg.norm(vec) < 1e-12:
                continue
            cols = vec[:, None]
        else:
            cut = np.sqrt(top * nxt)
            _, z, sdim = scipy.linalg.schur(
                mat, output="real", sort=lambda re, im: np.hypot(re, im) > cut)
            if sdim != i:
                continue
            cols = z[:, :i]
        if conj is not None:
            cols = conj @ cols
        out.append((word, Frame.from_spanning(cols),
                    float(np.log(top / nxt))))
    return out
