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

import bisect
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cartan import cartan_mu_batch, kak, mu_gaps

DEDUP_TOL = 1e-8


class CapExceededError(RuntimeError):
    """Ball enumeration hit the element cap; carries the truncated ball."""

    def __init__(self, ball):
        super().__init__(
            f"element cap reached at radius {ball.elements[-1][2]}; "
            "partial ball attached")
        self.ball = ball


def word_inverse(word):
    return word[::-1].swapcase()


class _MatrixDedup:
    """Frobenius-norm-indexed store deciding matrix equality up to a
    relative tolerance."""

    def __init__(self, tol):
        self.tol = tol
        self.norms = []
        self.mats = []

    def probe(self, m):
        """True if a matrix equal to m (rel. Frobenius) is stored."""
        nrm = float(np.linalg.norm(m))
        scale = max(nrm, 1.0)
        lo = bisect.bisect_left(self.norms, nrm - self.tol * scale * 1.01)
        hi = bisect.bisect_right(self.norms, nrm + self.tol * scale * 1.01)
        for idx in range(lo, hi):
            other = self.mats[idx]
            bound = self.tol * max(nrm, np.linalg.norm(other), 1.0)
            if np.linalg.norm(m - other) <= bound:
                return True
        return False

    def add(self, m):
        nrm = float(np.linalg.norm(m))
        idx = bisect.bisect_left(self.norms, nrm)
        self.norms.insert(idx, nrm)
        self.mats.insert(idx, m)


@dataclass
class GroupBall:
    """Deduplicated, word-length-graded list of group elements."""
    generators: list                  # (name, matrix, inverse matrix)
    elements: list                    # (word, matrix, word_length), shortlex
    dedup_tol: float = DEDUP_TOL
    truncated: bool = False
    _index: dict = field(default_factory=dict, repr=False)
    # kak of single elements and cartan_mu_batch of the whole ball, per
    # (group tag, form), so that every consumer shares them
    _kak: dict = field(default_factory=dict, repr=False, compare=False)
    _batches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self._index:
            self._index = {w: m for w, m, _ in self.elements}

    @cached_property
    def matrices(self):
        """The element matrices stacked as one (N, n, n) array."""
        return np.stack([m for _, m, _ in self.elements])

    def decomposition(self, index, group_tag, form=None):
        """kak of the element at ``index``, computed once."""
        key = (index, group_tag, form)
        if key not in self._kak:
            self._kak[key] = kak(self.elements[index][1], group_tag, form)
        return self._kak[key]

    def cartan_batch(self, group_tag, form=None):
        """cartan_mu_batch of the whole ball, computed once; None for
        onC, which has no batched path (its callers decompose every
        element)."""
        key = (group_tag, form)
        if key not in self._batches:
            self._batches[key] = None if group_tag == "onC" else \
                cartan_mu_batch(self.matrices, group_tag, form)
        return self._batches[key]

    @property
    def radius(self):
        return self.elements[-1][2] if self.elements else 0

    @property
    def alphabet(self):
        letters = []
        for name, _, _ in self.generators:
            letters.extend([name, name.upper()])
        return letters

    def sphere(self, r):
        return [e for e in self.elements if e[2] == r]

    def matrix(self, word):
        """Matrix of a reduced word (evaluated even if deduplicated away)."""
        if word in self._index:
            return self._index[word]
        return self.evaluate(word)

    def evaluate(self, word):
        table = {}
        for name, m, minv in self.generators:
            table[name] = m
            table[name.upper()] = minv
        out = np.eye(self.generators[0][1].shape[0])
        for ch in word:
            out = out @ table[ch]
        return out

    def __len__(self):
        return len(self.elements)


def enumerate_ball(generators, radius, dedup_tol=DEDUP_TOL, cap=None):
    """All reduced products of the generators up to the radius, matrix
    deduplicated, in shortlex order.

    ``generators`` is a list of (name, matrix) or (name, matrix, inverse)
    tuples; names must be distinct lowercase letters.  Raises
    CapExceededError (with the truncated ball attached) if the total
    element count would exceed ``cap``.
    """
    gens = []
    seen_names = set()
    for item in generators:
        if len(item) == 2:
            name, m = item
            minv = np.linalg.inv(np.asarray(m, dtype=float))
        else:
            name, m, minv = item
        if not (len(name) == 1 and name.islower()):
            raise ValueError(f"generator name {name!r} must be one lowercase letter")
        if name in seen_names:
            raise ValueError(f"duplicate generator name {name!r}")
        seen_names.add(name)
        m = np.asarray(m, dtype=float)
        minv = np.asarray(minv, dtype=float)
        if not np.allclose(m @ minv, np.eye(m.shape[0]), atol=1e-8):
            raise ValueError(f"generator {name!r} is not invertible")
        gens.append((name, m, minv))
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    letter_matrix = {}
    for name, m, minv in gens:
        letter_matrix[name] = m
        letter_matrix[name.upper()] = minv
    alphabet = [l for name, _, _ in gens for l in (name, name.upper())]

    n = gens[0][1].shape[0]
    dedup = _MatrixDedup(dedup_tol)
    identity = np.eye(n)
    dedup.add(identity)
    elements = [("", identity, 0)]
    frontier = [("", identity)]
    ball = GroupBall(gens, elements, dedup_tol)

    for r in range(1, radius + 1):
        new_frontier = []
        for word, mat in frontier:
            last = word[-1] if word else None
            for letter in alphabet:
                if last is not None and letter == word_inverse(last):
                    continue
                cand = mat @ letter_matrix[letter]
                if dedup.probe(cand):
                    continue
                if cap is not None and len(elements) + 1 > cap:
                    ball.truncated = True
                    ball._index = {w: m for w, m, _ in elements}
                    raise CapExceededError(ball)
                dedup.add(cand)
                elements.append((word + letter, cand, r))
                new_frontier.append((word + letter, cand))
        if not new_frontier:
            break
        frontier = new_frontier
    ball._index = {w: m for w, m, _ in elements}
    return ball


# ---------------------------------------------------------------------------
# divergence profiles


@dataclass(frozen=True)
class RadiusEntry:
    radius: int
    min_gap: dict          # 1-based root index -> minimal gap on the sphere
    argmin_word: dict      # 1-based root index -> word achieving it


@dataclass(frozen=True)
class DivergenceProfile:
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


def divergence_profile(ball, rs, group_tag, form=None):
    """Per-radius minima of the root gaps of mu over each sphere, with
    the achieving words.  Growing minima are finite-radius evidence of
    divergence; no asymptotic verdict is implied."""
    if not ball.elements:
        raise ValueError("empty ball")
    batch = ball.cartan_batch(group_tag, form)
    if batch is not None:
        approx, slack = batch.gaps(rs)
    lengths = np.array([r for _, _, r in ball.elements])
    entries = []
    for r in range(ball.radius + 1):
        sphere = np.flatnonzero(lengths == r)
        if not sphere.size:
            continue
        if batch is not None:
            sphere = sphere[_possible_minima(approx[sphere], slack[sphere])]
        best, best_word = {}, {}
        for idx in sphere:
            word = ball.elements[idx][0]
            gaps = mu_gaps(ball.decomposition(idx, group_tag, form).mu, rs)
            for root, val in gaps.items():
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

    Every exact gap left out either exceeds the exact minimum T by more
    than (len + 1) * _TIE_REACH, or repeats a gap known exactly (slack 0)
    earlier in the sphere.  The first kind lies above a gap-free slot of
    width _TIE_REACH inside that reach, and no element above the slot
    displaces one below it in the scan; the second never passes the tie
    rule.  So the scan over the positions returned picks the same words
    and values as the scan over the whole sphere.
    """
    lo = approx - slack
    reach = np.min(approx + slack, axis=0) + (len(approx) + 1) * _TIE_REACH
    keep = (lo <= reach) | (lo < -1e-9)
    for root in range(approx.shape[1]):
        exact = np.flatnonzero(keep[:, root] & (slack[:, root] == 0))
        first = np.unique(approx[exact, root], return_index=True)[1]
        keep[np.delete(exact, first), root] = False
    return np.flatnonzero(np.any(keep, axis=1))


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


def proximal_elements(ball, gap_threshold, i=1, imag_tol=1e-9):
    """Ball elements with a dominant real eigenvalue cluster of size i.

    Returns (word, attracting frame, top gap) triples where the top gap
    is log |lambda_i| - log |lambda_{i+1}| and, for i = 1, the top
    eigenvalue is required to be real and simple.  The attracting frame
    is the top eigenline (or the top invariant i-space via a sorted real
    Schur form).

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
            if abs(np.imag(vals[0])) > imag_tol * abs(vals[0]):
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
