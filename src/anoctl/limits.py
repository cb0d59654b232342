"""Limit sets on flag varieties, sampled from word-length balls.

Samples are flags of ball elements whose relevant root gaps clear a
floor, merged at a flag-distance tolerance (keeping the shortlex-first
representative).  Boundary maps of free groups are evaluated on
reduced-word cylinders.  Everything reports finite-radius evidence:
divergence slopes, transversality margins, dynamics-preservation
residuals; no asymptotic verdict is ever produced.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cartan import (  # noqa: F401  (kak re-exported)
    _theta_to_plane_dim, kak, mu_gaps, xi_theta)
from .forms import Frame, orthogonal_complement, principal_sines, push_forward

MERGE_TOL = 1e-6
PAIR_FLOOR = 1e-3
# elements per stacked kak call of the sampler: the temporaries of larger
# stacks grow the heap, and so the peak resident memory, by about 1 MiB
# on O(3,2) balls, for a gain of under 15 us per element
_PREFETCH = 128


class EmptyLimitSampleError(ValueError):
    """No ball element cleared the gap floor; the ball is too small."""


@dataclass(frozen=True)
class LimitPoint:
    flag: object                # FlagPoint or Frame
    source_word: str
    word_length: int
    gap_at_source: float

    @property
    def frame(self):
        return self.flag if isinstance(self.flag, Frame) else self.flag.frame


@dataclass(frozen=True)
class LimitSample:
    points: list
    theta: object
    form: object = None
    merge_tol: float = MERGE_TOL

    @cached_property
    def columns(self):
        """The flag frames stacked as one (N, n, k) array."""
        return np.stack([p.frame.columns for p in self.points])

    def line_array(self):
        """Stacked unit row vectors; only for one-dimensional flags."""
        return self.columns[:, :, 0]

    def distances_from(self, frame):
        """Flag distance (largest principal-angle sine) from a frame to
        every sample point, in sample order."""
        return principal_sines(frame, self.columns)[:, -1]

    def covering_radius(self):
        """Max nearest-neighbor flag distance among the sample points."""
        if len(self) < 2:
            return float("inf")
        worst = 0.0
        for i in range(len(self)):
            dist = self.distances_from(self.columns[i])
            dist[i] = np.inf
            worst = max(worst, float(np.min(dist)))
        return worst

    def nearest_distance(self, frame):
        return float(np.min(self.distances_from(frame)))

    def __len__(self):
        return len(self.points)


def sample_limit_set(ball, theta, form=None, min_gap=1.0, merge_tol=MERGE_TOL,
                     group_tag=None):
    """Flags of every ball element whose theta-gaps exceed min_gap,
    merged at flag distance merge_tol (shortlex-first representative
    kept).  Raises EmptyLimitSampleError if nothing clears the floor.

    Elements are decomposed in stacked kak calls: on reaching one that
    is not decomposed yet, the loop also decomposes up to as many later
    elements as it has decomposed so far, the ones it is predicted to
    reach (see ``window``).  A wrong prediction costs a decomposition
    or a call, never a different result."""
    if group_tag is None:
        group_tag = "gl" if form is None else ("onC" if form.is_complex else "opq")
    if min_gap <= 0:
        raise ValueError("min_gap must be positive")
    rs = theta.root_system
    batch = ball.cartan_batch(group_tag, form) if ball.radius else None
    candidates = np.flatnonzero(ball.lengths > 0)
    if batch is not None:
        approx, slack = batch.gaps(rs)
        members = [a - 1 for a in sorted(theta.members)]
        approx_gap = np.min(approx[:, members], axis=1)
        gap_slack = np.max(slack[:, members], axis=1)
        # skip what the batch settles: a gap clearly at most min_gap, or
        # a flag clearly within merge_tol of a kept flag (the batch
        # bounds flags where the gap exceeds 1)
        candidates = candidates[approx_gap[candidates] + gap_slack[candidates] > min_gap]
        bounded = approx_gap - gap_slack > max(min_gap, 1.0)
        frames = batch.u[:, :, :_theta_to_plane_dim(theta, group_tag, form)]
    points, kept = [], None     # kept: the points' frames, preallocated
    decomposed = 0

    def unsettled(rest, flags):
        """rest without the elements whose batched flags are clearly
        within merge_tol of one of ``flags``."""
        near = bounded[rest]
        near[near] = _surely_within(frames[rest[near]], flags, merge_tol,
                                    batch.flag_margin[rest[near]])
        return rest[~near]

    def window(idx):
        """idx and up to max(1, decomposed) later candidates not yet
        decomposed (_PREFETCH in all), passing over those whose batched
        flags are settled by the kept flags or by the batched flags of
        the window."""
        out, size = [idx], 1 + min(max(1, decomposed), _PREFETCH - 1)
        later = candidates[np.searchsorted(candidates, idx, "right"):]
        # blocks whose cosine table against the kept flags has about
        # 4,096 entries: with fixed blocks of _PREFETCH, mixed-o21's
        # limitset_s rose 47 % and its peak RSS 2 MiB (the table grows
        # with the kept flags, and the last block of a window is checked
        # past the window's end); blocks of the window's size take
        # hundreds of calls to pass over a ball that keeps few flags
        block = max(16, 2 ** 12 // max(1, len(points) * frames.shape[-1] ** 2)) \
            if batch is not None else size
        for start in range(0, len(later), block):
            rest = later[start:start + block]
            rest = rest[[not ball.decomposed(j, group_tag, form) for j in rest]]
            if batch is not None:
                if points:
                    rest = unsettled(rest, kept[:len(points)])
                rest = unsettled(rest, frames[out])
            while rest.size:
                # the first of the rest that the window does not settle
                out.append(rest[0])
                if len(out) == size:
                    return out
                rest = rest[1:]
                if batch is not None:
                    rest = unsettled(rest, frames[out[-1:]])
        return out

    for idx in candidates:
        if points and batch is not None and bounded[idx] and _surely_within(
                frames[idx], kept[:len(points)], merge_tol, batch.flag_margin[idx]):
            continue
        if ball.decomposed(idx, group_tag, form):
            dec = ball.decomposition(idx, group_tag, form)
        else:
            fetch = window(idx)
            dec = ball.decompose(fetch, group_tag, form)[0]
            decomposed += len(fetch)
        word, mat, r = ball.elements[idx]
        gaps = mu_gaps(dec.mu, rs)
        gap = min(gaps[a] for a in theta.members)
        if gap <= min_gap:
            continue
        flag = xi_theta(mat, theta, form, tol=min_gap, group_tag=group_tag,
                        decomposition=dec)
        cols = flag.columns if isinstance(flag, Frame) else flag.frame.columns
        if kept is None:
            kept = np.empty((len(ball.elements),) + cols.shape)
        if _within(cols, kept[:len(points)], merge_tol):
            continue
        kept[len(points)] = cols
        points.append(LimitPoint(flag, word, r, gap))
    if not points:
        raise EmptyLimitSampleError(
            f"no ball element has theta-gaps above {min_gap}; enlarge the ball")
    return LimitSample(points, theta, form, merge_tol)


def _cosines(cols, kept):
    """c = |F^T x|_F^2 against every kept frame F: shape (len(kept),)
    for one frame x (n, k), (len(kept), R) for a stack (R, n, k)."""
    return np.sum(np.tensordot(kept, cols, axes=(1, -2)) ** 2, axis=(1, -1))


def _within(cols, kept, tol):
    """True iff some kept frame lies at flag distance below tol from cols.

    c = |F^T x|_F^2 bounds the squared flag distance d^2 of equal-k
    frames by 1 - c/k <= d^2 <= k - c, so one product of cosines decides
    every kept frame except those whose bounds straddle tol^2 (widened
    by rounding); only these go through principal_sines.
    """
    k, band = cols.shape[-1], 1e-14
    c = _cosines(cols, kept)
    if np.any(c > k - tol ** 2 + band):
        return True
    unsure = np.flatnonzero(c >= k * (1.0 - tol ** 2 - band))
    return unsure.size > 0 and \
        bool(np.any(principal_sines(cols, kept[unsure])[:, -1] < tol))


def _surely_within(cols, kept, tol, margin):
    """True only if every frame within ``margin`` of cols lies at flag
    distance below tol from a kept frame, which _within then confirms:
    d(cols, F) <= sqrt(k - c), and the flag distance is a metric.  A
    stack of frames (R, n, k) with margins (R,) gets one answer each."""
    k, n = cols.shape[-1], cols.shape[-2]
    reach = tol - 2.0 * margin
    band = 64 * (n + k) * k * np.finfo(float).eps   # rounding of c
    return (reach > 0) & np.any(_cosines(cols, kept) > k - reach ** 2 + band, axis=0)


def boundary_map_free_group(ball, theta, form=None, depth=1, tail_length=10,
                            min_gap=1.0, group_tag=None):
    """Cylinder evaluation of the boundary map of a free group.

    For each reduced word w of the given length, evaluates the flag of
    rho(w v) with the tail v a long power of w's last letter (so that
    w v stays reduced and heads to the periodic endpoint of the
    cylinder); the map w -> flag approximates the boundary map on the
    cylinder of w and is equivariant by construction.
    """
    words = [w for w, _, _ in ball.sphere(depth)]
    if not words:
        raise ValueError(f"ball has no words of length {depth}")
    out = {}
    for w in words:
        mat = ball.matrix(w) @ np.linalg.matrix_power(
            ball.matrix(w[-1]), tail_length)
        out[w] = xi_theta(mat, theta, form, tol=min_gap, group_tag=group_tag)
    return out


# ---------------------------------------------------------------------------
# transversality


@dataclass(frozen=True)
class TransversalityReport:
    margin: float
    worst_pair: tuple
    pairs_tested: int
    pair_floor: float
    covering_radius: float


def transversality_margin(frame_a, frame_b, form):
    """Smallest singular value of [basis of span(a)-perp-b | basis of b]:
    positive iff the pair is transverse for the form.  ``frame_b`` may be
    stacked columns (..., n, k); the margins then come back stacked."""
    perp = orthogonal_complement(form, frame_a).columns
    cols = getattr(frame_b, "columns", frame_b)
    mat = np.concatenate(
        [np.broadcast_to(perp, cols.shape[:-1] + perp.shape[-1:]), cols], axis=-1)
    margin = np.linalg.svd(mat, compute_uv=False)[..., -1]
    return float(margin) if margin.ndim == 0 else margin


def transversality_report(sample, form, pair_floor=PAIR_FLOOR):
    """Minimum transversality margin over sampled pairs at flag distance
    above the floor (nearly equal pairs are excluded: transversality is
    only required for distinct boundary points)."""
    if len(sample) < 2:
        raise ValueError("need at least two sample points")
    margin, worst, tested = np.inf, None, 0
    for i, p in enumerate(sample.points):
        far = sample.distances_from(p.frame) > pair_floor
        far[i] = False
        if not np.any(far):
            continue
        tested += int(np.sum(far))
        svs = transversality_margin(p.frame, sample.columns[far], form)
        j = int(np.argmin(svs))
        if svs[j] < margin:
            other = sample.points[np.flatnonzero(far)[j]]
            margin, worst = float(svs[j]), (p.source_word, other.source_word)
    if tested == 0:
        raise ValueError("no pair clears the distance floor")
    return TransversalityReport(margin, worst, tested, pair_floor,
                                sample.covering_radius())


# ---------------------------------------------------------------------------
# dynamics preservation


@dataclass(frozen=True)
class DynamicsRecord:
    word: str
    distance_to_sample: float
    contraction_ratio: float | None


def dynamics_preserving_check(sample, proximals, ball, neighborhood=0.5):
    """For each proximal element: distance from its attracting flag to
    the sample, and the measured contraction of nearby sample points
    toward it (max ratio of after/before distances).  Matrices are
    resolved through the ball by word."""
    records = []
    for word, frame, _gap in proximals:
        dist = sample.nearest_distance(frame)
        before = principal_sines(sample.columns, frame)[:, -1]
        near = (1e-9 < before) & (before < neighborhood)
        moved = push_forward(ball.matrix(word), sample.columns[near])
        ratios = principal_sines(moved, frame)[:, -1] / before[near]
        ratio = float(np.max(ratios)) if ratios.size else None
        records.append(DynamicsRecord(word, dist, ratio))
    return records


# ---------------------------------------------------------------------------
# export


def sample_to_csv(sample):
    out = io.StringIO()
    n = sample.points[0].frame.ambient_dim if sample.points else 0
    k = sample.points[0].frame.k if sample.points else 0
    coords = ",".join(f"f{i}_{j}" for j in range(k) for i in range(n))
    out.write(f"word,word_length,gap,{coords}\n")
    for p in sample.points:
        flat = ",".join(f"{x:.12g}" for x in p.frame.columns.T.reshape(-1))
        out.write(f"{p.source_word},{p.word_length},{p.gap_at_source:.12g},{flat}\n")
    return out.getvalue()


def sample_to_svg(sample, chart=(0, 1), size=600, radius=2.5):
    """Flat SVG scatter of line flags in the affine chart given by two
    coordinate indices of the sign-canonicalized unit vector."""
    i, j = chart
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for p in sample.points:
        v = p.frame.columns[:, 0]
        idx = int(np.argmax(np.abs(v) > 1e-9))
        if v[idx] < 0:
            v = -v
        x = (v[i] + 1.0) / 2.0 * size
        y = (1.0 - (v[j] + 1.0) / 2.0) * size
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{radius}" '
                     'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
