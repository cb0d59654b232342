"""Limit sets on flag varieties, sampled from word-length balls.

Samples are flags of ball elements whose relevant root gaps clear a
floor, merged at a flag-distance tolerance (keeping the shortlex-first
representative); they stand for the image of the boundary map.
Everything reports finite-radius evidence: covering radii and
transversality margins; no asymptotic verdict is ever produced.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# kak stays bound here for perfbench's tracer, which wraps every binding
# of it
from .cartan import _theta_to_plane_dim, flag_of, kak, root_gaps, theta_gaps  # noqa: F401
from .forms import (
    Frame,
    KeyIndex,
    cosine_band,
    cosines,
    frame_products,
    keep_first,
    orthogonal_complement,
    pair_cosines,
    pairs_below,
    principal_sines,
    projection_coordinate,
    projection_entry,
    settle,
    table_blocks,
    window_pairs,
    window_reach,
)

MERGE_TOL = 1e-6
PAIR_FLOOR = 1e-3
# the largest sampler block.  A stacked GroupBall.kak costs about 0.35 ms
# per call plus 10 us per row on 2 Xeon vCPUs (mixed-o21's radius-7 ball:
# 0.35 ms for 1 row, 1.6 ms for 128, 5.1 ms for 512, 20 ms for 2,048), so
# fewer, larger blocks save calls: that ball's limitset makes 13 calls for
# 2,038 rows, against 39 with blocks of up to 128.  _merge's window pairs
# grow with the close pairs, not with the block, so the cap bounds the
# block's decomposition instead: without it, mixed-o21's radius-10
# sampler (--cap 100000) decomposes 46,328 rows instead of 46,051 (a flag
# kept within a block screens only later blocks) and its traced peak
# rises from 31 to 47 MiB, in about the same time.
_PREFETCH = 1024


class EmptyLimitSampleError(ValueError):
    """No ball element cleared the gap floor; the ball is too small."""


class LimitSample:
    """The sampled flags as one table, row j for the ball element
    ``words[j]`` (shortlex order): its word length ``lengths[j]``, its
    smallest theta-gap ``gaps[j]`` and the orthonormal columns
    ``columns[j]`` of its flag, bit for bit those of flag_of on its kak's
    compact factor (so those of the Frame that xi_theta returns for it);
    ``columns`` is (N, n, k).  The sample is a plain table: it keeps no
    result computed from it."""

    def __init__(self, words, lengths, gaps, columns, theta, form=None):
        self.words, self.lengths, self.gaps, self.columns = words, lengths, gaps, columns
        self.theta, self.form = theta, form

    def distances_from(self, frame):
        """Flag distance (largest principal-angle sine) from a frame to
        every sample point, in sample order."""
        return principal_sines(frame, self.columns)[:, -1]

    def covering_radius(self):
        """Max nearest-neighbor flag distance among the sample points,
        from one screened pass over the cosine table (_pair_pass).

        Each nearest distance is a value of principal_sines, which runs
        only on the pairs whose cosine bounds reach below the row's
        smallest upper bound."""
        if len(self) < 2:
            return float("inf")
        return float(np.max(_pair_pass(self)[0]))

    def __len__(self):
        return len(self.words)


def sample_limit_set(ball, theta, form=None, min_gap=1.0):
    """Flags of every ball element whose theta-gaps exceed min_gap,
    merged at flag distance MERGE_TOL (shortlex-first representative
    kept).  Raises EmptyLimitSampleError if nothing clears the floor.

    The candidates go in blocks of 1, 2, 4, ... up to _PREFETCH elements.
    A block first drops the elements whose batched flags are clearly
    within MERGE_TOL of a kept flag.  One GroupBall.kak call decomposes
    the others from the ball's kept front, with no second SVD.  Its mu
    gives their exact gaps (root_gaps of mu, the bits of GroupBall.gaps:
    every zero-margin candidate clears the floor, and its batched mu is
    kak's), and its k, through one flag_of call, the flags of those whose
    gap exceeds min_gap.  _merge decides these against the flags kept so
    far and each other by forms.keep_first, the ball's dedup rule, with
    the verdicts of a one-at-a-time merge in shortlex order.  A flag kept
    within a block screens only later blocks, which costs a
    decomposition, never a different result.  The
    merge and the screen decide only the pairs that a window of one
    projection coordinate finds (forms.window_pairs), so their work
    grows with the close pairs, not with the sample.  projection_entry
    picks the coordinate once, the one whose windows hold the fewest
    pairs of the candidates' batched flags: it changes how many pairs a
    window holds, never a verdict."""
    if min_gap <= 0:
        raise ValueError("min_gap must be positive")
    i = _theta_to_plane_dim(theta, form)
    batch = ball.cartan_batch(form)
    approx, slack = batch.gaps(theta.root_system)
    approx_gap = theta_gaps(approx, theta)
    gap_slack = np.max(theta_gaps(slack, theta, smallest=False), axis=1)
    # skip what the batch settles: a gap clearly at most min_gap, or a
    # flag clearly within MERGE_TOL of a kept flag (the batch bounds
    # flags where the gap exceeds 1, within their flag margin)
    candidates = np.flatnonzero(ball.lengths > 0)
    candidates = candidates[approx_gap[candidates] + gap_slack[candidates] > min_gap]
    bounded = (approx_gap - gap_slack > max(min_gap, 1.0)) & \
        (batch.flag_margin < MERGE_TOL / 2)
    frames = batch.frames(i)
    rows, gaps, kept = [], [], None     # kept: the rows' flags, a _Kept
    start, size = 0, 1
    while start < len(candidates):
        block = candidates[start:start + size]
        start, size = start + size, min(2 * size, _PREFETCH)
        if rows:
            near = bounded[block]
            near[near] = _surely_within(frames[block[near]], kept, MERGE_TOL,
                                        batch.flag_margin[block[near]])
            block = block[~near]
        if not block.size:
            continue
        k, mu, _ = ball.kak(block, form)
        exact = theta_gaps(root_gaps(mu, theta.root_system, batch.group_tag), theta)
        clear = exact > min_gap
        if not clear.any():
            continue
        block, exact = block[clear], exact[clear]
        cols = flag_of(k[clear], i, form)
        if kept is None:
            # the entry whose windows hold the fewest pairs of about
            # _PREFETCH candidates, every len // _PREFETCH-th
            probe = frames[candidates[::max(1, len(candidates) // _PREFETCH)]]
            entry = projection_entry(probe, window_reach(*cols.shape[1:], MERGE_TOL))
            kept = _Kept(entry, len(ball), cols.shape[1:])
        keep = _merge(cols, kept, MERGE_TOL)
        rows.extend(block[keep].tolist())
        gaps.extend(exact[keep].tolist())
    if not rows:
        raise EmptyLimitSampleError(
            f"no ball element has theta-gaps above {min_gap}; enlarge the ball")
    return LimitSample([ball.words[i] for i in rows], ball.lengths[rows],
                       np.array(gaps), kept.columns[:len(rows)].copy(), theta, form)


class _Kept(KeyIndex):
    """The flags a sample keeps: a forms.KeyIndex of their
    projection_coordinate at ``entry``, and their columns in row order
    (capacity rows, the first len() of them filled, the rest free for
    _merge's block)."""

    def __init__(self, entry, capacity, shape):
        super().__init__()
        self.entry = entry
        self.columns = np.empty((capacity,) + shape)


def _merge(cols, kept, tol):
    """forms.keep_first on the frames of a block cols (B, n, k) after the
    kept ones (a _Kept) at flag distance tol: the mask (B,) of the
    frames kept, whose columns join the kept rows.  Every pair within
    tol lies in the projection window (forms.window_reach), and
    pairs_below decides it, the verdict of the exact kernel."""
    start = len(kept)
    kept.columns[start:start + len(cols)] = cols
    keep = keep_first(
        projection_coordinate(cols, kept.entry), kept, window_reach(*cols.shape[1:], tol),
        lambda r, j: pairs_below(np.take(cols, r, axis=0), np.take(kept.columns, j, axis=0), tol),
        cols.shape[-1] ** 2)
    kept.columns[start:len(kept)] = cols[keep]
    return keep


def _surely_within(cols, kept, tol, margin):
    """For each frame of a stack (R, n, k) with margins (R,) >= 0: True
    only if every frame within its margin lies at flag distance below
    tol from a kept frame (a _Kept), as _merge would find: d(cols, F) <=
    sqrt(k - c), and the flag distance is a metric: the pairs that
    settle puts below that reach, on the pairs of _merge's window at tol,
    which holds every pair that the cut at a reach up to tol settles."""
    n, k = cols.shape[-2:]
    reach = tol - 2.0 * margin
    out = np.zeros(len(cols), dtype=bool)
    x = projection_coordinate(cols, kept.entry)
    for r, j in window_pairs(x, kept.keys, window_reach(n, k, tol), k * k):
        c = pair_cosines(np.take(cols, r, axis=0),
                         np.take(kept.columns, np.take(kept.rows, j), axis=0))
        out[r[settle(c, n, k, np.take(reach, r))[0]]] = True
    return (reach > 0) & out


# ---------------------------------------------------------------------------
# transversality


class TransversalityReport(NamedTuple):
    margin: float
    worst_pair: tuple
    pairs_tested: int
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


def transversality_report(sample, form):
    """Minimum transversality margin over the ordered sample pairs at
    flag distance above PAIR_FLOOR (nearly equal pairs are excluded:
    transversality is only required for distinct boundary points), the
    first such pair in row order that attains it, the number of such
    pairs and the sample's covering radius.

    One screened pass over the cosine table (_pair_pass) finds the far
    pairs exactly, each row's nearest distance, whose max is the covering
    radius, and the smallest margin: transversality_margin runs on the
    far pairs whose screened margin lies within _margin_reach of the
    smallest screened margin seen so far, so the margin printed is a
    value of that kernel, as is every nearest distance behind the
    covering radius (principal_sines)."""
    if len(sample) < 2:
        raise ValueError("need at least two sample points")
    nearest, tested, margin, worst = _pair_pass(sample, PAIR_FLOOR, form)
    if tested == 0:
        raise ValueError("no pair clears the distance floor")
    return TransversalityReport(margin, worst, tested, float(np.max(nearest)))


def _margin_reach(least, n, k):
    """How far above the smallest screened margin, least, the screened
    margin of a pair with the smallest exact one may lie, for flags
    (n, k).

    The closed form m = s / sqrt(1 + r), r = sqrt(1 - s^2) = 1 - m^2,
    takes s with a rounding error below delta = cosine_band(n, k), as
    transversality_margin has its own.  1 - s^2 cancels as s -> 1: an
    error delta in it moves r by at most 2 delta / (r + sqrt(delta)) and
    m by half that, so a screened margin m is within error(m) of the
    exact one, from about 3 delta at small margins to about sqrt(delta)
    at m = 1.  The pair's own screened margin is at most least plus
    twice the largest error, and error grows with m."""
    delta = cosine_band(n, k)

    def error(m):
        return delta * (2.0 + 1.0 / (1.0 - min(m, 1.0) ** 2 + np.sqrt(delta)))

    return error(least) + error(least + 2.0 * error(1.0))


def _pair_pass(sample, pair_floor=PAIR_FLOOR, form=None):
    """One blocked pass over the sample's all-pairs table: the exact
    nearest-neighbor distances (N,), the number of ordered pairs at
    distance above pair_floor and, given the form, the smallest
    transversality margin of these pairs with the words of the first
    pair in row order that attains it (inf and None without the form or
    without such a pair).

    transversality_margin runs on the far pairs whose screened margin
    lies within _margin_reach of the smallest screened margin seen so
    far.  That bound only falls as the pass goes on, so it admits every
    pair that the pass's final bound admits, and _margin_reach puts each
    pair outside the final bound strictly above the smallest exact
    margin: the pairs the early blocks add can neither win nor tie."""
    cols = sample.columns
    n, k = cols.shape[-2:]
    # orthonormal bases of G F_i, whose complements transversality_margin
    # takes for each flag F_i
    u = None if form is None else np.linalg.svd(form.real_gram @ cols, full_matrices=False)[0]
    index = np.arange(len(cols))
    nearest, tested = np.empty(len(cols)), 0
    least, margin, worst = np.inf, np.inf, None
    for block in table_blocks(len(cols), len(cols) * k ** 2):
        rows = index[block]
        nearest[rows], far, screened = _pair_rows(cols, rows, pair_floor, u)
        tested += int(np.count_nonzero(far))
        if u is None:
            continue
        least = min(least, float(np.min(screened)))
        # screened margins are inf off the far pairs, where even an
        # infinite bound must not reach
        within = far & (screened <= least + _margin_reach(least, n, k))
        for r in np.flatnonzero(within.any(axis=1)):
            near = np.flatnonzero(within[r])
            svs = transversality_margin(Frame(cols[rows[r]]), cols[near], form)
            j = int(np.argmin(svs))
            if svs[j] < margin:
                margin, worst = float(svs[j]), (sample.words[rows[r]], sample.words[near[j]])
    return nearest, tested, margin, worst


def _pair_rows(cols, rows, pair_floor, u=None):
    """Rows (R,) of the all-pairs table of the frames cols (N, n, k):
    each row's exact distance to its nearest other frame (R,), the mask
    of the pairs at distance above pair_floor (R, N) and, given the
    orthonormal bases u (N, n, k) of span(G F_i), the screened margins
    of these pairs (R, N), inf elsewhere (None without u).

    c = |F_i^T F_j|_F^2 bounds the squared flag distance by 1 - c/k <=
    d^2 <= k - c, so principal_sines runs only on the pairs whose bounds
    reach below the row's smallest upper bound (one of them is nearest)
    or that settle leaves unsure at pair_floor.  A screened
    margin is transversality_margin in closed form: with P the basis of
    the complement of span(G F_i) and s = sigma_min(u_i^T F_j),
    sigma_min[P | F_j]^2 = 1 - sigma_max(P^T F_j) = 1 - sqrt(1 - s^2)."""
    n, k = cols.shape[-2:]
    diagonal = np.arange(len(rows)), rows
    c = cosines(cols, cols[rows])
    lower, upper = 1.0 - c / k, k - c
    lower[diagonal] = upper[diagonal] = np.inf
    near = lower <= np.min(upper, axis=1, keepdims=True) + cosine_band(n, k)
    below, unsure = settle(c, n, k, pair_floor)
    far = ~(below | unsure)
    unsure[diagonal] = False
    pair_row, pair_col = np.nonzero(near | unsure)
    dist = principal_sines(cols[rows[pair_row]], cols[pair_col])[:, -1]
    nearest = np.full(len(rows), np.inf)
    pick = near[pair_row, pair_col]
    np.minimum.at(nearest, pair_row[pick], dist[pick])
    pick = unsure[pair_row, pair_col]
    far[pair_row[pick], pair_col[pick]] = dist[pick] > pair_floor
    far[diagonal] = False
    if u is None:
        return nearest, far, None
    prod = frame_products(cols, u[rows])
    if k == 1:      # a stacked SVD would make one LAPACK call per pair
        s = np.abs(prod[:, 0, :, 0])
    else:
        s = np.linalg.svd(prod.transpose(0, 2, 1, 3), compute_uv=False)[..., -1]
    s = np.clip(s, 0.0, 1.0)
    return nearest, far, np.where(far, s / np.sqrt(1.0 + np.sqrt(1.0 - s * s)), np.inf)


# ---------------------------------------------------------------------------
# export


def sample_to_csv(sample):
    """The sample as CSV: word, word length, gap and the flag's
    coordinates column by column, each row one template filled with
    ``.tolist()`` values (%.12g formats a float as format(x, ".12g"))."""
    count, n, k = sample.columns.shape
    coords = ",".join(f"f{i}_{j}" for j in range(k) for i in range(n))
    template = "%s,%s,%.12g" + ",%.12g" * (n * k) + "\n"
    flat = sample.columns.transpose(0, 2, 1).reshape(count, n * k).tolist()
    return f"word,word_length,gap,{coords}\n" + "".join(
        template % (word, r, gap, *values)
        for word, r, gap, values in zip(sample.words, sample.lengths.tolist(),
                                        sample.gaps.tolist(), flat))


def sample_to_svg(sample, chart=(0, 1)):
    """Flat SVG scatter of line flags, 600 pixels square with dots of
    radius 2.5, in the affine chart given by two coordinate indices of
    the sign-canonicalized unit vector (its first coordinate above 1e-9
    in size made positive)."""
    size = 600
    i, j = chart
    v = sample.columns[:, :, 0]
    lead = np.argmax(np.abs(v) > 1e-9, axis=1)
    v = np.where(v[np.arange(len(v)), lead][:, None] < 0, -v, v)
    x = (v[:, i] + 1.0) / 2.0 * size
    y = (1.0 - (v[:, j] + 1.0) / 2.0) * size
    circle = '<circle cx="%.3f" cy="%.3f" r="2.5" fill="black"/>'
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        *map(circle.__mod__, zip(x.tolist(), y.tolist())), "</svg>"]) + "\n"
