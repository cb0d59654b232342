"""The quadric compactification of the symmetric space of a real
orthogonal group, realized as nonpositive q-planes in the Grassmannian:
membership and stratification, bad sets against a sampled limit set,
dynamical properness and coverage evidence, expansion certificates, and
the subalgebra compactification points r_theta inside the Lie algebra
Grassmannian, with the Killing-form kernel dimension of each.

All verdicts here are desk-scale evidence against finite samples: the
bad-set test is one-sided (false negatives shrink as the limit sample
grows, and every report carries the sample's covering radius), and the
properness scan reports flags, never a boolean theorem.  Every
yes/no question asked of the sample or the core takes a whole stack of
frames (P, n, k): bad_set_witnesses decides the bad set and _reaches the
core, each from one first_below call per table block (table_blocks).
The expansion certificates of many flags advance together, one word at
a time, with one stacked pass over the grids of every radius
(expansion_certificates).
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .forms import (
    Frame,
    Records,
    cosines,
    first_below,
    kernel_mask,
    null_space,
    orthonormalize,
    principal_sines,
    push_forward,
    restrict,
    table_blocks,
)

MEMBERSHIP_TOL = 1e-9
BAD_SET_TOL = 1e-6
ACCUMULATION_TOL = 1e-3


class NotInCompactificationError(ValueError):
    def __init__(self, msg, violation):
        super().__init__(msg)
        self.violation = violation


class CompactPoint(NamedTuple):
    """A nonpositive q-plane; stratum = kernel dimension of the
    restricted form (0 on the interior)."""
    frame: Frame
    stratum: int
    form: object

    @property
    def is_interior(self):
        return self.stratum == 0


def in_Xbar(w, form, tol=MEMBERSHIP_TOL):
    """Membership of a q-plane in the compactification: the restricted
    form must be nonpositive; rejections carry the violating eigenvalue.
    _membership's rule on a stack of one frame."""
    if w.k != form.q:
        raise ValueError(f"frame must have q = {form.q} columns")
    top, positive, stratum = _membership(form, w.columns, tol)
    if positive:
        raise NotInCompactificationError(
            f"restriction has positive eigenvalue {top:.3e}", float(top))
    return CompactPoint(w, int(stratum), form)


def _membership(form, columns, tol):
    """in_Xbar's rule on stacked frames (..., n, k), from one ``eigh``
    of their restricted grams: the largest eigenvalue of each (-inf when
    k = 0), whether it exceeds tol times ``form.gram_norm``, and the
    stratum, the count of eigenvalues that span the kernel by
    restrict_kernel's rule (``kernel_mask``)."""
    vals = np.linalg.eigh(restrict(form, columns))[0]
    top = np.max(vals, axis=-1, initial=-np.inf)
    return top, top > tol * form.gram_norm, kernel_mask(vals, form, tol).sum(-1)


# ---------------------------------------------------------------------------
# bad sets


def in_bad_set(point, sample, tol=BAD_SET_TOL):
    """Whether some sampled limit flag meets the plane of one
    CompactPoint, as (bool, witness word or None): bad_set_witnesses on a
    stack of one."""
    hit = bad_set_witnesses(point.frame.columns[None], sample, tol)[0]
    return (False, None) if hit < 0 else (True, sample.words[hit])


def bad_set_witnesses(frames, sample, tol=BAD_SET_TOL):
    """For each frame of a stack (P, n, k) of orthonormal columns, the
    index of the first sample flag that meets it below tol (smallest
    principal-angle sine), or -1.  Each table block is one first_below
    call on the cosines against the sample, so principal_sines runs only
    on the pairs it cannot settle."""
    flags, (n, k) = sample.columns, frames.shape[-2:]
    j = flags.shape[-1]
    witness = np.full(len(frames), -1)
    for block in table_blocks(len(frames), len(flags) * j * k):
        part = frames[block]
        witness[block] = first_below(
            cosines(part, flags), n, min(j, k), tol,
            lambda index: principal_sines(flags[index[0]], part[index[1]])[:, 0] < tol,
            smallest=True)
    return witness


def bad_set_distance(frames, sample):
    """Distance proxy to the bad set: the minimum over sampled flags of
    the smallest principal-angle sine against the plane (for lines this
    is exactly the incidence-set distance).  ``frames`` is a Frame or an
    (n, q) array of orthonormal columns, for which a float comes back,
    or a stack (P, n, q), for which an array (P,) does."""
    frames = getattr(frames, "columns", frames)
    dist = np.min(principal_sines(sample.columns, frames[..., None, :, :])[..., 0], axis=-1)
    return float(dist) if frames.ndim == 2 else dist


# ---------------------------------------------------------------------------
# dynamical relation scan


def dynamical_relation_scan(points, ball, sample, tol=ACCUMULATION_TOL,
                            min_word_length=None):
    """Push every point with every long ball element and flag pairs whose
    image stays outside the sampled bad set at the accumulation
    tolerance.

    Zero flags is properness evidence: long words of a divergent group
    must accumulate on the bad set.  A flag with a small recorded gap
    exposes an infinite bounded-projection family (non-divergence); a
    flag with a large gap contradicts the accumulation statement itself.
    Points must be members of the compactification outside the bad set.

    The long elements are the tail of the shortlex ball, and the scan
    pushes the points through a table block of them (table_blocks) at
    once: one stacked product, each slice the one-element value.  Lines
    against line flags take |cos| against every sample line, a table
    (elements, sample lines, points) per block.  Every other case pushes
    the points forward with one stacked SVD per block and decides the
    block's images with bad_set_witnesses (``_plane_hits``), so
    principal_sines runs only on the pairs its tables leave in their
    rounding band and on the images that no flag meets below tol.  The
    flags come out element by element, points ascending within each.

    The flags are a Records table with one row per flag: ``point`` (the
    index of the point), ``word`` (the element), ``min_gap`` (its
    smallest relevant root gap) and ``residual`` (the distance of the
    image to the sampled bad set).
    """
    flags = Records({"point": [], "word": [], "min_gap": [], "residual": []})
    if not points:
        return flags
    if min_word_length is None:
        min_word_length = max(ball.radius, 1)
    pts = np.stack([pt.frame.columns for pt in points])
    witness = bad_set_witnesses(pts, sample, tol)
    bad = np.flatnonzero(witness >= 0)
    if bad.size:
        raise ValueError(f"scan point {bad[0]} is already in the bad set "
                         f"(witness {sample.words[witness[bad[0]]]!r})")
    # the long elements are the tail of the shortlex ball: a view
    first = int(np.searchsorted(ball.lengths, min_word_length))
    mats = ball.matrices[first:]
    count, (n, k) = len(pts), pts.shape[-2:]

    # lines against line flags print |cos|-based residuals in full
    line_path = k == 1 and sample.columns.shape[-1] == 1
    if line_path:
        lines = sample.columns[:, :, 0]
        # the C-ordered (n, P) points of the line path: numpy picks the
        # BLAS routine of each slice of mats @ pts from their layout
        pts = np.ascontiguousarray(pts[:, :, 0].T)
        width = len(lines) * count
    else:
        width = count * n * n * k
    flagged = []
    for block in table_blocks(len(mats), width):
        if line_path:
            moved = mats[block] @ pts
            moved /= np.linalg.norm(moved, axis=-2, keepdims=True)
            # |cos| in place: one table-sized temporary fewer per block
            cos = lines @ moved
            np.abs(cos, out=cos)
            residuals = np.sqrt(np.clip(1 - np.max(cos, axis=-2) ** 2, 0.0, 1.0))
            far = residuals > tol
            element, hit = np.nonzero(far)
            residuals = residuals[far]
        else:
            moved = push_forward(mats[block, None], pts).reshape(-1, n, k)
            hit, residuals = _plane_hits(moved, sample, tol)
            element, hit = np.divmod(hit, count)
        # one (index, points, residuals) entry per flagged element
        hit, residuals = hit.tolist(), residuals.tolist()
        stop = 0
        for index, size in enumerate(np.bincount(element).tolist(), first + block.start):
            if size:
                start, stop = stop, stop + size
                flagged.append((index, hit[start:stop], residuals[start:stop]))

    # only flagged elements need a gap
    members = [a - 1 for a in sorted(sample.theta.members)]
    gaps = ball.gaps([index for index, _, _ in flagged], sample.theta.root_system,
                     sample.form)[:, members]
    for (index, hit, resids), gap in zip(flagged, np.min(gaps, axis=1).tolist()):
        size = len(hit)
        flags["point"].extend(hit)
        flags["word"].extend(repeat(ball.words[index], size))
        flags["min_gap"].extend(repeat(gap, size))
        flags["residual"].extend(resids)
    return flags


def _plane_hits(moved, sample, tol):
    """The pushed frames moved (P, n, k) whose smallest principal-angle
    sine to every sample flag exceeds tol, as (indices, residuals), the
    residual being that smallest sine's minimum over the flags.

    bad_set_witnesses decides which frames some flag meets below tol,
    and only the others are measured in full.  So NaN and residual ==
    tol are not hits, as in the full measurement."""
    clear = np.flatnonzero(bad_set_witnesses(moved, sample, tol) < 0)
    if not clear.size:
        return clear, np.empty(0)
    residuals = bad_set_distance(moved[clear], sample)
    hit = residuals > tol
    return clear[hit], residuals[hit]


# ---------------------------------------------------------------------------
# expansion certificates


class ExpansionResult(NamedTuple):
    success: bool
    word: str | None
    neighborhood_radius: float
    factor: float            # certified factor, or best found on failure
    pairs_tested: int


def _line_draw(rng, n):
    # rng.uniform(0.2, 1.0) to the bit, which is low + (high - low) times
    # one random(), without uniform's per-call argument checks
    return rng.standard_normal(n), 0.2 + (1.0 - 0.2) * rng.random()


def _lines(v, draws, max_angles):
    """Orthonormal columns (m, n, 1) of the lines at angle phi in
    [0.2, 1] max_angle from the unit vectors v (m, n), one row of v, one
    max angle of max_angles (m,) and one ``_line_draw`` per line.
    Every dot product is the one-line ``v @ u`` (a row times a vector,
    not a matrix product), so each line is bit for bit the one-draw
    value."""
    normals, uniforms = zip(*draws) if draws else ((), ())
    v = v[:, None]
    u = np.reshape(normals, v.shape)
    u = u - v * (u @ np.swapaxes(v, -1, -2))
    u = u / np.sqrt(u @ np.swapaxes(u, -1, -2))
    phi = np.reshape(uniforms, (-1, 1, 1)) * np.reshape(max_angles, (-1, 1, 1))
    return orthonormalize(np.swapaxes(np.cos(phi) * v + np.sin(phi) * u, -1, -2))[0]


def _draw_grid(rngs, v, max_angles, q, grid):
    """One grid of pairs (W, L) per entry of rngs, around its unit vector
    of v (m, n) and within its max angle of max_angles (m,), the grids
    drawn in order and each in the order of a pair-by-pair loop: per
    pair a near line, q - 1 extra columns when q > 1, and the line L.
    An rng may draw several grids.  The planes take one stacked SVD, and
    the pairs whose W drops rank are left out.  Returns the full-rank
    planes (M, n, q), their lines (M, n, 1), the index of each pair's
    grid (M,) and each grid's rng state just after it was drawn."""
    n = v.shape[-1]
    near, extra, lines, states = [], [], [], []
    for rng in rngs:
        for _ in range(grid):
            near.append(_line_draw(rng, n))
            if q > 1:
                extra.append(rng.standard_normal((n, q - 1)))
            lines.append(_line_draw(rng, n))
        states.append(rng.bit_generator.state)
    v = np.repeat(v, grid, axis=0)
    max_angles = np.repeat(max_angles, grid)
    spans = _lines(v, near, max_angles)
    if q > 1:
        spans = np.concatenate(
            [spans, np.reshape(extra, (-1, n, q - 1))], axis=-1)
    # W's SVD re-spans the near line's orthonormal column when q = 1;
    # dropping it would move the factors in the last bit
    planes, ranks = orthonormalize(spans)
    full = ranks == q
    owner = np.repeat(np.arange(len(rngs)), grid)
    return planes[full], _lines(v, lines, max_angles)[full], owner[full], states


def _factors(mats, planes, lines, q):
    """The expansion factor sin(L', W') / sin(L, W) of each pair, where
    the primes are the images under the pair's matrix of mats (M, n, n),
    and the mask of the pairs measured: those whose L lies at least
    1e-12 from W.  Each kind of frame takes one stacked SVD and each side
    one ``principal_sines`` call."""
    before = principal_sines(lines, planes)[:, 0]
    keep = ~(before < 1e-12)
    mats = mats[keep]
    moved_w, ranks = orthonormalize(mats @ planes[keep])
    moved_l = orthonormalize(mats @ lines[keep])[0]
    after = principal_sines(moved_l, moved_w)[:, 0]
    # a matrix can squeeze a plane below the rank tolerance
    for i in np.flatnonzero(ranks < q):
        after[i] = principal_sines(moved_l[i], moved_w[i, :, :ranks[i]])[0]
    return after / before[keep], keep


DEFAULT_EXPANSION_RADII = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4,
                           3e-5, 1e-5)
EXPANSION_GRID = 8


def expansion_certificate(flag, ray, ball, c, q=1, rng=None,
                          radii=DEFAULT_EXPANSION_RADII):
    """Search the inverses of a quasigeodesic ray for an element
    expanding incidence distances by the factor c on a measured
    neighborhood of the incidence set of the flag (a Frame).

    ``q`` is the plane dimension of the Grassmannian being certified.
    Each (word, radius) step samples a grid of EXPANSION_GRID pairs
    (W, L): planes W at incidence distance below the radius from the
    flag and lines L within the radius; by the distance identity both
    lie in the r-neighborhood of the incidence set.  Returns the first
    certified (word, radius, factor) or a failure record with the best
    factor found: expansion_certificates on one flag.
    """
    return expansion_certificates([flag], [ray], ball, c, q,
                                  [rng or np.random.default_rng(0)], radii)[0]


def expansion_certificates(flags, rays, ball, c, q=1, rngs=None,
                           radii=DEFAULT_EXPANSION_RADII):
    """expansion_certificate for each flag with its ray and rng (a fresh
    ``default_rng(0)`` each when rngs is None, and never one rng for two
    flags), as a list of ExpansionResults.

    The certificates advance word by word.  At each word every flag that
    has not succeeded and still has words draws the grids of all radii
    from its own rng, radius by radius, in the order and with the rng
    calls of a pair-by-pair loop that draws L for every pair, and one
    stacked pass (``_factors``) measures the grids of all of them.  Each
    flag then reads its grids in radius order.  The grids after its
    first success were drawn for nothing: its rng goes back to the state
    it had just after the succeeding grid.  So each result and each
    rng's final state are bit for bit those of that pair-by-pair loop
    run on one flag at a time.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    from .words import word_inverse
    if rngs is None:
        rngs = [np.random.default_rng(0) for _ in flags]
    if len(set(map(id, rngs))) < len(rngs):
        raise ValueError("each flag needs its own rng")
    v = np.array([flag.columns[:, 0] for flag in flags])
    candidates = [[("", np.eye(flag.ambient_dim))]
                  + [(iw, ball.matrix(iw)) for iw in map(word_inverse, ray)]
                  for flag, ray in zip(flags, rays)]
    angles = 0.9 * np.array(radii)
    best = [(-np.inf, None, None)] * len(flags)
    tested = [0] * len(flags)
    results = [None] * len(flags)
    for word_index in range(max(map(len, candidates), default=0)):
        live = [f for f, res in enumerate(results)
                if res is None and word_index < len(candidates[f])]
        if not live:
            break
        # grid g is flag live[g // len(radii)] at radius radii[g % len(radii)]
        grids = np.repeat(live, len(radii))
        planes, lines, owner, states = _draw_grid(
            [rngs[f] for f in grids], v[grids], np.tile(angles, len(live)),
            q, EXPANSION_GRID)
        mats = np.array([candidates[f][word_index][1] for f in live])
        factors, keep = _factors(mats[owner // len(radii)], planes, lines, q)
        counts = np.bincount(owner[keep], minlength=len(grids))
        parts = np.split(factors, np.cumsum(counts)[:-1])
        for g, f in enumerate(grids.tolist()):
            if results[f] is not None or not parts[g].size:
                continue
            tested[f] += parts[g].size
            factor = min(parts[g].tolist())
            word, radius = candidates[f][word_index][0], radii[g % len(radii)]
            if factor >= c:
                results[f] = ExpansionResult(True, word, radius, factor, tested[f])
                rngs[f].bit_generator.state = states[g]
            elif factor > best[f][0]:
                best[f] = (factor, word, radius)
    return [res or ExpansionResult(False, b[1], b[2] or radii[-1],
                                   b[0] if b[0] > -np.inf else 0.0, t)
            for res, b, t in zip(results, best, tested)]


# ---------------------------------------------------------------------------
# coverage


class CoverageCurve(NamedTuple):
    margins: tuple
    fractions: tuple
    counts: tuple


# tries decided per stacked call of the sampler (measured on (2, 1), where
# about one try in three is accepted, and on (3, 2), about one in 24)
SAMPLER_BLOCK = 32


def gaussian_domain_sampler(form, rng, tol=MEMBERSHIP_TOL, max_tries=5000):
    """Uniform-frame sampler rejected onto the compactification: an
    endless stream of the nonpositive frames of orthonormalized Gaussian
    matrices, which raises RuntimeError after max_tries rejected tries
    in a row.

    Tries are drawn and decided SAMPLER_BLOCK at a time, with one
    stacked SVD and one call of in_Xbar's rule (``_membership``: one
    restriction and one ``eigh``), each slice bit for bit the one-try
    value, which gives each try's verdict and stratum.  An accepted try
    keeps the columns that ``orthonormalize`` shares with
    ``Frame.from_spanning``, so the points are a try-by-try loop of
    in_Xbar's.  A try short of q columns goes through ``in_Xbar``, which
    raises the ValueError that loop raised."""
    n, q = form.n, form.q
    rejected = 0
    while True:
        frames, ranks = orthonormalize(rng.standard_normal((SAMPLER_BLOCK, n, q)))
        _, positive, strata = _membership(form, frames, tol)
        for frame, rank, stratum, accept in zip(frames, ranks, strata.tolist(),
                                                (ranks < q) | ~positive):
            if rejected >= max_tries:
                raise RuntimeError("rejection sampling failed")
            if not accept:
                rejected += 1
            elif rank < q:
                yield in_Xbar(Frame(frame[:, :rank]), form, tol)
            else:
                rejected = 0
                yield CompactPoint(Frame(frame), stratum, form)


COVERAGE_MARGINS = (0.3, 0.1, 0.03, 0.01)


def orbit_coverage(core, ball, points, trials, sample=None, d_core=0.1):
    """Fraction of the first ``trials`` domain points (CompactPoints or
    Frames) that the iterable ``points`` yields moved within d_core of
    the core by some ball element, reported as a curve over the bad-set
    margins COVERAGE_MARGINS.

    With a limit sample, points are bucketed by their bad-set distance
    and the fraction is computed among points at margin at least m; the
    curve is reported, not judged.

    Both decisions are yes/no and take the stack of all trial points at
    once: a point is at margin at least m iff no flag meets it below m
    (bad_set_witnesses at tol m), and it is covered iff some ball element
    moves it within d_core of a core frame (_reaches).  The exact
    kernels, bad_set_distance's principal_sines and push_forward, run
    only on the entries that the cosine tables cannot settle.
    """
    core_frames = [p.frame if isinstance(p, CompactPoint) else p for p in core]
    frames = [pt.frame if isinstance(pt, CompactPoint) else pt
              for pt in islice(points, trials)]
    covered = np.zeros(len(frames), dtype=bool)
    kept = np.ones((len(COVERAGE_MARGINS), len(frames)), dtype=bool)
    if frames:
        stack = np.stack([f.columns for f in frames])
        for cf in core_frames:
            covered |= _reaches(ball, stack, getattr(cf, "columns", cf), d_core)
        if sample is not None:
            kept[:] = [bad_set_witnesses(stack, sample, m) < 0
                       for m in COVERAGE_MARGINS]
    fractions, counts = [], []
    for keep in kept:
        counts.append(int(np.sum(keep)))
        fractions.append(float(np.mean(covered[keep])) if np.any(keep) else float("nan"))
    return CoverageCurve(COVERAGE_MARGINS, tuple(fractions), tuple(counts))


def _reaches(ball, frames, core, d_core):
    """For each frame of a stack (P, n, k), whether some ball element
    moves it within flag distance d_core of the core columns (n, j).
    Each table block is one first_below call over the whole ball.  A
    moved line is the normalized product, which push_forward's SVD gives
    up to rounding, so only the pairs the table cannot settle take it."""
    n, k = frames.shape[-2:]
    mats = ball.matrices[:, None]
    covered = np.zeros(len(frames), dtype=bool)
    # width: the products of mats @ trial, whose temporaries are the largest
    for block in table_blocks(len(frames), len(mats) * n * n * k):
        trial = frames[block]
        if k == 1:
            moved = mats @ trial
            moved /= np.linalg.norm(moved, axis=-2, keepdims=True)
        else:
            moved = push_forward(mats, trial)
        covered[block] = first_below(
            cosines(moved, core[None])[0],
            n, min(k, core.shape[-1]), d_core,
            lambda index: principal_sines(
                push_forward(ball.matrices[index[0]], trial[index[1]]), core)[:, -1] <= d_core,
            first=False) >= 0
    return covered


# ---------------------------------------------------------------------------
# subalgebra compactification


class SubalgebraPoint(NamedTuple):
    """A boundary point of the subalgebra compactification: the span of
    k_theta + u_theta in Lie-algebra coordinates."""
    algebra_tag: str
    theta: object
    basis: Frame               # dim_k columns in R^{dim g}


def subalgebra_point(algebra_tag, theta):
    """The subalgebra r_theta = k_theta + u_theta for a subset of the
    simple restricted roots (theta empty gives the maximal compact)."""
    from .algebras import get_algebra
    alg = get_algebra(algebra_tag)
    rs = alg.root_system
    if theta.root_system.type_label != rs.type_label or \
            theta.root_system.rank != rs.rank:
        raise ValueError(
            f"theta belongs to {theta.root_system!r}, algebra has {rs!r}")
    members = set(theta.members)

    u_cols, levi_cols = [], [alg.zero_space()]
    for eps, coeffs in alg.positive_root_list():
        support = {i + 1 for i, c in enumerate(coeffs) if c != 0}
        space = alg.root_space(eps)
        if support & members:
            u_cols.append(space)
        else:
            neg = alg.root_space([-c for c in eps])
            levi_cols.extend([space, neg])
    u_basis = np.hstack(u_cols) if u_cols else np.zeros((alg.dim, 0))
    levi = Frame.from_spanning(np.hstack(levi_cols))
    kc = Frame(alg.compact_subalgebra) if alg.compact_subalgebra.shape[1] else \
        Frame(np.zeros((alg.dim, 0)))
    k_theta = _intersect(levi, kc)
    cols = np.hstack([k_theta.columns, u_basis])
    basis = Frame.from_spanning(cols) if cols.shape[1] else \
        Frame(np.zeros((alg.dim, 0)))

    _check_subalgebra(alg, basis)
    kappa = basis.columns.T @ alg.killing_gram @ basis.columns
    if basis.k and np.max(np.linalg.eigvalsh(0.5 * (kappa + kappa.T))) > \
            1e-6 * np.linalg.norm(alg.killing_gram, 2):
        raise ValueError("killing form is not nonpositive on r_theta")
    return SubalgebraPoint(algebra_tag, theta, basis)


def _intersect(a, b):
    if a.k == 0 or b.k == 0:
        return Frame(np.zeros((a.ambient_dim, 0)))
    null = null_space(np.hstack([a.columns, -b.columns]))
    if null.shape[1] == 0:
        return Frame(np.zeros((a.ambient_dim, 0)))
    return Frame.from_spanning(a.columns @ null[:a.k])


def _check_subalgebra(alg, basis):
    cols = basis.columns
    for i in range(cols.shape[1]):
        for j in range(i + 1, cols.shape[1]):
            br = alg.bracket_coords(cols[:, i], cols[:, j])
            resid = br - cols @ (cols.T @ br)
            if np.linalg.norm(resid) > 1e-7 * max(1.0, np.linalg.norm(br)):
                raise ValueError("span is not closed under the bracket")


def subalgebra_kernel_dimension(point, tol=1e-8):
    """Null count of the Killing form restricted to the subalgebra span,
    relative to the scale of the ambient Killing gram (the restriction
    can be numerically zero)."""
    from .algebras import get_algebra
    alg = get_algebra(point.algebra_tag)
    kappa = point.basis.columns.T @ alg.killing_gram @ point.basis.columns
    vals = np.linalg.eigvalsh(0.5 * (kappa + kappa.T))
    cut = tol * np.linalg.norm(alg.killing_gram, 2)
    return int(np.sum(np.abs(vals) <= cut))
