"""The screened yes/no incidence decisions of anoctl.domain (bad-set
membership and orbit coverage) against the exact kernels they replace:
the full-stack principal_sines rule of in_bad_set and the push-forward
loop of orbit_coverage, kept here as the references.  The stacked
decisions (bad_set_witnesses, _reaches) are checked against their
point-by-point loops, and the table rule first_below column by column
against the one-column rule it replaced."""

from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from anoctl import domain, forms, limits
from anoctl.domain import (
    CompactPoint,
    bad_set_distance,
    bad_set_witnesses,
    gaussian_domain_sampler,
    in_bad_set,
    orbit_coverage,
)
from anoctl.forms import Frame, cosine_cuts, cosines, first_below, make_witt_form, \
    orthonormalize, principal_sines, push_forward
from anoctl.limits import sample_limit_set
from anoctl.presets import BUILTIN_GENERATORS, o21_boost, o21_rotation
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball
from conftest import limit_sample
from test_cli import pingpong_o32


SIGNATURES = [(2, 1), (3, 1), (3, 2), (4, 2)]


def reference_in_bad_set(point, sample, tol=domain.BAD_SET_TOL):
    """in_bad_set before the screen: one principal_sines call on the
    whole sample."""
    sines = principal_sines(sample.columns, point.frame)
    hits = np.flatnonzero(sines[:, 0] < tol)
    return (True, sample.words[hits[0]]) if hits.size else (False, None)


def reference_witnesses(frames, sample, tol):
    """bad_set_witnesses point by point, as in_bad_set decided one frame
    before the stack: one cosine table of the frame against the sample."""
    flags, witnesses = sample.columns, []
    for frame in frames:
        witnesses.append(first_below(
            cosines(frame, flags), frame.shape[0], min(flags.shape[-1], frame.shape[-1]), tol,
            lambda index: principal_sines(flags[index[0]], frame)[:, 0] < tol,
            smallest=True, first=True))
    return np.array(witnesses, dtype=int)


def reference_reaches(ball, frames, core, d_core):
    """_reaches point by point: the whole ball pushed forward once per
    frame."""
    return np.array([np.any(principal_sines(push_forward(ball.matrices, frame), core)[:, -1]
                            <= d_core) for frame in frames], dtype=bool)


def reference_orbit_coverage(core, ball, stream, trials, sample=None,
                             d_core=0.1, margins=domain.COVERAGE_MARGINS):
    """orbit_coverage before the screen: bad_set_distance for the buckets
    and the whole ball pushed forward once per trial."""
    core_frames = [p.frame if isinstance(p, CompactPoint) else p for p in core]
    residuals, covered = [], []
    for pt in islice(stream, trials):
        frame = pt.frame if isinstance(pt, CompactPoint) else pt
        resid = bad_set_distance(frame, sample) if sample is not None else np.inf
        moved = push_forward(ball.matrices, frame.columns)
        hit = any(np.any(principal_sines(moved, cf)[:, -1] <= d_core)
                  for cf in core_frames)
        residuals.append(resid)
        covered.append(hit)
    residuals = np.array(residuals)
    covered = np.array(covered)
    fractions, counts = [], []
    for m in margins:
        keep = residuals >= m
        counts.append(int(np.sum(keep)))
        fractions.append(float(np.mean(covered[keep])) if np.any(keep) else float("nan"))
    return margins, fractions, counts


def curve(c):
    return c.margins, list(c.fractions), list(c.counts)


def same_curve(got, expected):
    return got[0] == expected[0] and got[2] == expected[2] and \
        np.array_equal(got[1], expected[1], equal_nan=True)


def ulps(value, count=2):
    """value and its neighbours up to count ulps either side."""
    out, lo, hi = [value], value, value
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return [float(v) for v in out]


def points(form, seed, count):
    return list(islice(seeded(form, seed), count))


def sample_near(plane, k, rng, count=60):
    """A sample of count k-frames around a plane (n, q): spans of W A
    tilted by a log-uniform amount between 1e-12 and 1, plus flags drawn
    at random, shuffled so that near and far flags interleave."""
    n, q = plane.shape
    tilt = 10.0 ** rng.uniform(-12, 0, size=(count, 1, 1))
    inside = plane @ rng.standard_normal((count, q, k))
    spans = inside / np.linalg.norm(inside, axis=-2, keepdims=True) + \
        tilt * rng.standard_normal((count, n, k))
    spans = np.concatenate([spans, rng.standard_normal((count // 3, n, k))])
    cols = orthonormalize(spans[rng.permutation(len(spans))])[0]
    return limit_sample([Frame(c).columns for c in cols],
                        [f"w{j}" for j in range(len(cols))])


# ---------------------------------------------------------------------------
# in_bad_set


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_in_bad_set_equals_the_full_stack_rule(p, q):
    form = make_witt_form(p, q)
    rng = np.random.default_rng(10 * p + q)
    for pt in points(form, p + q, 6):
        for k in sorted({1, q}):
            sample = sample_near(pt.frame.columns, k, rng)
            for tol in (1e-9, domain.BAD_SET_TOL, 1e-3, 0.3, 1.0):
                assert in_bad_set(pt, sample, tol) == \
                    reference_in_bad_set(pt, sample, tol)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_in_bad_set_at_the_tolerance_takes_the_same_witness(p, q):
    # tolerances at a flag's exact sine and a few ulps either side, so
    # that the cosine bounds straddle them; the witness is the first flag
    # below, whichever side the decision falls
    form = make_witt_form(p, q)
    rng = np.random.default_rng(100 + 10 * p + q)
    for pt in points(form, 7 * p + q, 3):
        sample = sample_near(pt.frame.columns, 1, rng)
        sines = principal_sines(sample.columns, pt.frame)[:, 0]
        witnesses = set()
        for value in np.sort(sines)[[0, 3, 10, len(sines) // 2]]:
            for tol in ulps(float(value)):
                got = in_bad_set(pt, sample, tol)
                assert got == reference_in_bad_set(pt, sample, tol)
                witnesses.add(got[1])
        assert len(witnesses) > 2


def test_in_bad_set_on_the_presets_equals_the_full_stack_rule():
    for name, radius in (("schottky-o21", 5), ("mixed-o21", 5)):
        form, gens = BUILTIN_GENERATORS[name]()
        sample = sample_limit_set(enumerate_ball(gens, radius),
                                  ThetaSet(build_root_system("B", 1), frozenset({1})), form)
        # flags themselves as points: each is its own first witness
        for j in (0, 5, len(sample) - 1):
            pt = CompactPoint(Frame(sample.columns[j]), 1, form)
            for tol in (1e-12, 1e-6, 1e-3):
                assert in_bad_set(pt, sample, tol) == \
                    reference_in_bad_set(pt, sample, tol)
        for pt in points(form, 3, 20):
            for tol in (1e-6, 0.1, 0.3):
                assert in_bad_set(pt, sample, tol) == \
                    reference_in_bad_set(pt, sample, tol)


# ---------------------------------------------------------------------------
# orbit_coverage


@lru_cache(maxsize=None)
def coverage_case(name):
    """(form, ball, sample) for a preset at radius 5, the O(3,2)
    ping-pong pair at radius 3, or a stack of huge-norm boosts."""
    b1 = ThetaSet(build_root_system("B", 1), frozenset({1}))
    if name == "pingpong":
        form = make_witt_form(3, 2)
        ball = enumerate_ball(pingpong_o32(0), 3)
        theta = ThetaSet(build_root_system("B", 2), frozenset({1}))
        return form, ball, sample_limit_set(ball, theta, form)
    if name == "huge":
        # k a k' for boosts a of norms up to e^160 and rotations k, k': a
        # product with a point cancels in most of its digits
        form, gens = BUILTIN_GENERATORS["mixed-o21"]()
        rng = np.random.default_rng(8)
        mats = [o21_rotation(rng.uniform(0, 7)) @ o21_boost(t) @ o21_rotation(rng.uniform(0, 7))
                for t in (5.0, 20.0, 40.0, 80.0, 160.0) for _ in range(30)]
        ball = SimpleNamespace(matrices=np.stack([np.eye(3)] + mats))
        return form, ball, sample_limit_set(enumerate_ball(gens, 5), b1, form)
    form, gens = BUILTIN_GENERATORS[name]()
    ball = enumerate_ball(gens, 5)
    return form, ball, sample_limit_set(ball, b1, form)


CASES = ["schottky-o21", "mixed-o21", "pingpong", "huge"]


def seeded(form, seed):
    return gaussian_domain_sampler(form, np.random.default_rng(seed))


@pytest.mark.parametrize("d_core", [1e-6, 0.1, 0.3])
@pytest.mark.parametrize("name", CASES)
def test_orbit_coverage_equals_the_push_forward_loop(name, d_core):
    form, ball, sample = coverage_case(name)
    core = [points(form, 5, 1)[0], points(form, 6, 1)[0]]
    for with_sample in (sample, None):
        got = orbit_coverage(core, ball, seeded(form, 1), 12, with_sample, d_core)
        expected = reference_orbit_coverage(core, ball, seeded(form, 1), 12,
                                            with_sample, d_core)
        assert same_curve(curve(got), expected)


@pytest.mark.parametrize("name", CASES)
def test_orbit_coverage_at_d_core_and_the_margins(monkeypatch, name):
    # d_core at the exact distance of the nearest moved frame and the
    # margins at the exact bad-set distance, and a few ulps either side
    form, ball, sample = coverage_case(name)
    core = points(form, 5, 1)
    decided = set()
    for pt in points(form, 11, 4):
        moved = push_forward(ball.matrices, pt.frame.columns)
        nearest = float(np.min(principal_sines(moved, core[0].frame)[:, -1]))
        resid = bad_set_distance(pt.frame, sample)
        for d_core in ulps(nearest):
            margins = tuple(ulps(resid))
            monkeypatch.setattr(domain, "COVERAGE_MARGINS", margins)
            got = curve(orbit_coverage(core, ball, [pt], 1, sample, d_core))
            expected = reference_orbit_coverage(core, ball, [pt], 1, sample,
                                                d_core, margins)
            assert same_curve(got, expected)
            decided.add((tuple(got[1]), tuple(got[2])))
    assert len(decided) > 2


def test_the_screen_pushes_few_elements_forward(monkeypatch):
    form, ball, sample = coverage_case("mixed-o21")
    pushed = []

    def counted(mats, columns):
        pushed.append(len(mats))
        return push_forward(mats, columns)

    monkeypatch.setattr(domain, "push_forward", counted)
    core = [points(form, 5, 1)[0]]
    orbit_coverage(core, ball, seeded(form, 2), 20, sample, 0.3)
    assert sum(pushed) < 0.01 * 20 * len(ball)


# ---------------------------------------------------------------------------
# stacks of points


def witness_case(name):
    """(sample, stack of points (P, n, q)) for a preset, the O(3,2)
    ping-pong pair (line flags against planes) or a sample of 2-planes
    around one of 12 O(3,2) planes (planes against planes)."""
    if name == "planes":
        form = make_witt_form(3, 2)
        stack = np.stack([pt.frame.columns for pt in points(form, 4, 12)])
        return sample_near(stack[3], 2, np.random.default_rng(5)), stack
    form, _, sample = coverage_case(name)
    stack = np.stack([pt.frame.columns for pt in points(form, 4, 12)])
    if form.q == 1:     # two of the line points are sample flags (sine 0)
        stack[[2, 7]] = sample.columns[[len(sample) // 2, -1]]
    return sample, stack


@pytest.mark.parametrize("table", [1, forms._TABLE, 10 ** 9])
@pytest.mark.parametrize("name", ["schottky-o21", "mixed-o21", "pingpong", "planes"])
def test_bad_set_witnesses_equal_the_point_by_point_loop(monkeypatch, name, table):
    # tolerances at a point's exact sine to a flag and 2 ulps either
    # side, with one frame per table block, the default blocks and one
    # block of all frames
    sample, stack = witness_case(name)
    monkeypatch.setattr(forms, "_TABLE", table)
    sines = principal_sines(sample.columns[:, None], stack)[..., 0]
    nearest = np.sort(np.min(sines, axis=0))
    decided = set()
    for value in nearest[[0, 1, len(nearest) // 2, -1]]:
        for tol in ulps(float(value)) + [domain.BAD_SET_TOL]:
            got = bad_set_witnesses(stack, sample, tol)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, reference_witnesses(stack, sample, tol))
            decided.add(tuple(got.tolist()))
    assert len(decided) > 2
    empty = bad_set_witnesses(stack[:0], sample, 0.3)
    assert empty.shape == (0,) and empty.dtype.kind == "i"


@pytest.mark.parametrize("table", [1, forms._TABLE, 10 ** 9])
@pytest.mark.parametrize("name", CASES)
def test_reaches_decides_the_stack_like_the_push_forward_loop(monkeypatch, name, table):
    # d_core at the exact distance of a frame's nearest moved frame and 2
    # ulps either side
    form, ball, _ = coverage_case(name)
    core = points(form, 5, 1)[0].frame.columns
    stack = np.stack([pt.frame.columns for pt in points(form, 11, 6)])
    monkeypatch.setattr(forms, "_TABLE", table)
    nearest = [float(np.min(principal_sines(push_forward(ball.matrices, frame), core)[:, -1]))
               for frame in stack]
    decided = set()
    for value in sorted(nearest)[::2]:
        for d_core in ulps(value):
            got = domain._reaches(ball, stack, core, d_core)
            assert np.array_equal(got, reference_reaches(ball, stack, core, d_core))
            decided.add(tuple(got.tolist()))
    assert len(decided) > 2
    assert domain._reaches(ball, stack[:0], core, 0.3).shape == (0,)


# ---------------------------------------------------------------------------
# the shared rule


def reference_first_below(c, n, k, bound, exact, smallest=False, first=True):
    """first_below on one column c (N,), before the table rule: the index
    or None, and exact sees only the unsettled rows before the first row
    settled below bound (with first=False, none when a row is)."""
    hi, lo = cosine_cuts(n, k, bound, smallest)
    maybe = np.nonzero(~(c < lo))[0]
    if not maybe.size:
        return None
    near = c[maybe]
    below = np.nonzero(near > hi)[0]
    if below.size and not near[below[0]] < np.inf:
        below = below[near[below] < np.inf]    # a cosine of inf settles nothing
    stop = below[0] if below.size else len(maybe)
    if stop and (first or not below.size):
        hits = maybe[:stop][exact(maybe[:stop])]
        if hits.size:
            return int(hits[0])
    return int(maybe[stop]) if stop < len(maybe) else None


def test_first_below_sends_unsettled_and_non_finite_cosines_to_the_kernel():
    seen = []

    def exact(index):
        seen.append([i.tolist() for i in index])
        return np.zeros(len(index[0]), dtype=bool)

    # lines: d^2 = 1 - c; bound 0.5 settles 0.0 (d = 1) and 0.9 (d = 0.32)
    c = np.array([0.0, np.nan, np.inf, 0.75, 0.9, np.nan])
    assert first_below(c, 3, 1, 0.5, exact) == 4
    # every unsettled entry, the one past the settled row too, in one call
    assert seen == [[[1, 2, 3, 5]]]
    # any pair will do: the settled one, past the infinite cosine
    seen.clear()
    assert first_below(c, 3, 1, 0.5, exact, first=False) == 4
    assert seen == []
    # no sine lies below a negative bound, and none is decided below zero
    seen.clear()
    assert first_below(np.array([1.0, 0.5]), 3, 1, -0.5, exact) == -1
    assert seen == []
    assert first_below(np.array([1.0, 0.5]), 3, 1, 0.0, exact) == -1
    assert seen == [[[0]]]
    # a table: the unsettled entries of every column, rows and columns in
    # row-major order, and a column with a row settled below asks nothing
    # with first=False
    seen.clear()
    table = np.stack([c, c[::-1], np.zeros(6)], axis=1)
    assert first_below(table, 3, 1, 0.5, exact).tolist() == [4, 1, -1]
    assert seen == [[[0, 1, 2, 2, 3, 3, 4, 5], [1, 0, 0, 1, 0, 1, 1, 0]]]
    seen.clear()
    assert first_below(table, 3, 1, 0.5, exact, first=False).tolist() == [4, 1, -1]
    assert seen == []


def cut_table(rng, n, k, bound, smallest, rows, cols):
    """A table of cosines at and one ulp either side of both cuts, inside
    the band between them, anywhere in [0, k] and non-finite."""
    hi, lo = cosine_cuts(n, k, bound, smallest)
    pool = [np.nan, np.inf, -np.inf, 0.0, float(k)]
    for cut in (hi, lo):
        pool += [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)]
    pool = np.array(pool)
    table = np.where(rng.random((rows, cols)) < 0.5,
                     rng.choice(pool, (rows, cols)),
                     rng.uniform(min(lo, hi), max(lo, hi), (rows, cols)))
    spread = rng.random((rows, cols)) < 0.3
    table[spread] = rng.uniform(0.0, k, spread.sum())
    return table


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("smallest", [False, True])
@pytest.mark.parametrize("cols", [1, 7])
def test_first_below_decides_each_column_like_the_one_column_rule(cols, smallest, first):
    # exact answers from a fixed table of kernel verdicts, so that the
    # table rule and the reference see the same kernel entry by entry
    rng = np.random.default_rng(20 + cols + 2 * smallest + 4 * first)
    for n, k in ((3, 1), (5, 2), (6, 3)):
        for bound in (-0.5, 0.0, 1e-9, 1e-6, 0.3, 1.0, 1.5):
            for rows in (1, 5, 40):
                table = cut_table(rng, n, k, bound, smallest, rows, cols)
                verdict = rng.random((rows, cols)) < 0.3
                hi, lo = cosine_cuts(n, k, bound, smallest)
                seen = np.zeros((rows, cols), dtype=bool)

                def exact(index):
                    assert not seen[index].any()
                    seen[index] = True
                    return verdict[index]

                got = first_below(table, n, k, bound, exact, smallest, first)
                assert got.shape == (cols,)
                settled = ~(table < lo) & (table > hi) & (table < np.inf)
                unsettled = ~(table < lo) & ~settled
                for j in range(cols):
                    expected = reference_first_below(
                        table[:, j], n, k, bound, lambda i: verdict[i, j],
                        smallest, first)
                    assert got[j] == (-1 if expected is None else expected)
                    # exact sees every unsettled entry of a column, none
                    # with first=False where a row is settled below
                    asked = unsettled[:, j] & (first or not settled[:, j].any())
                    assert np.array_equal(seen[:, j], asked)
                if cols == 1:
                    assert first_below(table[:, 0], n, k, bound, lambda i: verdict[i[0], 0],
                                       smallest, first) == got[0]


def reference_cut(c, hi, lo):
    """The one cut rule, entry by entry: "above" (settled at or above the
    bound) below lo, even where hi < lo; "below" (settled below it) above
    hi where finite; "unsure" otherwise, NaN and inf among them."""
    hi, lo = float(hi), float(lo)
    return np.array([["above" if x < lo else "below" if hi < x < float("inf")
                      else "unsure" for x in row] for row in c.tolist()])


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (6, 3)])
def test_every_cosine_cut_is_the_one_rule(monkeypatch, n, k):
    # first_below, pairs_below, _pair_rows and _surely_within read crafted
    # cosine tables; a kernel that answers "not below" (inf) shows which
    # entries it was asked about
    rng = np.random.default_rng(40 + n)
    rows, cols = 5, 7
    kernel = {}
    frames = np.zeros((rows * cols, n, k))
    frames[:, 0, 0] = np.arange(rows * cols)

    def sines(a, b):
        kernel["asked"] = a[:, 0, 0].astype(int)
        return np.full((len(a), k), kernel["sine"])

    kept = SimpleNamespace(entry=(0, 0), keys=np.zeros(cols),
                           columns=frames[:cols], rows=np.arange(cols))
    monkeypatch.setattr(forms, "principal_sines", sines)
    monkeypatch.setattr(limits, "principal_sines", sines)
    monkeypatch.setattr(limits, "window_pairs", lambda x, keys, reach, width: [
        (np.repeat(np.arange(rows), cols), np.tile(np.arange(cols), rows))])
    for b in (-0.5, 0.0, 1e-9, 1e-6, 0.3, 1.0, 1.5):
        # the bound that _surely_within reaches with tol 2 and these margins
        margin = np.full(rows, (2.0 - b) / 2.0)
        bound = 2.0 - 2.0 * margin[0]
        table = cut_table(rng, n, k, bound, False, rows, cols)
        cut = reference_cut(table, *cosine_cuts(n, k, bound))
        below, unsure = cut == "below", cut == "unsure"
        monkeypatch.setattr(forms, "pair_cosines", lambda a, b: table.ravel())
        monkeypatch.setattr(limits, "pair_cosines", lambda a, b: table.ravel())
        monkeypatch.setattr(limits, "cosines", lambda a, b: table.copy())

        asked = np.zeros_like(below)

        def exact(index):
            asked[index] = True
            return np.zeros(len(index[0]), dtype=bool)

        got = first_below(table, n, k, bound, exact)
        assert np.array_equal(asked, unsure)
        assert got.tolist() == [int(np.argmax(col)) if col.any() else -1
                                for col in below.T]

        kernel.update(asked=np.zeros(0, dtype=int), sine=np.inf)
        assert np.array_equal(forms.pairs_below(frames, frames, bound), below.ravel())
        assert kernel["asked"].tolist() == np.flatnonzero(unsure).tolist()

        # _pair_rows: rows 0..4 of 7 frames; the kernel's inf keeps an
        # unsure pair far and its -inf makes it near
        off = np.ones_like(below)
        off[np.arange(rows), np.arange(rows)] = False
        for sine, far in ((np.inf, ~below), (-np.inf, cut == "above")):
            kernel["sine"] = sine
            got = limits._pair_rows(frames[:cols], np.arange(rows), bound)[1]
            assert np.array_equal(got, far & off)

        assert np.array_equal(limits._surely_within(frames[:rows], kept, 2.0, margin),
                              (bound > 0) & below.any(1))


def test_first_below_band_covers_the_kernel():
    # bounds at a kernel sine and a few ulps either side, on lines and
    # planes: the cosine bounds alone would decide some of these wrongly
    rng = np.random.default_rng(3)
    for n, k in ((3, 1), (5, 2), (6, 2)):
        a = orthonormalize(rng.standard_normal((200, n, k)))[0]
        tilt = 10.0 ** rng.uniform(-9, 0, size=(200, 1, 1))
        b = orthonormalize(a + tilt * rng.standard_normal((200, n, k)))[0]
        c = np.sum((np.swapaxes(a, -1, -2) @ b) ** 2, axis=(-2, -1))
        for smallest, angle in ((False, -1), (True, 0)):
            sines = principal_sines(a, b)[:, angle]
            for j in range(0, 200, 17):
                for bound in ulps(float(sines[j])):
                    def exact(index):
                        return principal_sines(a[index], b[index])[:, angle] < bound
                    hits = np.flatnonzero(sines < bound)
                    expected = int(hits[0]) if hits.size else None
                    assert first_below(c, n, k, bound, exact, smallest) == expected


def test_cosines_of_different_widths_are_the_frobenius_table():
    rng = np.random.default_rng(4)
    flags = orthonormalize(rng.standard_normal((7, 5, 1)))[0]
    plane = orthonormalize(rng.standard_normal((5, 2)))[0]
    expected = np.sum((np.swapaxes(flags, -1, -2) @ plane) ** 2, axis=(-2, -1))
    assert np.allclose(forms.cosines(plane, flags), expected, rtol=0, atol=1e-15)
    assert forms.cosines(plane, flags).shape == (7,)


@pytest.mark.parametrize("shape", [(3, 1), (5, 3, 1), (2, 5, 3, 1), (2, 1, 4, 3, 2)])
def test_frame_products_keep_the_order_of_the_leading_axes(shape):
    rng = np.random.default_rng(5)
    frames = orthonormalize(rng.standard_normal((4, 3, 1)))[0]
    x = rng.standard_normal(shape)
    expected = np.einsum("anj,...nk->aj...k", frames, x)
    assert forms.frame_products(x, frames).shape == expected.shape
    assert np.allclose(forms.frame_products(x, frames), expected, rtol=0, atol=1e-14)
