import itertools

import numpy as np
import pytest

from anoctl import forms, limits
from anoctl.cartan import kak
from anoctl.forms import Frame, cosines, dist_grassmann, dist_projective, make_witt_form
from anoctl.limits import (
    MERGE_TOL,
    EmptyLimitSampleError,
    sample_limit_set,
    sample_to_csv,
    sample_to_svg,
    transversality_margin,
    transversality_report,
)
from anoctl.presets import BUILTIN_GENERATORS, o21_boost, o21_rotation, schottky_o21
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball, proximal_elements


B1 = build_root_system("B", 1)
THETA1 = ThetaSet(B1, frozenset({1}))


def schottky_sample(translation=4.0, radius=5, min_gap=1.0):
    form, gens = schottky_o21(translation=translation)
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, THETA1, form, min_gap=min_gap)
    return form, gens, ball, sample


def test_cyclic_proximal_sample_concentrates(rng):
    form = make_witt_form(2, 1)
    k = o21_rotation(0.8)
    g = k @ o21_boost(1.5) @ np.linalg.inv(k)
    ball = enumerate_ball([("a", g)], 8)
    sample = sample_limit_set(ball, THETA1, form, min_gap=1.0)
    # power iteration oracle: attracting line of g
    w, v = np.linalg.eig(g)
    line = Frame.from_spanning(np.real(v[:, np.argmax(np.abs(w))]))
    # all positive-power samples sit near the attracting line; inverse
    # powers contribute the repelling line
    dists = sorted(dist_projective(Frame(cols), line) for cols in sample.columns)
    assert dists[0] < 1e-4
    assert len(sample) <= 3


def test_identity_ball_raises():
    _, gens = schottky_o21()
    ball = enumerate_ball(gens, 0)
    with pytest.raises(EmptyLimitSampleError):
        sample_limit_set(ball, THETA1, make_witt_form(2, 1), min_gap=1.0)


def test_schottky_sample_isotropic_and_cantor_gaps():
    form, gens, ball, sample = schottky_sample()
    # isotropy invariant
    for v in sample.columns[:, :, 0]:
        assert abs(v @ form.gram @ v) <= 1e-8
    # the four ping-pong shadows around the generators' fixed lines are
    # pairwise separated and every sample lies in exactly one of them
    prox = proximal_elements(ball, gap_threshold=1.0)
    fixed = {w: fr for w, fr, _ in prox if w in ("a", "A", "b", "B")}
    assert len(fixed) == 4
    flags = [Frame(cols) for cols in sample.columns]
    shadows = {}
    for w, fr in fixed.items():
        members = [f for f, word in zip(flags, sample.words) if word[0] == w]
        shadows[w] = max(dist_projective(f, fr) for f in members)
    for w1, f1 in fixed.items():
        for w2, f2 in fixed.items():
            if w1 < w2:
                sep = dist_projective(f1, f2)
                assert sep > 3 * (shadows[w1] + shadows[w2])
    for f in flags:
        inside = [w for w, fr in fixed.items()
                  if dist_projective(f, fr) <= shadows[w] + 1e-12]
        assert len(inside) == 1
    # gap midpoints between shadows are genuinely far from every sample
    lines = sample.columns[:, :, 0]
    va = fixed["a"].columns[:, 0]
    vb = fixed["b"].columns[:, 0]
    mid = va + vb
    mid /= np.linalg.norm(mid)
    cos = np.abs(lines @ mid)
    assert np.min(np.sqrt(1 - np.clip(cos, 0, 1) ** 2)) > 0.05


def test_sample_merges_duplicates():
    form, gens, ball, sample = schottky_sample(translation=6.0, radius=6)
    lines = sample.columns[:, :, 0]
    cos = np.abs(lines @ lines.T) - np.eye(len(lines))
    max_cos = np.sqrt(1 - MERGE_TOL ** 2)
    assert np.max(cos) <= max_cos + 1e-12


def table_cases():
    """(form, generators, theta) for both presets, the O(3,2) ping-pong
    pair, mixed-o21's generators as plain GL(3) matrices and in the
    complex orthogonal group of (2, 1)."""
    from test_cli import pingpong_o32
    mixed = BUILTIN_GENERATORS["mixed-o21"]()[1]
    return {
        "schottky-o21": (*BUILTIN_GENERATORS["schottky-o21"](), THETA1),
        "mixed-o21": (*BUILTIN_GENERATORS["mixed-o21"](), THETA1),
        "pingpong-o32": (make_witt_form(3, 2), pingpong_o32(1),
                         ThetaSet(build_root_system("B", 2), frozenset({1}))),
        "gl": (None, mixed, ThetaSet(build_root_system("A", 2), frozenset({1}))),
        "2,1,C": (make_witt_form(2, 1, "complex"), mixed, THETA1),
    }


@pytest.mark.parametrize("name", ["schottky-o21", "mixed-o21", "pingpong-o32",
                                  "gl", "2,1,C"])
def test_sample_rows_are_the_flags_and_gaps_of_their_words(name):
    # every row of the table is its word's own xi_theta Frame, bit for
    # bit, with the smallest theta-gap of that word's kak
    from anoctl.cartan import kak, mu_gaps, xi_theta
    form, gens, theta = table_cases()[name]
    ball = enumerate_ball(gens, 6)
    sample = sample_limit_set(ball, theta, form)
    assert len(sample) == len(sample.words) == len(sample.lengths) == \
        len(sample.gaps) == len(sample.columns) > 1
    for j, word in enumerate(sample.words):
        g = ball.matrix(word)
        flag = xi_theta(g, theta, form, tol=1.0)
        assert sample.columns[j].tobytes() == flag.columns.tobytes()
        assert sample.columns[j].shape == flag.columns.shape
        gaps = mu_gaps(kak(g, form).mu, theta.root_system)
        assert sample.gaps[j] == min(gaps[a] for a in theta.members)
        assert sample.lengths[j] == len(word)


@pytest.mark.parametrize("preset,radius", [("schottky-o21", 6), ("mixed-o21", 5)])
def test_pruned_merge_matches_unpruned_reference(monkeypatch, preset, radius):
    # a merge tolerance of 0 keeps every candidate flag, in ball order;
    # the reference then merges them by comparing against every kept flag
    form, gens = BUILTIN_GENERATORS[preset]()
    ball = enumerate_ball(gens, radius)
    sample = sample_limit_set(ball, THETA1, form)
    monkeypatch.setattr(limits, "MERGE_TOL", 0.0)
    candidates = sample_limit_set(ball, THETA1, form)
    kept = []
    for word, cols in zip(candidates.words, candidates.columns):
        if all(dist_grassmann(Frame(cols), f) >= MERGE_TOL for _, f in kept):
            kept.append((word, Frame(cols)))
    assert len(kept) < len(candidates)
    assert sample.words == [word for word, _ in kept]


def flag_reference(k, i, form):
    """The one-matrix flag rule: the Frame.from_spanning columns of the
    first i columns (realified for onC), checked for isotropy."""
    from anoctl.cartan import _realify
    cols = k[:, :i]
    frame = Frame.from_spanning(
        _realify(cols) if form is not None and form.is_complex else cols)
    if form is not None:
        forms.check_isotropic(frame.columns, form)
    return frame.columns


def within_reference(cols, kept, tol):
    """The one-candidate merge test: one cosine table against the kept
    frames, and principal_sines only where first_below cannot settle it."""
    n, k = cols.shape[-2:]
    return forms.first_below(
        cosines(cols, kept), n, k, tol,
        lambda index: forms.principal_sines(cols, kept[index])[:, -1] < tol,
        first=False) >= 0


def surely_within_reference(cols, kept, tol, margin):
    """The merge screen's table rule: one cosine table of the stack (R,
    n, k) against the kept frames (N, n, k), cut at each row's reach by
    cosine_cuts' upper cut."""
    n, k = cols.shape[-2:]
    reach = tol - 2.0 * margin
    hi = forms.cosine_cuts(n, k, reach)[0]
    return (reach > 0) & np.any(cosines(cols, kept) > hi, axis=0)


def kept_of(kept, entry):
    """The frames kept (N, n, k) as the sampler's _Kept, by the coordinate
    of the projections' entry, with free rows for a block of up to 64."""
    out = limits._Kept(entry, len(kept) + 64, kept.shape[1:])
    out.columns[:len(kept)] = kept
    out.add(forms.projection_coordinate(kept, entry))
    return out


def sample_reference(ball, theta, form=None, min_gap=1.0, merge_tol=MERGE_TOL):
    """The sampler's one-candidate loop: the same blocks, screen (by its
    table rule) and exact gaps as sample_limit_set, then each surviving
    candidate of a block in turn gets its own flag and merge test
    against every flag kept before it.  Returns (words, gaps, columns)."""
    from anoctl.cartan import _theta_to_plane_dim
    i = _theta_to_plane_dim(theta, form)
    batch = ball.cartan_batch(form)
    approx, slack = batch.gaps(theta.root_system)
    members = [a - 1 for a in sorted(theta.members)]
    approx_gap = np.min(approx[:, members], axis=1)
    gap_slack = np.max(slack[:, members], axis=1)
    candidates = np.flatnonzero(ball.lengths > 0)
    candidates = candidates[approx_gap[candidates] + gap_slack[candidates] > min_gap]
    bounded = (approx_gap - gap_slack > max(min_gap, 1.0)) & \
        (batch.flag_margin < merge_tol / 2)
    frames = batch.frames(i)
    rows, gaps, kept = [], [], None
    start, size = 0, 1
    while start < len(candidates):
        block = candidates[start:start + size]
        start, size = start + size, min(2 * size, limits._PREFETCH)
        if rows:
            near = bounded[block]
            near[near] = surely_within_reference(
                frames[block[near]], kept[:len(rows)], merge_tol,
                batch.flag_margin[block[near]])
            block = block[~near]
        exact = np.min(ball.gaps(block, theta.root_system, form)[:, members], axis=1)
        block, exact = block[exact > min_gap], exact[exact > min_gap]
        for idx, k, gap in zip(block, kak(ball.matrices[block], form)[0], exact.tolist()):
            cols = flag_reference(k, i, form)
            if kept is None:
                kept = np.empty((len(ball.elements),) + cols.shape)
            if within_reference(cols, kept[:len(rows)], merge_tol):
                continue
            kept[len(rows)] = cols
            rows.append(idx)
            gaps.append(gap)
    return [ball.words[j] for j in rows], np.array(gaps), kept[:len(rows)]


def parity_cases():
    """(generators, form, theta, radii) of the block sampler's parity
    test: both presets, the CI O(3,2) pair with both simple roots (line
    and plane flags), and mixed-o21's generators in GL(3) and O(3, C),
    and two O(2,2) chamber elements."""
    from test_cartan import opq_chamber, random_opq_K
    o32, o22 = make_witt_form(3, 2), make_witt_form(2, 2)
    pair = [("a", opq_chamber(o32, [2.0, 0.5])),
            ("b", random_opq_K(np.random.default_rng(3), 3, 2))]
    b2 = build_root_system("B", 2)
    cases = {}
    for name in ("schottky-o21", "mixed-o21"):
        form, gens = BUILTIN_GENERATORS[name]()
        cases[name] = (gens, form, THETA1, range(5, 9))
    cases["o32-root1"] = (pair, o32, ThetaSet(b2, frozenset({1})), (6,))
    cases["o32-root2"] = (pair, o32, ThetaSet(b2, frozenset({2})), (7,))
    for name in ("gl", "2,1,C"):
        form, gens, theta = table_cases()[name]
        cases[name] = (gens, form, theta, (6,))
    cases["o22"] = ([(n, opq_chamber(o22, mu)) for n, mu in
                     (("a", [3.0, 1.0]), ("b", [2.0, 0.5]))], o22,
                    ThetaSet(build_root_system("D", 2), frozenset({1, 2})), (8,))
    return cases


@pytest.mark.parametrize("name", ["schottky-o21", "mixed-o21", "o32-root1",
                                  "o32-root2", "gl", "2,1,C", "o22"])
def test_block_sampler_matches_one_candidate_loop(name):
    gens, form, theta, radii = parity_cases()[name]
    for radius in radii:
        ball = enumerate_ball(gens, radius)
        words, gaps, columns = sample_reference(ball, theta, form)
        sample = sample_limit_set(ball, theta, form)
        assert sample.words == words
        assert sample.gaps.tobytes() == gaps.tobytes()
        assert sample.columns.shape == columns.shape
        assert sample.columns.tobytes() == columns.tobytes()


def test_block_merge_decides_close_members_in_order(monkeypatch):
    # a and a r, r a rotation of the compact part: members of one block
    # fall within merge_tol of each other, some within the rounding band,
    # and some only of a member that is itself merged, so they are kept
    form = make_witt_form(2, 1)
    a = o21_boost(1.0)
    gens = [("a", a), ("b", a @ o21_rotation(3.5e-7))]
    merge, sines = limits._merge, forms.principal_sines
    blocks, calls = [], []

    def recorded_merge(cols, kept, tol):
        blocks.append(cols.copy())
        return merge(cols, kept, tol)

    def counted_sines(a, b):
        calls.append(len(a))
        return sines(a, b)

    monkeypatch.setattr(limits, "_merge", recorded_merge)
    monkeypatch.setattr(forms, "principal_sines", counted_sines)
    sample = sample_limit_set(enumerate_ball(gens, 5), THETA1, form)
    # pairs of one block's members settled within merge_tol by the cuts,
    # and pairs in the rounding band, which principal_sines decided
    hi, lo = forms.cosine_cuts(3, 1, MERGE_TOL)
    tables = [np.triu(cosines(cols, cols), 1) for cols in blocks]
    assert sum(np.count_nonzero(table > hi) for table in tables) > 0
    assert sum(np.count_nonzero((lo <= table) & (table <= hi)) for table in tables) > 0
    assert sum(calls) > 0
    monkeypatch.undo()
    words, gaps, columns = sample_reference(enumerate_ball(gens, 5), THETA1, form)
    assert sample.words == words
    assert sample.gaps.tobytes() == gaps.tobytes()
    assert sample.columns.tobytes() == columns.tobytes()


@pytest.mark.parametrize("name,radius", [("mixed-o21", 6), ("o32-root2", 7),
                                         ("2,1,C", 6)])
def test_sample_does_not_depend_on_block_or_table_size(monkeypatch, name, radius):
    gens, form, theta, _ = parity_cases()[name]
    ball = enumerate_ball(gens, radius)
    expected = sample_limit_set(ball, theta, form)
    for prefetch, table in itertools.product((1, 128, 4096), (1, 2 ** 22)):
        if prefetch == table == 1:      # minutes of one-frame tables
            continue
        monkeypatch.setattr(limits, "_PREFETCH", prefetch)
        monkeypatch.setattr(forms, "_TABLE", table)
        sample = sample_limit_set(ball, theta, form)
        assert sample.words == expected.words, (prefetch, table)
        for field in ("lengths", "gaps", "columns"):
            got, want = getattr(sample, field), getattr(expected, field)
            assert got.shape == want.shape, (prefetch, table, field)
            assert got.tobytes() == want.tobytes(), (prefetch, table, field)


def merge_reference(cols, kept, tol):
    """The one-at-a-time merge: each frame in order is kept iff
    principal_sines puts it at flag distance at least tol from every
    kept frame and every earlier frame kept."""
    keep, against = [], list(kept)
    for frame in cols:
        keep.append(all(forms.principal_sines(frame, other)[-1] >= tol
                        for other in against))
        if keep[-1]:
            against.append(frame)
    return np.array(keep)


def turned(frame, angle, u):
    """The frame (n, k) with its first column turned by angle toward the
    unit vector u orthogonal to it: the sine of its largest principal
    angle to frame is sin(angle)."""
    out = frame.copy()
    out[:, 0] = np.cos(angle) * frame[:, 0] + np.sin(angle) * u
    return out


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_merge_matches_one_at_a_time_merge(monkeypatch, rng, n, k):
    # near-duplicates planted in one block, against the kept frames and
    # each other: window pairs in chunks of 4 (_TABLE = 4), of three
    # block's worth and in one chunk, by every coordinate of the
    # projections
    def frames(count):
        return np.linalg.qr(rng.standard_normal((count, n, k)))[0]

    def normal(frame):
        u = rng.standard_normal(n)
        u -= frame @ (frame.T @ u)
        return u / np.linalg.norm(u)

    edge = np.arcsin(MERGE_TOL)
    kept, cols = frames(4), frames(14)
    cols[1] = turned(kept[2], 0.5 * edge, normal(kept[2]))
    cols[5] = cols[9] = cols[2]                 # one frame three times
    u = normal(cols[3])                         # a chain: 6 is close to 3,
    cols[6] = turned(cols[3], 0.6 * edge, u)    # 10 to 6 but not to 3
    cols[10] = turned(cols[3], 1.2 * edge, u)
    cols[7] = turned(cols[4], edge * (1 - 1e-7), normal(cols[4]))
    cols[8] = turned(cols[0], edge * (1 + 1e-7), normal(cols[0]))
    cols[11] = turned(kept[0], edge * (1 + 1e-7), normal(kept[0]))
    cols[12] = turned(cols[11], edge * (1 - 1e-7), normal(cols[11]))
    expected = merge_reference(cols, kept, MERGE_TOL)
    assert np.flatnonzero(~expected).tolist() == [1, 5, 6, 7, 9, 12]
    for table in (4, 3 * len(cols) * k * k, 2 ** 22):
        monkeypatch.setattr(forms, "_TABLE", table)
        for entry in zip(*np.triu_indices(n)):
            got = limits._merge(cols, kept_of(kept, entry), MERGE_TOL)
            assert np.array_equal(got, expected), (table, entry)


def test_merge_finds_a_pair_at_the_window_edge(monkeypatch):
    # a line at flag distance just below MERGE_TOL from e_0 whose whole
    # chord lies along the coordinate of entry (0, 1): its coordinate is
    # nearly sqrt(2 k) MERGE_TOL away, outside a window without that
    # factor, and principal_sines decides the pair (it is in the band)
    n, k, entry = 3, 1, (0, 1)
    angle = np.arcsin(MERGE_TOL * (1 - 1e-7))
    line = np.array([[1.0], [0.0], [0.0]])
    moved = turned(line, angle, np.array([0.0, 1.0, 0.0]))
    apart = abs(forms.projection_coordinate(moved, entry)
                - forms.projection_coordinate(line, entry))
    reach = forms.window_reach(n, k, MERGE_TOL)
    short = np.sqrt(reach ** 2 - (2 * k - 1) * MERGE_TOL ** 2)
    assert short < 0.999 * np.sqrt(2 * k) * MERGE_TOL < apart <= reach
    hi, lo = forms.cosine_cuts(n, k, MERGE_TOL)
    assert lo <= forms.pair_cosines(moved[None], line[None])[0] <= hi
    cases = (((moved,), (line,), [False]), ((line, moved), (), [True, False]))
    for cols, kept, expected in cases:
        cols, kept = np.array(cols), np.array(kept).reshape(-1, n, k)
        assert merge_reference(cols, kept, MERGE_TOL).tolist() == expected
        assert limits._merge(cols, kept_of(kept, entry), MERGE_TOL).tolist() == expected
    monkeypatch.setattr(limits, "window_reach", lambda n, k, tol: short)
    for cols, kept, expected in cases:
        cols, kept = np.array(cols), np.array(kept).reshape(-1, n, k)
        assert limits._merge(cols, kept_of(kept, entry), MERGE_TOL).tolist() != expected


def test_merge_and_screen_on_frames_that_share_the_coordinate(monkeypatch, rng):
    # lines with one first coordinate: every window holds every frame, so
    # the pairs go in many chunks of 4 (_TABLE = 4)
    monkeypatch.setattr(forms, "_TABLE", 4)
    edge = np.arcsin(MERGE_TOL) / np.sqrt(1 - 0.6 ** 2)

    def lines(angles):
        r = np.sqrt(1 - 0.6 ** 2)
        return np.stack([np.full(len(angles), 0.6), r * np.cos(angles),
                         r * np.sin(angles)], axis=1)[:, :, None]

    base = rng.uniform(0, 2 * np.pi, 12)
    kept = lines(base[:5])
    cols = lines(np.concatenate([base[5:], base[[1, 3]] + [0.5 * edge, 2.0 * edge],
                                 base[[6, 6, 8]] + [0.0, 0.4 * edge, 0.99 * edge]]))
    entry = (0, 0)
    keys = forms.projection_coordinate(np.concatenate([kept, cols]), entry)
    assert np.all(keys == keys[0])
    table = kept_of(kept, entry)
    chunks = list(forms.window_pairs(forms.projection_coordinate(cols, entry),
                                     table.keys, forms.window_reach(3, 1, MERGE_TOL), 1))
    assert len(chunks) > 1 and sum(len(r) for r, _ in chunks) == len(cols) * len(kept)
    expected = merge_reference(cols, kept, MERGE_TOL)
    assert np.flatnonzero(~expected).tolist() == [7, 9, 10, 11]
    assert np.array_equal(limits._merge(cols, table, MERGE_TOL), expected)
    # the merge adds the frames it keeps to the kept ones
    assert np.array_equal(table.columns[:len(table)], np.concatenate([kept, cols[expected]]))
    margins = np.linspace(0.0, 0.3 * MERGE_TOL, len(cols))
    screened = limits._surely_within(cols, kept_of(kept, entry), MERGE_TOL, margins)
    assert screened.any()
    assert np.array_equal(screened, surely_within_reference(cols, kept, MERGE_TOL, margins))


@pytest.mark.parametrize("preset,radius", [("schottky-o21", 6), ("mixed-o21", 5)])
def test_cosines_equal_tensordot(preset, radius):
    form, gens = BUILTIN_GENERATORS[preset]()
    kept = sample_limit_set(enumerate_ball(gens, radius), THETA1, form).columns
    for cols in (kept[0], kept[:64], kept):
        expected = np.sum(np.tensordot(kept, cols, axes=(1, -2)) ** 2, axis=(1, -1))
        assert np.array_equal(cosines(cols, kept), expected)


def test_surely_within_does_not_depend_on_the_slices(monkeypatch):
    form, gens = BUILTIN_GENERATORS["mixed-o21"]()
    ball = enumerate_ball(gens, 7)
    # every other kept flag, so that some frames of the stack are not
    # settled by any of them
    kept = sample_limit_set(ball, THETA1, form).columns[::2]
    batch = ball.cartan_batch(form)
    stack = np.flatnonzero(batch.gaps(B1)[0][:, 0] > 1.0)
    stack = stack[::max(1, len(stack) // 128)][:128]
    frames, margins = batch.u[stack][:, :, :1], batch.flag_margin[stack]
    table = kept_of(kept, forms.projection_entry(frames, forms.window_reach(3, 1, MERGE_TOL)))

    def answers(table_size):
        monkeypatch.setattr(forms, "_TABLE", table_size)
        return limits._surely_within(frames, table, MERGE_TOL, margins)

    sliced = answers(forms._TABLE)
    assert 0 < sliced.sum() < len(stack)
    assert np.array_equal(sliced, surely_within_reference(frames, kept, MERGE_TOL, margins))
    assert np.array_equal(answers(1), sliced)
    assert np.array_equal(answers(len(kept) * len(stack)), sliced)


def test_surely_within_equals_the_table_rule_in_the_sampler(monkeypatch):
    # every screen of mixed-o21's radius-7 sample, mask for mask
    form, gens = BUILTIN_GENERATORS["mixed-o21"]()
    screen, calls = limits._surely_within, []

    def recorded(cols, kept, tol, margin):
        out = screen(cols, kept, tol, margin)
        calls.append((out, surely_within_reference(
            cols, kept.columns[:len(kept)], tol, margin)))
        return out

    monkeypatch.setattr(limits, "_surely_within", recorded)
    sample_limit_set(enumerate_ball(gens, 7), THETA1, form)
    assert len(calls) > 5 and sum(int(out.sum()) for out, _ in calls) > 100
    for out, expected in calls:
        assert np.array_equal(out, expected)


def test_sampler_makes_no_cosine_table(monkeypatch):
    # mixed-o21 at radius 7: the merge and its screen take their pairs
    # from the projection window alone
    def table(*args):
        raise AssertionError("a cosine table")

    monkeypatch.setattr(forms, "cosines", table)
    monkeypatch.setattr(limits, "cosines", table)
    form, gens = BUILTIN_GENERATORS["mixed-o21"]()
    assert len(sample_limit_set(enumerate_ball(gens, 7), THETA1, form)) > 2000


def test_sample_equivariance():
    # generator images of the radius-5 sample land inside the radius-6
    # sample up to the merge tolerance
    form, gens, ball5, sample5 = schottky_sample(radius=5)
    _, _, _, sample6 = schottky_sample(radius=6)
    a = gens[0][1]
    for cols in sample5.columns:
        moved = Frame.from_spanning(a @ cols)
        assert np.min(sample6.distances_from(moved)) < 5 * MERGE_TOL


def test_inverse_sampling_lands_in_sample():
    form, gens, ball, sample = schottky_sample()
    from anoctl.cartan import flag_of, kak, mu_gaps
    for word in sample.words[:10]:
        ginv = np.linalg.inv(ball.matrix(word))
        dec = kak(ginv, form)
        if mu_gaps(dec.mu, B1)[1] <= 1.0:
            continue
        flag = flag_of(dec.k, 1, form)
        assert np.min(sample.distances_from(flag)) < 5 * MERGE_TOL


# ---------------------------------------------------------------------------
# transversality


def test_transversality_of_opposite_isotropic_lines():
    # e1 and e3 span a hyperbolic plane in signature (2,1)
    form = make_witt_form(2, 1)
    m = transversality_margin(Frame.standard(3, [0]), Frame.standard(3, [2]), form)
    assert m > 0.5


def test_transversality_report_schottky():
    # at the bundled translation the within-cluster pair distances fall
    # below the pair floor, so only well-separated pairs are scored
    form, gens, ball, sample = schottky_sample(translation=9.0, radius=6)
    report = transversality_report(sample, form)
    assert report.margin > 1e-3
    assert report.pairs_tested > 0
    assert np.isfinite(report.covering_radius)


def test_transversality_excludes_near_pairs():
    form, gens, ball, sample = schottky_sample()
    report = transversality_report(sample, form)
    assert report.pairs_tested == limits._pair_pass(sample, limits.PAIR_FLOOR)[1]
    # shrink the floor: more pairs qualify
    assert limits._pair_pass(sample, 1e-9)[1] >= report.pairs_tested


def test_degenerate_configuration_flagged():
    # nested isotropic lines in (3,2): xi(eta) inside xi(eta')-perp
    form = make_witt_form(3, 2)
    l1 = Frame.standard(5, [0])
    l2 = Frame.standard(5, [1])
    assert transversality_margin(l2, l1, form) < 1e-12
    # distance above any floor, so a sample of the two would report ~0
    assert dist_projective(l1, l2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# export


def csv_reference(sample):
    """sample_to_csv's per-value formatting: one f-string per value."""
    _, n, k = sample.columns.shape
    coords = ",".join(f"f{i}_{j}" for j in range(k) for i in range(n))
    out = [f"word,word_length,gap,{coords}\n"]
    for word, r, gap, cols in zip(sample.words, sample.lengths, sample.gaps,
                                  sample.columns):
        flat = ",".join(f"{x:.12g}" for x in cols.T.reshape(-1))
        out.append(f"{word},{r},{gap:.12g},{flat}\n")
    return "".join(out)


def svg_reference(sample, chart=(0, 1)):
    """sample_to_svg's per-circle loop: each first column made positive
    at its first coordinate above 1e-9 in size, then charted."""
    i, j = chart
    size, radius = 600, 2.5
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for cols in sample.columns:
        v = cols[:, 0]
        idx = int(np.argmax(np.abs(v) > 1e-9))
        if v[idx] < 0:
            v = -v
        x = (v[i] + 1.0) / 2.0 * size
        y = (1.0 - (v[j] + 1.0) / 2.0) * size
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{radius}" '
                     'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_cases():
    """Samples of line flags, 2-plane flags and realified onC flags, and
    a made-up table with -0.0, first coordinates below 1e-9 in size and
    gaps that print with exponents."""
    from anoctl.limits import LimitSample
    pair = parity_cases()["o32-root2"][0]
    b2 = build_root_system("B", 2)
    mixed = BUILTIN_GENERATORS["mixed-o21"]()
    out = {
        "mixed-o21": sample_limit_set(enumerate_ball(mixed[1], 6), THETA1, mixed[0]),
        "o32-planes": sample_limit_set(enumerate_ball(pair, 5),
                                       ThetaSet(b2, frozenset({2})), make_witt_form(3, 2)),
        "2,1,C": sample_limit_set(enumerate_ball(mixed[1], 5), THETA1,
                                  make_witt_form(2, 1, "complex")),
    }
    columns = np.array([
        [[-0.0, 0.0], [-0.6, 0.8], [0.8, 0.6]],
        [[5e-10, -0.0], [-3e-10, 1.0], [-1.0, 0.0]],
        [[-2e-9, 1.0], [0.6, -0.0], [-0.8, 0.0]],
        [[0.0, -1e-300], [0.0, 0.7071067811865476], [-1.0, -0.7071067811865476]],
        [[1e-9, 0.5], [-1e-9, -0.5], [-1.0, 1 / 3]],
    ])
    out["made-up"] = LimitSample(["a", "bA", "ab", "Ba", "abab"],
                                 np.array([1, 2, 2, 2, 4]),
                                 np.array([1.0000000000005, 1e-20, 123456789012345.0,
                                           2.0 / 3.0, 1e16]),
                                 columns, THETA1)
    return out


def test_csv_and_svg_match_the_per_value_formatting():
    for name, sample in export_cases().items():
        assert sample_to_csv(sample) == csv_reference(sample), name
        n = sample.columns.shape[1]
        for chart in ((0, 1), (n - 1, 0), (1, 1)):
            assert sample_to_svg(sample, chart) == svg_reference(sample, chart), \
                (name, chart)


def test_csv_and_svg_emission_deterministic():
    form, gens, ball, sample = schottky_sample(radius=4)
    csv1, csv2 = sample_to_csv(sample), sample_to_csv(sample)
    assert csv1 == csv2
    assert csv1.startswith("word,word_length,gap,")
    svg = sample_to_svg(sample, chart=(0, 1))
    assert svg.startswith("<svg") and svg.count("<circle") == len(sample)
    assert sample_to_svg(sample, chart=(0, 1)) == svg
