"""The screened all-pairs pass behind transversality_report and
LimitSample.covering_radius, against the per-row loops it replaced."""

from functools import lru_cache

import numpy as np
import pytest

from anoctl import forms, limits
from anoctl.forms import Frame, make_witt_form, principal_sines
from anoctl.limits import sample_limit_set, transversality_report
from anoctl.presets import BUILTIN_GENERATORS, o21_rotation
from anoctl.roots import ThetaSet, build_root_system
from anoctl.words import enumerate_ball
from conftest import limit_sample
from test_cli import pingpong_o32


B1, B2 = build_root_system("B", 1), build_root_system("B", 2)
FLOORS = (1e-3, 1e-9, 0.3)


def isotropic_line(s):
    """The isotropic line of (1, s, -s^2 / 2) for the (2, 1) Witt form."""
    v = np.array([1.0, s, -s * s / 2])
    return v / np.linalg.norm(v)


# crafted (2, 1) samples, as the parameters of their isotropic lines: a
# smallest margin tied bit for bit (rows 2 and 3 repeat rows 0 and 1), a
# single far pair, no far pair, and a first row within the floor of the
# others, which are far from each other
CRAFTED = {"tie": (0.0, 0.7, 0.0, 0.7, 2.0), "single": (0.0, 0.7),
           "none": (0.0, 2e-4), "middle": (0.0, -9e-4, 9e-4)}


@lru_cache(maxsize=None)
def case(name):
    """(form, sample) for a preset at a radius or an O(3,2) ping-pong pair
    (seed, radius, theta member)."""
    kind, *args = name.split(":")
    if kind == "ties":
        # the pair with the smallest margin of mixed-o21's radius-5 sample
        # (3.6e-7) and its images under rotations of the maximal compact
        # subgroup: their margins agree to rounding, so the first in row
        # order is decided by the last bits of transversality_margin
        form, sample = case("mixed-o21:5")
        worst = transversality_report(sample, form).worst_pair
        pair = [cols for cols, w in zip(sample.columns, sample.words) if w in worst]
        turns = list(enumerate((0.0, 1.1, 2.3, 3.7, 5.2)))
        return form, limit_sample(
            [Frame(o21_rotation(t) @ f).columns for _, t in turns for f in pair],
            [f"{w}{i}" for i, _ in turns for w in "ab"], sample.theta, form)
    if kind in CRAFTED:
        lines = [Frame(isotropic_line(s)).columns for s in CRAFTED[kind]]
        return make_witt_form(2, 1), limit_sample(lines, [f"f{i}" for i in range(len(lines))])
    if kind == "pingpong":
        seed, radius, member = map(int, args)
        form, gens, theta = make_witt_form(3, 2), pingpong_o32(seed), ThetaSet(B2, frozenset({member}))
    else:
        form, gens = BUILTIN_GENERATORS[kind]()
        radius, theta = int(args[0]), ThetaSet(B1, frozenset({1}))
    return form, sample_limit_set(enumerate_ball(gens, radius), theta, form)


def reference_report(sample, form, pair_floor):
    """The per-row loops: every flag against every other through the
    exact kernels; the first strict minimum in row order is kept."""
    margin, worst, tested = np.inf, None, 0
    for i, frame in enumerate(map(Frame, sample.columns)):
        far = sample.distances_from(frame) > pair_floor
        far[i] = False
        if not np.any(far):
            continue
        tested += int(np.sum(far))
        svs = limits.transversality_margin(frame, sample.columns[far], form)
        j = int(np.argmin(svs))
        if svs[j] < margin:
            other = sample.words[np.flatnonzero(far)[j]]
            margin, worst = float(svs[j]), (sample.words[i], other)
    if tested == 0:
        raise ValueError("no pair clears the distance floor")
    return margin, worst, tested, reference_covering_radius(sample)


def reference_covering_radius(sample):
    worst = 0.0
    for i in range(len(sample)):
        dist = sample.distances_from(sample.columns[i])
        dist[i] = np.inf
        worst = max(worst, float(np.min(dist)))
    return worst


def screened_report(sample, form, pair_floor):
    """transversality_report with its floor PAIR_FLOOR set to pair_floor."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "PAIR_FLOOR", pair_floor)
        report = transversality_report(sample, form)
    return report.margin, report.worst_pair, report.pairs_tested, report.covering_radius


CASES = ["mixed-o21:5", "mixed-o21:6", "schottky-o21:6", "ties",
         "pingpong:1:4:1", "pingpong:2:4:1", "pingpong:1:4:2", "pingpong:2:4:2"]


@pytest.mark.parametrize("pair_floor", FLOORS)
@pytest.mark.parametrize("name", CASES)
def test_screened_pass_equals_the_per_row_loops(name, pair_floor):
    form, sample = case(name)
    assert screened_report(sample, form, pair_floor) == \
        reference_report(sample, form, pair_floor)


@pytest.mark.parametrize("name", CASES)
def test_covering_radius_alone_equals_the_per_row_loop(name):
    _, sample = case(name)
    assert sample.covering_radius() == reference_covering_radius(sample)


def line(*coords):
    return Frame(np.asarray(coords, dtype=float))


def test_pair_at_the_floor_is_decided_by_the_exact_distance():
    # two lines whose exact distance is the floor itself (or one ulp
    # either side), so their cosine bounds straddle it; a third line
    # keeps some pair far whatever the decision
    form = make_witt_form(2, 1)
    t = 1e-3
    frames = [line(1, 0, 0), line(np.cos(t), np.sin(t), 0), line(0, 0.6, 0.8)]
    sample = limit_sample([f.columns for f in frames], "abc", None, form)
    dist = float(principal_sines(frames[0], frames[1])[-1])
    tested = []
    for floor in (np.nextafter(dist, 0.0), dist, np.nextafter(dist, 1.0)):
        report = screened_report(sample, form, float(floor))
        assert report == reference_report(sample, form, float(floor))
        tested.append(report[2])
    # a and b count as a far pair, both ways, only below their distance
    assert tested == [6, 4, 4]


def slices(frames):
    return int(np.prod(np.shape(getattr(frames, "columns", frames))[:-2]))


class KernelCounter:
    """Counts the pairs that the exact kernels of limits see."""

    def __init__(self, monkeypatch):
        self.pairs = 0
        sines, margin = limits.principal_sines, limits.transversality_margin

        def counted_sines(a, b):
            self.pairs += max(slices(a), slices(b))
            return sines(a, b)

        def counted_margin(frame_a, frame_b, form):
            self.pairs += slices(frame_b)
            return margin(frame_a, frame_b, form)

        monkeypatch.setattr(limits, "principal_sines", counted_sines)
        monkeypatch.setattr(limits, "transversality_margin", counted_margin)


def test_the_screen_sends_few_pairs_to_the_kernels(monkeypatch):
    form, sample = case("mixed-o21:6")
    counter = KernelCounter(monkeypatch)
    report = transversality_report(sample, form)
    assert report.pairs_tested > 0
    assert counter.pairs < 0.05 * len(sample) * (len(sample) - 1)
    assert sample.covering_radius() == report.covering_radius


@pytest.mark.parametrize("name", ["mixed-o21:5", "pingpong:1:4:2"])
def test_the_pass_does_not_depend_on_the_table_size(monkeypatch, name):
    form, sample = case(name)
    expected = screened_report(sample, form, 1e-3)
    k = sample.columns.shape[-1]
    for table in (1, len(sample) ** 2 * k * k):
        monkeypatch.setattr(forms, "_TABLE", table)
        assert screened_report(sample, form, 1e-3) == expected


def two_pass_report(sample, form):
    """transversality_report as two passes: the screened pass for the
    far pairs, the nearest distances and each row's smallest screened
    margin, then a second _pair_rows pass over the rows within
    _margin_reach of the smallest of these, whose far pairs within reach
    go through transversality_margin; the first strict minimum in row
    order is kept."""
    cols, floor = sample.columns, limits.PAIR_FLOOR
    u = np.linalg.svd(form.real_gram @ cols, full_matrices=False)[0]
    index, width = np.arange(len(cols)), len(cols) * cols.shape[-1] ** 2
    nearest, least, tested = np.empty(len(cols)), np.full(len(cols), np.inf), 0
    for block in forms.table_blocks(len(cols), width):
        rows = index[block]
        nearest[rows], far, screened = limits._pair_rows(cols, rows, floor, u)
        tested += int(np.count_nonzero(far))
        least[rows] = np.min(screened, axis=1)
    if tested == 0:
        raise ValueError("no pair clears the distance floor")
    margin, worst = np.inf, None
    bound = np.min(least) + limits._margin_reach(np.min(least), *cols.shape[-2:])
    revisit = np.flatnonzero(least <= bound)
    for block in forms.table_blocks(len(revisit), width):
        rows = revisit[block]
        for i, screened in zip(rows, limits._pair_rows(cols, rows, floor, u)[2]):
            near = np.flatnonzero(screened <= bound)
            if not near.size:
                continue
            svs = limits.transversality_margin(Frame(cols[i]), cols[near], form)
            j = int(np.argmin(svs))
            if svs[j] < margin:
                margin, worst = float(svs[j]), (sample.words[i], sample.words[near[j]])
    return margin, worst, tested, float(np.max(nearest))


PASS_CASES = [f"{preset}:{radius}" for preset in ("schottky-o21", "mixed-o21")
              for radius in range(5, 9)] + ["pingpong:0:6:1", "ties", "tie", "single"]


@pytest.mark.parametrize("name", PASS_CASES)
def test_the_margin_is_found_in_the_one_pass(monkeypatch, name):
    form, sample = case(name)
    expected = two_pass_report(sample, form)
    pair_rows, seen = limits._pair_rows, []
    monkeypatch.setattr(limits, "_pair_rows", lambda cols, rows, *rest:
                        seen.extend(rows.tolist()) or pair_rows(cols, rows, *rest))
    assert tuple(transversality_report(sample, form)) == expected
    assert seen == list(range(len(sample)))


@pytest.mark.parametrize("name", ["mixed-o21:5", "pingpong:0:6:1", "ties", "tie", "middle"])
def test_a_falling_bound_admits_no_other_winner(monkeypatch, name):
    # one row per block: the bound starts from the first row's smallest
    # screened margin, which is inf for the middle sample's first row
    form, sample = case(name)
    expected = two_pass_report(sample, form)
    monkeypatch.setattr(forms, "_TABLE", 1)
    assert tuple(transversality_report(sample, form)) == expected


def test_a_sample_without_a_far_pair_keeps_its_error():
    form, sample = case("none")
    for report in (two_pass_report, transversality_report):
        with pytest.raises(ValueError, match="^no pair clears the distance floor$"):
            report(sample, form)
