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
