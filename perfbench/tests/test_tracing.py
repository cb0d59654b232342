"""Tests of the benchmark: self-time arithmetic on a synthetic span tree,
traced sessions writing the same bytes as untraced ones, the speed
probe's arithmetic, and BENCHMARK.json matching the harness.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, Workload, pingpong_pair, write_generators

HERE = Path(__file__).resolve().parents[1]


def test_self_time_of_nested_spans():
    # sample_limit_set [0, 10] calls kak [1, 3] and kak [4, 5], then
    # xi_theta [6, 9], which calls kak [7, 8]
    names = ["limits.sample_limit_set", "cartan.kak", "cartan.xi_theta"]
    name_ids = [0, 1, 1, 2, 1]
    starts = [0.0, 1.0, 4.0, 6.0, 7.0]
    ends = [10.0, 3.0, 5.0, 9.0, 8.0]
    parents = [-1, 0, 0, 0, 3]
    stats = tracing.layer_stats(names, name_ids, starts, ends, parents)
    assert stats["limits.sample_limit_set"] == {
        "calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert stats["cartan.kak"] == {"calls": 3, "total_s": 4.0, "self_s": 4.0}
    assert stats["cartan.xi_theta"] == {"calls": 1, "total_s": 3.0,
                                        "self_s": 2.0}
    assert sum(s["self_s"] for s in stats.values()) == 10.0
    assert tracing.child_calls(names, name_ids, parents, "cartan.kak",
                               "cartan.xi_theta") == 1
    assert tracing.child_calls(names, name_ids, parents, "cartan.kak",
                               "limits.sample_limit_set") == 2


def test_installed_restores_every_binding():
    import anoctl.cartan
    import anoctl.forms
    import anoctl.limits
    import anoctl.words

    kak, from_spanning = anoctl.cartan.kak, anoctl.forms.Frame.__dict__[
        "from_spanning"]
    with tracing.Tracer().installed():
        assert anoctl.words.kak is anoctl.limits.kak is anoctl.cartan.kak
        assert anoctl.cartan.kak.__wrapped__ is kak
    assert anoctl.words.kak is anoctl.limits.kak is anoctl.cartan.kak is kak
    assert anoctl.forms.Frame.__dict__["from_spanning"] is from_spanning


def _session(tmp_path, tag, workload, gens_arg, trace):
    spec = {"src": str(HERE.parent / "src"), "gens": gens_arg,
            "commands": workload.commands(gens_arg, 5),
            "out": str(tmp_path / tag), "result": str(tmp_path / f"{tag}.json"),
            "trace": trace}
    (tmp_path / f"{tag}.spec").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "session.py"),
                    str(tmp_path / f"{tag}.spec")], check=True, timeout=300,
                   capture_output=True)
    result = json.loads((tmp_path / f"{tag}.json").read_text())
    assert [c["exit"] for c in result["commands"]] == [0, 0, 0]
    return spec["out"]


# small radii keep each session to a few seconds; mixed-o21 takes the
# line paths of the scans and pingpong-o32 the general-frame paths
SMALL = {
    "mixed-o21": Workload("mixed-o21", "builtin:mixed-o21", None,
                          {"divergence": 3, "limitset": 3, "domain": 3},
                          samples=20),
    "pingpong-o32": Workload("pingpong-o32", "generated", "3,2",
                             {"divergence": 3, "limitset": 3, "domain": 2},
                             samples=10),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_session_writes_identical_outputs(tmp_path, name):
    workload = SMALL[name]
    gens_arg = workload.gens
    if gens_arg == "generated":
        gens_arg = str(tmp_path / "gens.json")
        write_generators(pingpong_pair(5), gens_arg)
    plain = _session(tmp_path, "plain", workload, gens_arg, False)
    traced = _session(tmp_path, "traced", workload, gens_arg, True)
    assert len(checks.digests(plain)) == len(checks.OUTPUTS)
    assert checks.digests(traced) == checks.digests(plain)

    spans = tracing.load_spans(Path(traced) / "spans.npz")
    stats = tracing.layer_stats(**spans)
    assert stats["cli.main"]["calls"] == 3
    # kak is imported late inside dynamical_relation_scan
    assert tracing.child_calls(spans["names"], spans["name_ids"],
                               spans["parents"], "cartan.kak",
                               "domain.dynamical_relation_scan") > 0
    assert stats["forms.from_spanning"]["calls"] > 0
    assert stats["limits.covering_radius"]["calls"] == 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {n: u for n, (u, _, _) in run.PER_LAYER.items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert {m["name"]: m["better"] for m in spec["per_layer"]
            if m["name"] in run.PER_LAYER} == {
        n: b for n, (_, b, _) in run.PER_LAYER.items()}


def test_probe_scales_wall_time_by_measured_speed():
    from probe import REFERENCE_S, SpeedProbe

    p = SpeedProbe()
    # two samples inside [0, 1) at half the reference speed, one outside
    p.samples = [(0.1, 2 * REFERENCE_S), (0.5, 2 * REFERENCE_S),
                 (1.5, REFERENCE_S)]
    assert p.reference_seconds(0.0, 1.0) == pytest.approx(
        (1.0 - 4 * REFERENCE_S) * 0.5)
    # an interval with no sample of its own takes the mean of them all
    assert p.reference_seconds(2.0, 2.01) == pytest.approx(
        0.01 * (0.5 + 0.5 + 1.0) / 3)
