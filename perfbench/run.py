"""anoctl benchmark: one CLI session per workload, repeated for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The load is a closed loop with one client: sessions
run one at a time, each in a fresh Python process (``session.py``), so
no module-level state carries over between sessions.  Before the
sessions, fresh processes that only import ``anoctl.cli`` and load the
generators measure set-up time (the first one, which also fills the
bytecode cache, is not counted).  Sessions repeat until ``--seconds``
would be exceeded, at least twice; every repeat must write the same
bytes.  With ``--trace 1`` untraced and traced sessions alternate, and
per-layer figures come from the traced ones.

The last line of standard output is the result as JSON; the full record,
with every sample and the machine facts, goes to
``perfbench/out/<workload>/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, pingpong_pair, write_generators  # noqa: E402

SETUP_RUNS = 5
MIN_SESSIONS = 2
# two sessions at the time limit plus the set-up still end within 180 s
SESSION_TIMEOUT_S = 75
COMMANDS = ("divergence", "limitset", "domain")


def _stat(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _self(*names):
    return lambda s, c, t: sum(_stat(s, n, "self_s") for n in names)


def _calls(name):
    return lambda s, c, t: _stat(s, name, "calls")


def _count(key):
    return lambda s, c, t: c.get(key, 0)


# name -> (unit, better, function(stats, counts, spans))
PER_LAYER = {
    "cartan.kak.calls": ("count", "lower", _calls("cartan.kak")),
    "cartan.kak.self_s": ("s", "lower", _self("cartan.kak")),
    "cartan.kak.us_per_call": ("us", "lower", lambda s, c, t: 1e6 * _ratio(
        _stat(s, "cartan.kak", "self_s"), _stat(s, "cartan.kak", "calls"))),
    "cartan.xi_theta.calls": ("count", "lower", _calls("cartan.xi_theta")),
    "cartan.xi_theta.self_s": ("s", "lower", _self("cartan.xi_theta")),
    "words.enumerate_ball.self_s": ("s", "lower", _self("words.enumerate_ball")),
    "words.ball_elements": ("count", "higher", _count("ball_elements")),
    "words.dedup_keep_ratio": ("ratio", "higher", lambda s, c, t: _ratio(
        c.get("ball_kept", 0), c.get("ball_probed", 0))),
    "words.divergence_profile.self_s": (
        "s", "lower", _self("words.divergence_profile")),
    "limits.sample_limit_set.self_s": (
        "s", "lower", _self("limits.sample_limit_set")),
    "limits.sample_flags": ("count", "higher", _count("sample_flags")),
    "limits.sample_keep_ratio": ("ratio", "higher", lambda s, c, t: _ratio(
        c.get("sample_flags", 0), c.get("sample_candidates", 0))),
    "limits.covering_radius.calls": (
        "count", "lower", _calls("limits.covering_radius")),
    "limits.covering_radius.self_s": (
        "s", "lower", _self("limits.covering_radius")),
    "limits.transversality_report.self_s": (
        "s", "lower", _self("limits.transversality_report")),
    "limits.transversality.pairs_tested": (
        "count", "lower", _count("transversality_pairs")),
    "limits.export.self_s": (
        "s", "lower", _self("limits.sample_to_csv", "limits.sample_to_svg")),
    "domain.orbit_coverage.self_s": ("s", "lower", _self("domain.orbit_coverage")),
    "domain.in_bad_set.calls": ("count", "lower", _calls("domain.in_bad_set")),
    "domain.in_bad_set.self_s": ("s", "lower", _self("domain.in_bad_set")),
    "domain.gaussian_domain_sampler.accept_ratio": (
        "ratio", "higher", lambda s, c, t: _ratio(
            _stat(s, "domain.gaussian_domain_sampler", "calls"),
            tracing.child_calls(t["names"], t["name_ids"], t["parents"],
                                "domain.in_Xbar",
                                "domain.gaussian_domain_sampler"))),
    "domain.dynamical_relation_scan.self_s": (
        "s", "lower", _self("domain.dynamical_relation_scan")),
    "domain.scan_pairs": ("count", "lower", _count("scan_pairs")),
    "domain.relation_flags": ("count", "lower", _count("relation_flags")),
    "domain.bad_set_distance.calls": (
        "count", "lower", _calls("domain.bad_set_distance")),
    "domain.expansion_certificate.self_s": (
        "s", "lower", _self("domain.expansion_certificate")),
    "domain.expansion.pairs_tested": ("count", "lower", _count("expansion_pairs")),
    "forms.principal_sines.calls": (
        "count", "lower", _calls("forms.principal_sines")),
    "forms.principal_sines.self_s": ("s", "lower", _self("forms.principal_sines")),
    "forms.dist_grassmann.calls": ("count", "lower", _calls("forms.dist_grassmann")),
    "forms.from_spanning.calls": ("count", "lower", _calls("forms.from_spanning")),
    "forms.from_spanning.self_s": ("s", "lower", _self("forms.from_spanning")),
    "forms.dump_json.self_s": ("s", "lower", _self("forms.dump_json")),
    "cli.self_s": ("s", "lower", _self("cli.main")),
    "trace.spans": ("count", "lower", lambda s, c, t: len(t["starts"])),
}

# name -> unit
END_TO_END = {"setup_s": "s", "divergence_s": "s", "limitset_s": "s",
              "domain_s": "s", "session_s": "s", "peak_rss_mb": "MiB",
              "domain_report_bytes": "bytes"}


def machine_facts():
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(("OMP_", "OPENBLAS", "MKL_", "BLIS_",
                                      "VECLIB_", "NUMEXPR_"))},
        "timers": "time.perf_counter in the benchmark and session "
                  "processes, scaled to reference-speed seconds by the "
                  "in-process SIGALRM probe of probe.py; "
                  "getrusage(RUSAGE_SELF).ru_maxrss in each session; "
                  "no system-wide tracing",
    }


class Runner:
    def __init__(self, workload, seed, out):
        self.workload = workload
        self.out = out
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        if workload.gens == "generated":
            gens_path = out / "gens.json"
            write_generators(pingpong_pair(seed), gens_path)
            with open(gens_path) as fh:
                self.gens = [(d["name"], np.array(d["data"]).reshape(
                    d["rows"], d["cols"])) for d in json.load(fh)]
            self.gens_arg = str(gens_path)
        else:
            self.gens_arg = workload.gens
            with open(HERE / "reference.json") as fh:
                self.reference = json.load(fh)[workload.name]
        self.commands = workload.commands(self.gens_arg, seed)
        self.runs = 0

    def child(self, **spec):
        """Run session.py with the spec.  Returns a record with the
        session's result (None if it wrote none), its output directory
        and the process's wall time as seen from here."""
        tag = f"p{self.runs}"
        self.runs += 1
        spec.update(src=str(SRC), gens=self.gens_arg,
                    commands=self.commands, out=str(self.out / tag),
                    result=str(self.out / f"{tag}.result.json"))
        spec_path = self.out / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.out / f"{tag}.log", "w") as log:
            start = time.perf_counter()
            try:
                subprocess.run([sys.executable, str(HERE / "session.py"),
                                str(spec_path)], env=self.env, stdout=log,
                               stderr=subprocess.STDOUT,
                               timeout=SESSION_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                pass
            process_s = time.perf_counter() - start
        record = {"out": spec["out"], "traced": bool(spec.get("trace")),
                  "process_s": process_s, "result": None}
        try:
            with open(spec["result"]) as fh:
                record["result"] = json.load(fh)
        except (OSError, ValueError):
            return record
        if not record["result"]["anoctl_file"].startswith(str(SRC)):
            raise RuntimeError(
                f"anoctl imported from {record['result']['anoctl_file']}")
        return record

    def problems(self, out_dir):
        w = self.workload
        if w.gens == "generated":
            return checks.check_generated(
                out_dir, self.gens, tuple(int(x) for x in w.form.split(",")),
                w.radii, w.samples)
        return checks.check_reference(out_dir, self.reference)

    def failures(self, sessions):
        """(session index, command) of every failed command; adds each
        session's output problems and digests to its record."""
        failed = set()
        first = None
        for i, s in enumerate(sessions):
            if s["result"] is None:
                failed.update((i, c) for c in COMMANDS)
                continue
            failed.update((i, c) for c, record
                          in zip(COMMANDS, s["result"]["commands"])
                          if record["exit"] != 0)
            s["problems"] = self.problems(s["out"])
            s["digests"] = checks.digests(s["out"])
            first = first or s["digests"]
            s["problems"] += [(name, "differs from the first session")
                              for name in checks.OUTPUTS
                              if s["digests"].get(name) != first.get(name)]
            failed.update((i, checks.OUTPUT_COMMAND[name])
                          for name, _ in s["problems"])
        return failed


def _summary(values):
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "samples": values}


def run(workload, seed, seconds, trace):
    out = HERE / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(workload, seed, out)

    runner.child(setup_only=True)           # fills the bytecode cache
    setups = [runner.child(setup_only=True) for _ in range(SETUP_RUNS)]
    sessions = []
    start = time.perf_counter()
    while True:
        sessions.append(runner.child(trace=bool(trace) and len(sessions) % 2))
        elapsed = time.perf_counter() - start
        if len(sessions) >= MIN_SESSIONS and \
                elapsed * (1 + 1 / len(sessions)) > seconds:
            break
    failed = runner.failures(sessions)

    plain = [s["result"] for s in sessions if s["result"] and not s["traced"]]
    traced = [s for s in sessions if s["result"] and s["traced"]]
    samples = {"setup_s": [r["ref_s"]["setup"] for r in plain + [
        s["result"] for s in setups if s["result"]]]}
    for name in COMMANDS + ("session",):
        samples[f"{name}_s"] = [r["ref_s"][name] for r in plain]
        samples[f"{name}_wall_s"] = [r["wall_s"][name] for r in plain]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    samples["domain_report_bytes"] = [
        os.path.getsize(os.path.join(s["out"], "domain.json"))
        for s in sessions if s["result"] and not s["traced"]
        and os.path.exists(os.path.join(s["out"], "domain.json"))]

    units = END_TO_END
    if trace:
        units = {n: u for n, (u, _, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        for s in traced:
            spans = tracing.load_spans(os.path.join(s["out"], "spans.npz"))
            s["layers"] = tracing.layer_stats(**spans)
            for name, (_, _, fn) in PER_LAYER.items():
                samples.setdefault(name, []).append(
                    fn(s["layers"], s["result"]["counts"], spans))
        if traced and plain:
            samples["trace.overhead_s"] = [
                statistics.median(s["result"]["ref_s"]["session"]
                                  for s in traced)
                - statistics.median(samples["session_s"])]

    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items() if samples.get(name)}
    attempted = len(sessions) * len(COMMANDS)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "commands": runner.commands,
        "machine": machine_facts(),
        "attempted": attempted, "failed": len(failed),
        "failed_ratio": len(failed) / attempted,
        "failures": sorted(f"session {i}: {c}" for i, c in failed),
        "summary": {name: _summary(v) for name, v in samples.items() if v},
        "sessions": sessions,
    }
    (out / "results.json").write_text(json.dumps(record, indent=1))
    complete = len(metrics) == len(units)
    return {"correct": not failed and complete, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}, complete


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anoctl" / "cli.py").is_file():
        print(f"error: no anoctl sources under {SRC}", file=sys.stderr)
        return 2
    result, complete = run(WORKLOADS[args.workload], args.seed, args.seconds,
                           args.trace)
    if not complete:
        print("error: no session produced every metric", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
