"""One workload session in a fresh process: ``python3 session.py spec.json``.

The spec names the source directory, the generator argument, the
command argument lists, the output directory and the result file.  The
session times importing ``anoctl.cli`` plus loading the generators (its
set-up), then runs each command in-process through ``anoctl.cli.main``,
timing each call, and writes the result file with the timings, exit
codes and its own peak resident memory from ``getrusage``.

Every session runs under ``probe.SpeedProbe`` and reports each interval
both as wall seconds and as reference-speed seconds.  With ``"trace":
true`` the commands also run under ``tracing.Tracer``, and the spans go
to ``spans.npz``.  With ``"setup_only": true`` the session stops after
the set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

from probe import SpeedProbe


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import anoctl.cli as cli
    cli.load_generators(cli.RunConfig(gens=spec["gens"]))
    marks = [("setup", t0, time.perf_counter())]
    result = {"anoctl_file": cli.__file__, "commands": []}
    if not spec.get("setup_only"):
        os.makedirs(spec["out"], exist_ok=True)
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer   # after the set-up: it imports numpy
            tracer = Tracer()
        with tracer.installed() if tracer else contextlib.nullcontext():
            for argv in spec["commands"]:
                record = {"argv": argv}
                start = time.perf_counter()
                try:
                    record["exit"] = cli.main(argv + ["--out", spec["out"]])
                except Exception:  # a crash is a failed command, counted later
                    record["exit"] = None
                    record["traceback"] = traceback.format_exc()
                marks.append((argv[0], start, time.perf_counter()))
                result["commands"].append(record)
        if tracer is not None:
            tracer.save(os.path.join(spec["out"], "spans.npz"))
            result["counts"] = tracer.counts
    marks.append(("session", t0, time.perf_counter()))
    probe.stop()
    result["probe_samples"] = len(probe.samples)
    result["wall_s"] = {name: end - start for name, start, end in marks}
    result["ref_s"] = {name: probe.reference_seconds(start, end)
                       for name, start, end in marks}
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main(sys.argv[1])
