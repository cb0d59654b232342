"""The names that the benchmark's tracer (perfbench/tracing.py) wraps and
reads, checked against the package.  ``Tracer.installed()`` looks up
every TRACED name before a traced session runs its first command, so a
renamed or deleted name fails every ``--trace 1`` session; its COUNTERS
read fields of the results of the traced calls."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from anoctl import cli
from anoctl.domain import ExpansionResult
from anoctl.limits import TransversalityReport


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,attr", tracing.TRACED,
                         ids=[f"{m}.{a}" for m, a in tracing.TRACED])
def test_every_traced_name_resolves_as_installed_looks_it_up(module, attr):
    owner = importlib.import_module(f"anoctl.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = getattr(owner, cls_name).__dict__[meth]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("result", [ExpansionResult, TransversalityReport])
def test_counted_results_carry_pairs_tested(result):
    assert "pairs_tested" in result._fields


def test_a_traced_domain_run_feeds_the_counters(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["domain", "--radius", "3", "--samples", "5",
                         "--out", str(tmp_path)]) == 0
    # cmd_domain calls expansion_certificates, which TRACED does not
    # name, so no expansion_pairs are counted
    assert set(tracer.counts) >= {"ball_elements", "sample_flags",
                                  "transversality_pairs", "scan_pairs"}
    assert tracer.counts["transversality_pairs"] > 0
