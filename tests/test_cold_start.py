"""What importing ``anoctl.cli`` builds, and the records and parser it
leaves behind: no dataclass is made at import, the value records are
NamedTuples that refuse assignment, the validating classes raise their
old errors, and the parser's help and error output keeps its bytes."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from anoctl import cli
from anoctl.cartan import MuVector, kak
from anoctl.domain import ExpansionResult
from anoctl.forms import make_witt_form
from anoctl.limits import TransversalityReport
from anoctl.presets import schottky_o21
from anoctl.roots import ChamberThresholds, RootSystemError, ThetaSet, \
    build_root_system
from anoctl.words import divergence_profile, enumerate_ball


def test_importing_the_cli_builds_no_dataclass():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, anoctl.cli; print(sorted(m for m in ('dataclasses', "
            "'anoctl.satake', 'anoctl.algebras') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert proc.stdout == "[]\n"


# sha256 of stdout + NUL + stderr at COLUMNS=80, recorded when every
# command still built its own copy of the options (Python 3.11)
PARSER_OUTPUT = [
    ([], 2, "4f7024dcbb356863c090bd4d276e20cc3a7d0b4f948f0defea6bbc1ed965a546"),
    (["--help"], 0, "276109a9854e7f853a39125f7e37c48499ef376ccfab7f6fa6a77b879c4bd255"),
    (["--version"], 0, "be13e7c9b587f7dd5846e33bc98c04eebd9ebb0cbacf620b4252b9cdccb55a07"),
    (["--bogus"], 2, "4f7024dcbb356863c090bd4d276e20cc3a7d0b4f948f0defea6bbc1ed965a546"),
    (["domain", "--bogus"], 2,
     "5c0574d82719fea66e34b8e60b1b57a0927cab46ed98144d9b1e5c0e270a8005"),
    (["domain", "--radius", "x"], 2,
     "0ad0b0a56e421fa6d431d68f595a8e9ca5482fe4315032f145b1aa093d31aa2a"),
    (["ball", "--help"], 0, "f11a4d0eb7943a450fa01a5e6757b7c31323f7713f10929960710d4a127518ad"),
    (["cartan", "--help"], 0, "b6efa1658c63f3b468919c64568e91cb814db60c1cf7f46e978d1ff7e04e6dca"),
    (["divergence", "--help"], 0,
     "7f1b271e3736ae20720289141b765adfa64bb13fc205b6abaef17072efa7858f"),
    (["limitset", "--help"], 0,
     "54d2976461726fd048ee8710d52a05d8908285535db887fe62465fe01058eda0"),
    (["domain", "--help"], 0, "0b4b8d7b008a6572ea40e78fc4145c8667279a65d0cbe83b3acd391f4b26170c"),
    (["orbits", "--help"], 0, "1bb9a3fa6c9cfbdacab71222c169710d2110f711a0ad70b7df402c7b468add8c"),
    (["table1", "--help"], 0, "aad0b08f8396a2a21cec565f936d6d8e5f8981926836c6475e8fc7de2a43f4f5"),
]


@pytest.mark.parametrize("argv,code,digest", PARSER_OUTPUT)
def test_parser_output_keeps_its_bytes(monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps its usage to it
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    text = out.getvalue() + "\0" + err.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _records():
    form = make_witt_form(2, 1)
    rs = build_root_system("B", 1)
    point = cli._base_point(form)
    return [(kak(np.eye(3), form), "mu"), (point, "stratum"), (rs, "rank"),
            (rs.table1, "alpha_G_index"), (ChamberThresholds(), "divergence"),
            (ExpansionResult(True, "a", 0.1, 2.0, 3), "success"),
            (TransversalityReport(0.5, (0, 1), 1, 0.2), "margin")]


def test_records_refuse_assignment_and_unpack_like_tuples():
    for record, name in _records():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
    margin, pair, tested, radius = TransversalityReport(0.5, (0, 1), 1, 0.2)
    assert (margin, pair, tested, radius) == (0.5, (0, 1), 1, 0.2)
    assert repr(ExpansionResult(True, "a", 0.1, 2.0, 3)) == (
        "ExpansionResult(success=True, word='a', neighborhood_radius=0.1, "
        "factor=2.0, pairs_tested=3)")


def test_validating_classes_raise_their_errors():
    with pytest.raises(ValueError, match="^mu must be weakly decreasing$"):
        MuVector("gl", [1.0, 2.0])
    with pytest.raises(ValueError, match="^opq/onC mu must be nonnegative$"):
        MuVector("onC", [1.0, -0.5])
    mu = MuVector("opq", [2, 1])
    assert mu.values.dtype == float and len(mu) == 2
    rs = build_root_system("A", 2)
    with pytest.raises(RootSystemError, match=r"^theta members must lie in 1\.\.2$"):
        ThetaSet(rs, frozenset({3}))
    theta = ThetaSet(rs, [np.int64(2), 1])
    assert theta.members == frozenset({1, 2}) and theta.sorted_members == (1, 2)
    assert theta == ThetaSet(rs, frozenset({1, 2}))
    assert hash(theta) == hash(ThetaSet(rs, frozenset({1, 2})))
    assert theta != ThetaSet(rs, frozenset({1}))
    assert ThetaSet(rs).members == frozenset()
    for name, value, message in [
            ("tol", float("nan"), "tol must be positive and finite, got nan"),
            ("min_gap", 0.0, "min_gap must be positive and finite, got 0.0"),
            ("expansion_factor", float("inf"),
             "expansion_factor must be positive and finite, got inf"),
            ("samples", -1, "samples must not be negative, got -1"),
            ("scan_points", -2, "scan_points must not be negative, got -2"),
            ("expansion_flags", -3, "expansion_flags must not be negative, got -3"),
            ("cap", 0, "cap must be at least 1, got 0")]:
        with pytest.raises(ValueError) as exc:
            cli.RunConfig(**{name: value})
        assert str(exc.value) == message
    with pytest.raises(TypeError):
        cli.RunConfig(radios=2)


def test_config_file_values_are_cast_by_field_type(tmp_path):
    assert cli._FIELD_TYPES == {
        "command": "str", "config": "str", "form": "str", "gens": "str",
        "radius": "int", "cap": "int", "tol": "float", "seed": "int",
        "out": "str", "samples": "int", "min_gap": "float", "xi_root": "int",
        "chart": "str", "report": "str", "type": "str", "rank": "int",
        "support": "str", "scan_points": "int", "expansion_flags": "int",
        "expansion_factor": "float"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 3\ntol = 1e-7\nchart = 1,2\n"
                   "expansion_factor = 3\nseed = 5\n")
    config = cli.build_config(cli.make_parser().parse_args(
        ["limitset", "--config", str(cfg), "--seed", "9"]))
    assert (config.radius, config.tol, config.chart, config.expansion_factor,
            config.seed) == (3, 1e-7, "1,2", 3.0, 9)
    assert [type(v) for v in (config.radius, config.tol, config.expansion_factor)] \
        == [int, float, float]
    assert (config.command, config.config, config.form, config.cap) == \
        ("limitset", str(cfg), "2,1", 100000)
    default = cli.RunConfig()
    assert (default.gens, default.radius, default.samples) == \
        ("builtin:schottky-o21", 6, 200)


def test_divergence_profile_builds_no_element_list():
    form, gens = schottky_o21()
    ball = enumerate_ball(gens, 3)
    divergence_profile(ball, build_root_system("B", 1), form)
    assert "elements" not in vars(ball)
