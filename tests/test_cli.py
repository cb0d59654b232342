import json
import os
import subprocess
import sys

import numpy as np
import pytest

from anoctl import cli
from anoctl.cli import domain_check_main, main
from anoctl.forms import dump_json, make_witt_form, matrix_to_json
from anoctl.presets import o21_boost, schottky_o21
from test_cartan import opq_chamber, random_opq_K
from test_forms import json_dump_text


def read(path):
    with open(path) as fh:
        return fh.read()


def pingpong_o32(seed):
    """Two conjugates of the O(3,2) chamber element with mu = (6, 2) by
    compact elements, redrawn until the attracting and repelling lines of
    both are pairwise at sine distance >= 0.5 (a ping-pong pair)."""
    chamber = opq_chamber(make_witt_form(3, 2), [6.0, 2.0])
    rng = np.random.default_rng(seed)
    while True:
        ks = [random_opq_K(rng, 3, 2) for _ in range(2)]
        lines = np.stack([k[:, i] for k in ks for i in (0, 4)])
        cos = np.abs(lines @ lines.T)
        np.fill_diagonal(cos, 0.0)
        if np.sqrt(1.0 - np.max(cos) ** 2) >= 0.5:
            return [(name, k @ chamber @ k.T) for name, k in zip("ab", ks)]


def write_gens(path, named):
    path.write_text(json.dumps([{"name": name, **matrix_to_json(m)}
                                for name, m in named]))
    return str(path)


def test_table1_all_verified(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("yes") == 10 and "NO" not in out
    data = json.loads(read(tmp_path / "table1.json"))
    assert len(data["rows"]) == 10
    assert all(r["verified"] for r in data["rows"])
    assert data["schema_version"] == 1


def test_cartan_single_diagonal_matrix(tmp_path):
    gens_path = tmp_path / "gens.json"
    entry = {"name": "d", **matrix_to_json(np.diag([4.0, 2.0, 1.0]))}
    gens_path.write_text(json.dumps([entry]))
    code = main(["cartan", "--gens", str(gens_path), "--form", "",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "cartan.json"))
    rec, = data["records"]
    assert rec["mu"] == pytest.approx([np.log(4), np.log(2), 0.0])
    assert rec["gaps"]["alpha_1"] == pytest.approx(np.log(2))


def test_cartan_batch_preserves_order_and_flags_errors(tmp_path):
    gens_path = tmp_path / "gens.json"
    bad = {"name": "x", **matrix_to_json(np.diag([2.0, 1.0, 1.0]))}
    form, gens = schottky_o21()
    good = {"name": "a", **matrix_to_json(gens[0][1])}
    gens_path.write_text(json.dumps([good, bad]))
    code = main(["cartan", "--gens", str(gens_path), "--form", "2,1",
                 "--out", str(tmp_path)])
    assert code == 1
    data = json.loads(read(tmp_path / "cartan.json"))
    assert [r["name"] for r in data["records"]] == ["a"]
    assert data["errors"][0]["name"] == "x"


def test_cartan_decomposes_each_matrix_once(tmp_path, monkeypatch):
    # one front end per generator: the flag comes from the record's own kak
    from anoctl import cartan
    front, sizes = cartan._front, []
    monkeypatch.setattr(cartan, "_front",
                        lambda g, form: sizes.append(len(g)) or front(g, form))
    assert main(["cartan", "--gens", "builtin:schottky-o21", "--out", str(tmp_path)]) == 0
    assert sizes == [1, 1]
    monkeypatch.undo()
    form, gens = schottky_o21()
    theta = cli._theta(form, 3, 1)
    records = json.loads(read(tmp_path / "cartan.json"))["records"]
    assert [r["flag_frame"] for r in records] == \
        [cartan.xi_theta(m, theta, form, 1e-9).to_json() for _, m in gens]


@pytest.mark.parametrize("form, size", [("", 3), ("3,2", 5)])
def test_cartan_records_matrices_of_the_wrong_size_as_errors(tmp_path, form, size):
    # without a form the first matrix sets the size, as a form sets it
    mats = [("a", np.diag([3.0, 2.0, 0.5])), ("b", np.diag([2.0, 0.5])),
            ("c", np.eye(3))]
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps([{"name": n, **matrix_to_json(m)} for n, m in mats]))
    code = main(["cartan", "--gens", str(gens_path), "--form", form,
                 "--out", str(tmp_path)])
    assert code == 1
    data = json.loads(read(tmp_path / "cartan.json"))
    wrong = ["b"] if size == 3 else ["a", "b", "c"]
    assert [r["name"] for r in data["records"]] == \
        [n for n, _ in mats if n not in wrong]
    assert data["errors"] == [{"name": n, "error": f"g must be {size}x{size}"}
                              for n in wrong]


def test_limitset_builtin_emits_csv_and_svg(tmp_path):
    code = main(["limitset", "--radius", "4", "--out", str(tmp_path)])
    assert code == 0
    csv = read(tmp_path / "limitset.csv")
    assert csv.startswith("word,word_length,gap,")
    svg = read(tmp_path / "limitset.svg")
    assert svg.startswith("<svg") and "<circle" in svg


@pytest.mark.parametrize("chart", ["0,9", "0", "0,1,2", "a,b", "-1,0", "0,3"])
def test_malformed_chart_exits_2(tmp_path, capsys, chart):
    # O(2,1) flags are lines in R^3: the chart needs two indices in 0..2
    assert main(["limitset", "--radius", "3", f"--chart={chart}",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "chart" in err and "0..2" in err
    assert not (tmp_path / "limitset.csv").exists()
    assert main(["limitset", "--radius", "3", "--chart", "2,0",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("form", ["3,2", "2,1,C", "3"])
def test_form_contradicting_a_builtin_preset_exits_2(tmp_path, capsys, form):
    args = ["divergence", "--gens", "builtin:schottky-o21", "--radius", "3",
            "--out", str(tmp_path)]
    assert main([*args, "--form", form]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "form" in err and form in err
    assert not (tmp_path / "divergence.csv").exists()
    assert main([*args, "--form", "2,1"]) == 0      # the preset's own form


@pytest.mark.parametrize("form", ["2,1,X", "2,1,complex", "2,1,", "2,1,C,C"])
def test_unknown_third_form_field_exits_2(tmp_path, capsys, form):
    gens = write_gens(tmp_path / "gens.json", schottky_o21()[1])
    assert main(["divergence", "--gens", gens, "--form", form, "--radius", "3",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "P,Q,C" in err and form in err
    assert not (tmp_path / "divergence.csv").exists()


@pytest.mark.parametrize("form,field", [
    ("2,1", "real"), ("2,1,C", "complex"), ("2,1,c", "complex"),
    ("2, 1, c ", "complex")])
def test_form_spellings_accepted(tmp_path, form, field):
    parsed = cli.RunConfig(form=form).parsed_form()
    assert (parsed.p, parsed.q, parsed.field_tag) == (2, 1, field)
    gens = write_gens(tmp_path / "gens.json", [("a", o21_boost(1.0))])
    assert main(["cartan", "--gens", gens, "--form", form,
                 "--out", str(tmp_path)]) == 0


def test_domain_scans_only_points_clear_at_its_tolerance(tmp_path):
    # seed 93 draws an interior point clear of the bad set at --tol but
    # within the scan's ACCUMULATION_TOL of it (witness 'AbaBa'); the
    # scan raises on such a point, so it must not reach the scan
    assert main(["domain", "--gens", "builtin:mixed-o21", "--radius", "5",
                 "--seed", "93", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "domain.json"))
    assert report["bad_set_hits"] == 0
    assert max(flag["point"] for flag in report["relation_flags"]) < 100


def test_ball_command(tmp_path):
    code = main(["ball", "--radius", "2", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "ball.json"))
    assert len(data["elements"]) == 17
    assert data["elements"][0]["word"] == ""
    assert not data["truncated"]


def test_ball_command_cap(tmp_path):
    code = main(["ball", "--radius", "3", "--cap", "8", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "ball.json"))
    assert data["truncated"] and len(data["elements"]) == 8


def test_divergence_csv(tmp_path):
    code = main(["divergence", "--radius", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "divergence.csv").strip().split("\n")
    assert lines[0] == "radius,root,min_gap,word"
    assert len(lines) == 5  # radii 0..3 plus header


def test_domain_radius_zero_report(tmp_path):
    code = main(["domain", "--radius", "0", "--samples", "20",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "domain.json"))
    assert data["sample_size"] == 0
    assert data["relation_flags"] == []
    assert data["bad_set_hits"] == 0
    assert len(data["coverage_curve"]) == 4


def test_domain_check_alias(tmp_path):
    report = tmp_path / "report.json"
    code = domain_check_main(["--form", "2,1", "--gens", "builtin:schottky-o21",
                              "--radius", "3", "--samples", "10",
                              "--report", str(report), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(report))
    assert {"bad_set_hits", "relation_flags", "coverage_curve",
            "expansion_certificates"} <= set(data)


def test_orbits_outputs(tmp_path):
    code = main(["orbits", "--type", "A", "--rank", "2", "--support", "all",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "orbits.json"))
    assert len(data["orbits"]) == 4
    dot = read(tmp_path / "orbits.dot")
    assert dot.startswith("digraph")


def test_orbits_adjoint_support(tmp_path):
    code = main(["orbits", "--type", "G2", "--rank", "2",
                 "--support", "adjoint", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "orbits.json"))
    assert data["support"] == [2]


def test_one_parser_per_process_runs_as_fresh_processes(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process: every run in this process
    # prints, writes and exits as the same run in a process of its own
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps its usage to it
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    runs = [(["--version"], 0), (["limitset", "--radius", "3", "--bogus", "1"], 2),
            (["divergence", "--radius", "3", "--out", str(tmp_path / "d")], 0),
            (["limitset", "--radius", "3", "--out", str(tmp_path / "l")], 0),
            (["--version"], 0)]

    def written(argv):
        out = argv[-1] if "--out" in argv else None
        return {name: read(os.path.join(out, name))
                for name in sorted(os.listdir(out))} if out else {}

    for argv, expected in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here = (code, *capsys.readouterr(), written(argv))
        proc = subprocess.run([sys.executable, "-m", "anoctl.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh = (proc.returncode, proc.stdout, proc.stderr, written(argv))
        assert here == fresh, argv
        assert code == expected, argv
    assert cli.make_parser() is cli.make_parser()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 2\nout = {}\nseed = 7\n".format(tmp_path))
    code = main(["limitset", "--config", str(cfg), "--radius", "4"])
    assert code == 0  # flag wins over file; just exercising the path
    assert (tmp_path / "limitset.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radios = 2\n")
    assert main(["limitset", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("option,value", [
    ("tol", "nan"), ("tol", "inf"),
    ("min_gap", "nan"), ("min_gap", "inf"),
    ("expansion_factor", "nan"), ("expansion_factor", "inf"),
    ("samples", "-1"), ("scan_points", "-5"), ("expansion_flags", "-1"),
    ("cap", "-1"), ("cap", "0"),
])
def test_malformed_option_exits_2(tmp_path, capsys, option, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {value}\n")
    runs = [["--config", str(cfg)]]
    if option not in ("expansion_factor", "expansion_flags"):    # file only
        runs.append(["--" + option.replace("_", "-"), value])
    for extra in runs:
        assert main(["domain", "--radius", "2", *extra, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
    assert not (tmp_path / "domain.json").exists()


def test_domain_pushes_planes_stretched_past_the_rank_tolerance(tmp_path):
    # at radius 4 ball elements stretch sampled 2-planes by more than 1e9
    # between their singular directions
    gens = write_gens(tmp_path / "gens.json", pingpong_o32(0))
    code = main(["domain", "--gens", gens, "--form", "3,2", "--radius", "4",
                 "--samples", "20", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads(read(tmp_path / "domain.json"))
    assert data["sample_size"] > 0 and data["interior_samples"] == 20


@pytest.mark.parametrize("content", [
    "[]",
    '{"generators": 3}',
    "[1]",
    '[{"name": "a", "rows": 1, "cols": 1}]',
    '[{"name": "a", "rows": 2, "cols": 2, "data": [1, 0, 0]}]',
    '[{"name": "a", "rows": 1, "cols": 2, "data": [1, 0]}]',
    '[{"name": "a", "rows": 1, "cols": 1, "data": {"x": 1}}]',
])
def test_malformed_generator_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "gens.json"
    path.write_text(content)
    for command in ("divergence", "domain"):
        assert main([command, "--gens", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("named,culprit", [
    ([("a", [[1.0, 2.0], [2.0, 4.0]])], "a"),                 # exactly singular
    ([("a", np.diag([2.0, 1.0])), ("b", np.ones((2, 3)))], "b"),     # not square
    ([("a", np.diag([2.0, 1.0])), ("b", np.eye(3))], "b"),            # sizes differ
    # files that matrix_from_json cannot read, and an empty matrix
    ('[{"name": "a", "rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0]}]', "a"),
    ('[{"name": "a", "rows": 1, "cols": 1, "data": ["x"]}]', "a"),
    ('[{"name": "a", "rows": 0, "cols": 0, "data": []}]', "a"),
])
def test_malformed_generator_matrix_exits_2_naming_it(tmp_path, capsys, named,
                                                      culprit):
    path = tmp_path / "gens.json"
    if isinstance(named, str):
        path.write_text(named)
        gens = str(path)
    else:
        gens = write_gens(path, named)
    for command, form in (("divergence", ""), ("divergence", "2,1"),
                          ("domain", "2,1")):
        assert main([command, "--gens", gens, "--form", form,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: generator {culprit!r} ")


def test_domain_report_with_a_one_flag_sample_is_strict_json(tmp_path):
    # one unipotent generator: its ball has a single limit flag, which
    # has no covering radius and no transversality margin
    x = np.array([[0.0, 1e7, 0.0], [0.0, 0.0, -1e7], [0.0, 0.0, 0.0]])
    gens = write_gens(tmp_path / "gens.json", [("a", np.eye(3) + x + x @ x / 2)])
    code = main(["domain", "--gens", gens, "--form", "2,1", "--radius", "1",
                 "--out", str(tmp_path)])
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    data = json.loads(read(tmp_path / "domain.json"), parse_constant=reject)
    assert data["sample_size"] == 1
    assert data["sample_covering_radius"] is None
    assert data["transversality_margin"] is None


def test_overflowing_ball_exits_2(tmp_path, capsys):
    # a^4 has entries near e^800, past the floating-point range
    gens = write_gens(tmp_path / "gens.json", [("a", o21_boost(200.0))])
    code = main(["ball", "--gens", gens, "--radius", "4", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'aaaa'" in err


def test_onC_divergence_of_the_schottky_boosts_exits_0(tmp_path):
    # past the scales that the eigen-log of g* g decomposed accurately;
    # O(2,1) lies in O(3, C), and both groups print the same profile
    gens = write_gens(tmp_path / "gens.json", schottky_o21()[1])
    for form in ("2,1,C", "2,1"):
        out = tmp_path / form
        assert main(["divergence", "--gens", gens, "--form", form, "--radius", "4",
                     "--out", str(out)]) == 0
    assert read(tmp_path / "2,1,C" / "divergence.csv") == \
        read(tmp_path / "2,1" / "divergence.csv")


def test_divergence_below_three_fitted_radii_prints_na(tmp_path, capsys):
    # the fit skips radius 0, so radius 2 leaves two radii to fit
    for radius in ("1", "2"):
        assert main(["divergence", "--radius", radius, "--out", str(tmp_path)]) == 0
        assert "slope nan (n/a)" in capsys.readouterr().out
        rows = read(tmp_path / "divergence.csv").splitlines()[1:]
        radii = [int(row.split(",")[0]) for row in rows]
        assert radii == list(range(int(radius) + 1))
    assert main(["divergence", "--radius", "3", "--out", str(tmp_path)]) == 0
    assert "(n/a)" not in capsys.readouterr().out


@pytest.mark.parametrize("form, why", [("1,1", "O(1,1) has no restricted roots"),
                                       ("2,0", "O(2,0) is compact")])
def test_forms_without_restricted_roots_exit_2(tmp_path, capsys, form, why):
    gens = write_gens(tmp_path / "gens.json", [("a", np.eye(2))])
    for command in ("domain", "cartan"):
        assert main([command, "--gens", gens, "--form", form, "--radius", "2",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: form {form} is not supported: {why}\n"


def test_gl1_exits_2_naming_the_group(tmp_path, capsys):
    gens = write_gens(tmp_path / "gens.json", [("a", np.array([[2.0]]))])
    for command in ("cartan", "divergence"):
        assert main([command, "--gens", gens, "--form", "", "--radius", "2",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: form '' is not supported: GL(1) has no restricted roots\n"


@pytest.mark.parametrize("form, why", [
    ("1,1,C", "O(2, C) has no restricted roots"),
    ("2,0,C", "O(2, C) has no restricted roots"),
    ("1,0,C", "O(1, C) is finite")])
def test_complex_forms_without_restricted_roots_exit_2(tmp_path, capsys, form, why):
    n = 1 if form == "1,0,C" else 2
    gens = write_gens(tmp_path / "gens.json", [("a", np.eye(n))])
    assert main(["cartan", "--gens", gens, "--form", form,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: form {form} is not supported: {why}\n"


def o22_chamber_pair():
    """Two O(2,2) chamber elements."""
    form = make_witt_form(2, 2)
    return [("a", opq_chamber(form, [3.0, 1.0])), ("b", opq_chamber(form, [2.0, 0.5]))]


def test_cartan_and_limitset_on_O22_take_the_line_flag(tmp_path, capsys):
    # for p = q = 2 root 1 is read as the line flag {alpha_1, alpha_2}
    gens = write_gens(tmp_path / "gens.json", o22_chamber_pair())
    for command in ("cartan", "limitset"):
        assert main([command, "--gens", gens, "--form", "2,2", "--radius", "2",
                     "--out", str(tmp_path)]) == 0
    records = json.loads(read(tmp_path / "cartan.json"))["records"]
    assert [r["flag_frame"]["cols"] for r in records] == [1, 1]
    assert len(read(tmp_path / "limitset.csv").splitlines()) > 1
    capsys.readouterr()
    # root 2 alone still names the flag it does not index
    assert main(["cartan", "--gens", gens, "--form", "2,2", "--xi-root", "2",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: for p = q the (p-1)-plane flag "
                                       "is indexed by {alpha_{p-1}, alpha_p}\n")


def test_domain_on_O22_is_tagged_outside_the_theorem(tmp_path):
    gens = write_gens(tmp_path / "gens.json", o22_chamber_pair())
    assert main(["domain", "--gens", gens, "--form", "2,2", "--radius", "2",
                 "--samples", "20", "--out", str(tmp_path)]) == 0
    data = json.loads(read(tmp_path / "domain.json"))
    assert data["outside_theorem_hypotheses"] is True
    assert data["sample_size"] > 0


def test_domain_with_a_complex_form_exits_2_before_the_ball(tmp_path, capsys,
                                                           monkeypatch):
    def enumerate_(*args):
        raise AssertionError("the ball was enumerated")
    monkeypatch.setattr(cli, "_enumerate", enumerate_)
    gens = write_gens(tmp_path / "gens.json", schottky_o21()[1])
    assert main(["domain", "--gens", gens, "--form", "2,1,C", "--radius", "3",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: domain check needs a real form\n"
    assert not (tmp_path / "domain.json").exists()


def test_sampler_failure_exits_2(tmp_path, capsys):
    # random lines of R^31 are almost never nonpositive for the (30, 1) form
    gens = write_gens(tmp_path / "gens.json", [("a", np.eye(31))])
    code = main(["domain", "--gens", gens, "--form", "30,1", "--radius", "0",
                 "--samples", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: rejection sampling failed\n"


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["table1", "--out", str(out)]) == 0
        assert main(["limitset", "--radius", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        assert main(["domain", "--radius", "3", "--samples", "15",
                     "--seed", "3", "--out", str(out)]) == 0
    for name in ("table1.json", "limitset.csv", "limitset.svg", "domain.json"):
        assert read(out1 / name) == read(out2 / name), name


def identity_runs(column):
    return 1 + sum(a is not b for a, b in zip(column, column[1:])) if column else 0


def test_relation_flags_repeat_one_object_per_flagged_element(tmp_path, monkeypatch):
    # the report writer encodes each run of one object once, so the scan
    # gives all rows of a flagged element its one word and gap object
    reports = []

    def kept_dump(obj, path):
        reports.append(obj)
        dump_json(obj, path)

    monkeypatch.setattr(cli, "dump_json", kept_dump)
    assert main(["domain", "--gens", "builtin:mixed-o21", "--radius", "5",
                 "--seed", "0", "--out", str(tmp_path)]) == 0
    flags = reports[0]["relation_flags"]
    assert len(flags) == 23655
    assert identity_runs(flags["word"]) == identity_runs(flags["min_gap"]) == \
        len(set(flags["word"])) == 315


@pytest.mark.parametrize("option", ["--samples", "--scan-points"])
def test_domain_with_no_points_to_decide(tmp_path, option):
    assert main(["domain", "--gens", "builtin:mixed-o21", "--radius", "4", option, "0",
                 "--seed", "0", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "domain.json"))
    assert report["sample_size"] > 0
    assert report["bad_set_hits"] == 0 and report["relation_flags"] == []
    assert report["interior_samples"] == (0 if option == "--samples" else 200)


def preset_args(tmp_path, name):
    """The small runs of tests/pins.json's tier-1 entries on each preset."""
    if name == "pingpong-o32":
        return ["--gens", write_gens(tmp_path / "gens.json", pingpong_o32(0)),
                "--form", "3,2", "--radius", "3"]
    return ["--gens", f"builtin:{name}", "--radius", "4"]


@pytest.mark.parametrize("name", ["mixed-o21", "pingpong-o32", "schottky-o21"])
def test_pinned_reports_are_the_bytes_of_json_dump(tmp_path, monkeypatch, name):
    written = []

    def checked_dump(obj, path):
        dump_json(obj, path)
        assert read(path) == json_dump_text(obj)
        written.append(os.path.basename(path))

    monkeypatch.setattr(cli, "dump_json", checked_dump)
    assert main(["domain", *preset_args(tmp_path, name), "--samples", "20",
                 "--out", str(tmp_path)]) == 0
    assert written == ["domain.json"]
