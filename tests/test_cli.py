"""End-to-end checks of the command-line interface.

Most tests call ``cli.run`` in-process and read stdout through capsys;
a few spawn real subprocesses to pin down exit codes, the single-line
error JSON on stderr, and byte-level determinism across thread counts.
"""

import json
import math
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from folia import braid, cli, formats, ode
from folia.errors import InputError, NumericError
from folia.poly import parse_poly

CIRCLE = '{"kind": "hamiltonian", "variables": ["x", "y"], "f": "1/2*x^2 + 1/2*y^2"}'
ROT = '{"kind": "form", "variables": ["x", "y"], "coefficients": ["-y", "x"]}'


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "circle.json"
    p.write_text(CIRCLE)
    return str(p)


@pytest.fixture
def rot_file(tmp_path):
    p = tmp_path / "rot.json"
    p.write_text(ROT)
    return str(p)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---- happy paths --------------------------------------------------------------


def test_sing_circle(capsys, circle_file):
    code, doc = run_json(capsys, ["sing", "--form", circle_file])
    assert code == 0
    assert isinstance(doc, list) and len(doc) == 1
    pt = doc[0]
    assert pt["class"] == "center_candidate"
    assert pt["x"] == [0.0, 0.0] and pt["y"] == [0.0, 0.0]
    assert abs(pt["eigenvalue_ratio"][0] + 1.0) < 1e-9


def test_melnikov_rotation_csv(capsys, circle_file, rot_file):
    code = cli.run(["melnikov", "--base", circle_file, "--pert", rot_file,
                    "--t0", "0.1", "--t1", "1", "--samples", "9",
                    "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,m1"
    assert len(lines) == 10
    for line in lines[1:]:
        t_s, v_s = line.split(",")
        t, v = float(t_s), float(v_s)
        assert abs(v - (-4.0 * math.pi * t)) <= 1e-6 * abs(4.0 * math.pi * t)


def test_melnikov_json_reports_multiplicity(capsys, circle_file, rot_file):
    code, doc = run_json(capsys, ["melnikov", "--base", circle_file,
                                  "--pert", rot_file, "--t0", "0.1",
                                  "--t1", "1", "--samples", "9"])
    assert code == 0
    assert doc["multiplicity"] == 1
    assert doc["identically_zero"] is False
    assert doc["center_level"] == 0.0
    assert len(doc["grid"]) == len(doc["m1"]) == 9


def test_melnikov_small_grid_skips_fit(capsys, circle_file, rot_file):
    code, doc = run_json(capsys, ["melnikov", "--base", circle_file,
                                  "--pert", rot_file, "--t0", "0.25",
                                  "--t1", "0.5", "--samples", "2"])
    assert code == 0
    assert doc["multiplicity"] is None
    assert abs(doc["m1"][0] - (-math.pi)) < 1e-6


def test_monodromy_command(capsys):
    code, doc = run_json(capsys, ["monodromy", "--p", "x^3 - 3*x"])
    assert code == 0
    assert doc["degree"] == 3 and doc["orbit_rank"] == 2
    cvs = sorted(cv[0] for cv in doc["critical_values"])
    assert abs(cvs[0] + 2.0) < 1e-10 and abs(cvs[1] - 2.0) < 1e-10
    assert all(abs(cv[1]) < 1e-10 for cv in doc["critical_values"])
    for op in doc["operators"]:
        for row in op["matrix"]:
            assert all(isinstance(e, int) for e in row)
    assert doc["cycle_at_infinity"] is None


def test_monodromy_with_fallbacks_prints_only_its_document(monkeypatch,
                                                           capsys):
    # a fiber some of whose continued samples fail their certificate and
    # are eigensolved again; a numpy warning would be an error here
    failed = []
    certify = braid._aberth_certified

    def count_failed(*args):
        ok = certify(*args)
        failed.append(int((~ok).sum()))
        return ok

    monkeypatch.setattr(braid, "_aberth_certified", count_failed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(["monodromy", "--p", "2*x^4 + x^3 - 6*x^2 + 5*x + 1"])
    out, err = capsys.readouterr()
    assert code == 0 and sum(failed) > 0
    assert err == ""
    assert out == formats.canonical_json(json.loads(out))
    assert json.loads(out)["orbit_rank"] == 3


def test_picard_fuchs_command(capsys):
    code, doc = run_json(capsys, ["picard-fuchs", "--p", "x^3 - 3*x"])
    assert code == 0
    assert doc["basis"] == ["dx/y", "x*dx/y"]
    assert doc["matrix"] == [
        ["(-1/6*t)/(t^2 - 4)", "(1/3)/(t^2 - 4)"],
        ["(-1/3)/(t^2 - 4)", "(1/6*t)/(t^2 - 4)"],
    ]


def test_picard_fuchs_basis_follows_var(capsys):
    # the basis is labelled in the letter of --var; the matrix is the same
    code, doc = run_json(capsys, ["picard-fuchs", "--p", "u^4 - 3*u + 1",
                                  "--var", "u"])
    assert code == 0
    assert doc["basis"] == ["du/y", "u*du/y", "u^2*du/y"]
    assert doc["p"] == "u^4 - 3*u + 1"
    _, ref = run_json(capsys, ["picard-fuchs", "--p", "x^4 - 3*x + 1"])
    assert ref["basis"] == ["dx/y", "x*dx/y", "x^2*dx/y"]
    assert doc["matrix"] == ref["matrix"]
    assert doc["critical_values"] == ref["critical_values"]


def test_picard_fuchs_refuses_the_letters_it_prints(monkeypatch, capsys):
    # t is the level in the matrix entries, y the fiber's other coordinate:
    # either as --var used to print a document that reads wrongly
    cases = [("t", "the level t in the matrix entries"),
             ("y", "y in the fiber y^2 = p + t and its basis")]
    for var, where in cases:
        argv = ["picard-fuchs", "--p", f"{var}^3 - 3*{var}", "--var", var]
        monkeypatch.setattr(sys, "argv", ["folia", *argv])
        with pytest.raises(SystemExit) as ei:
            cli.main()
        assert ei.value.code == 2, var
        out, err = capsys.readouterr()
        assert out == ""
        message = f"--var {var} clashes with {where}; choose another letter"
        assert err == json.dumps({"error": message, "exit_code": 2}) + "\n"


def test_brieskorn_command(capsys, tmp_path):
    w = tmp_path / "w.json"
    w.write_text('{"kind": "form", "variables": ["x", "y"],'
                 ' "coefficients": ["x^3*y", "0"]}')
    code, doc = run_json(capsys, ["brieskorn", "--m", "3", "--omega", str(w)])
    assert code == 0
    assert doc["basis"] == ["y*dx", "x*y*dx"]
    assert doc["coefficients"] == ["-2/11*t", "0"]


def test_log_census_writes_reusable_record(capsys, tmp_path):
    out = tmp_path / "tri.json"
    code, doc = run_json(capsys, [
        "log", "--factor", "x", "--factor", "y", "--factor", "1 - x - y",
        "--residue", "1", "--residue", "1", "--residue", "1",
        "--out", str(out)])
    assert code == 0
    assert doc["expected_centers"] == 1
    assert len(doc["centers"]) == 1 and len(doc["intersections"]) == 3
    assert doc["total"] == 4

    code2, pts = run_json(capsys, ["sing", "--form", str(out)])
    assert code2 == 0 and len(pts) == 4


def test_holonomy_level_sweep(capsys, circle_file):
    code, doc = run_json(capsys, ["holonomy", "--form", circle_file,
                                  "--t", "0.25", "--t", "0.5"])
    assert code == 0
    assert len(doc["samples"]) == 2
    for row in doc["samples"]:
        assert abs(row["defect"]) < 1e-8


def test_holonomy_seed_point_mode(capsys, circle_file):
    code, doc = run_json(capsys, ["holonomy", "--form", circle_file,
                                  "--seed-point", "1,0"])
    assert code == 0
    assert abs(doc["t"] - 0.5) < 1e-12
    assert abs(doc["defect"]) < 1e-8


def test_pullback_command(capsys, tmp_path):
    m = tmp_path / "map.json"
    m.write_text('{"kind": "map", "variables": ["x", "y", "z"],'
                 ' "components": ["x*y - z", "x + y + z"]}')
    f = tmp_path / "form.json"
    f.write_text('{"kind": "form", "variables": ["u", "v"],'
                 ' "coefficients": ["v", "u"]}')
    code, doc = run_json(capsys, ["pullback", "--map", str(m), "--form", str(f)])
    assert code == 0
    vs = tuple(doc["variables"])
    # the pullback of d(uv) is d((xy - z)(x + y + z))
    product = parse_poly("x*y - z", vs) * parse_poly("x + y + z", vs)
    for var_index, c in enumerate(doc["coefficients"]):
        assert parse_poly(c, vs) == product.diff(var_index)


def test_integrability_command(capsys, tmp_path):
    f = tmp_path / "w3.json"
    f.write_text('{"kind": "form", "variables": ["x", "y", "z"],'
                 ' "coefficients": ["y", "1", "1"]}')
    code, doc = run_json(capsys, ["integrability", "--form", str(f)])
    assert code == 0
    assert doc["integrable"] is False
    assert doc["obstruction"] == [{"indices": [0, 1, 2], "coefficient": "-1"}]


def test_dulac_command(capsys):
    code, doc = run_json(capsys, ["dulac", "--family", "A", "--index", "1",
                                  "--variables", "p,q"])
    assert code == 0
    assert doc["integral"] == "p*exp(q/p^1)"
    assert doc["clearing_factor"] == "p^2"


def test_classify_command(capsys, tmp_path):
    out = tmp_path / "tri.json"
    cli.run(["log", "--factor", "x", "--factor", "y",
             "--factor", "1 - x - y", "--out", str(out)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["classify", "--form", str(out),
                                  "--x", "1/3", "--y", "1/3"])
    assert code == 0
    assert doc["class"] == "center_candidate"


# ---- config files -------------------------------------------------------------


def test_config_supplies_required_flags(capsys, tmp_path, circle_file, rot_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t0": 0.1, "t1": 1.0, "samples": 9}')
    code, doc = run_json(capsys, ["melnikov", "--base", circle_file,
                                  "--pert", rot_file, "--config", str(cfg)])
    assert code == 0 and len(doc["grid"]) == 9


def test_explicit_flag_beats_config(capsys, tmp_path, circle_file, rot_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t0": 0.1, "t1": 1.0, "samples": 9}')
    code, doc = run_json(capsys, ["melnikov", "--base", circle_file,
                                  "--pert", rot_file, "--config", str(cfg),
                                  "--samples", "5"])
    assert code == 0 and len(doc["grid"]) == 5


def test_explicit_repeatable_flag_replaces_the_config_list(capsys, tmp_path,
                                                           circle_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t": [0.25]}')
    code, doc = run_json(capsys, ["holonomy", "--form", circle_file,
                                  "--config", str(cfg), "--t", "0.5"])
    assert code == 0 and [row["t"] for row in doc["samples"]] == [0.5]
    # without the flag the file's list stands
    code, doc = run_json(capsys, ["holonomy", "--form", circle_file,
                                  "--config", str(cfg)])
    assert code == 0 and [row["t"] for row in doc["samples"]] == [0.25]
    cfg.write_text('{"factor": ["x", "y"]}')
    code, doc = run_json(capsys, ["log", "--config", str(cfg),
                                  "--factor", "1 - x - y"])
    assert code == 0 and doc["factors"] == ["-x - y + 1"]
    # two explicit flags still both count
    code, doc = run_json(capsys, ["log", "--config", str(cfg),
                                  "--factor", "x", "--factor", "1 - x - y"])
    assert code == 0 and doc["factors"] == ["x", "-x - y + 1"]


def test_config_unknown_key_rejected(tmp_path, circle_file, rot_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tzero": 0.1}')
    with pytest.raises(InputError, match="unknown config key"):
        cli.run(["melnikov", "--base", circle_file, "--pert", rot_file,
                 "--config", str(cfg)])


def test_config_value_of_the_wrong_shape_rejected(tmp_path, circle_file,
                                                  rot_file):
    cfg = tmp_path / "cfg.json"
    # a list for a one-value flag
    cfg.write_text('{"t0": [0.1], "t1": 1, "samples": 3}')
    with pytest.raises(InputError, match="'t0' takes a single value"):
        cli.run(["melnikov", "--base", circle_file, "--pert", rot_file,
                 "--config", str(cfg)])
    # one value for a repeatable flag
    cfg.write_text('{"t": 0.25}')
    with pytest.raises(InputError, match="'t' takes a list of single values"):
        cli.run(["holonomy", "--form", circle_file, "--config", str(cfg)])
    cfg.write_text('{"t": [0.25, 0.5]}')
    assert cli.run(["holonomy", "--form", circle_file,
                    "--config", str(cfg)]) == 0


def test_config_value_of_the_wrong_type_rejected(capsys, tmp_path, circle_file,
                                                 rot_file):
    cfg = tmp_path / "cfg.json"
    melnikov = ["melnikov", "--base", circle_file, "--pert", rot_file]
    # a value is accepted only where the same flag on the command line
    # could have given it; 9.7 samples used to run 9, and true index 1
    cases = [
        (melnikov, '{"t0": 0.1, "t1": 1, "samples": 9.7}',
         "'samples' takes a single value (an integer)"),
        (melnikov, '{"t0": false, "t1": 1, "samples": 3}',
         "'t0' takes a single value (a number)"),
        (["dulac", "--family", "A"], '{"index": true}',
         "'index' takes a single value (an integer)"),
        (["holonomy", "--form", circle_file], '{"t": [0.25, true]}',
         "'t' takes a list of single values (each a number)"),
        (["sing", "--form", circle_file], '{"ratio_band": true}',
         "'ratio_band' takes a single value (a number)"),
        (["sing"], '{"form": null}', "'form' takes a single value (a string)"),
        (["log"], '{"factor": ["x", "y", 1]}',
         "'factor' takes a list of single values (each a string)"),
        (["dulac", "--family", "A", "--index", "1"], '{"format": "yaml"}',
         "'format' takes a single value ('json' or 'csv'), got 'yaml'"),
    ]
    for argv, text, message in cases:
        cfg.write_text(text)
        with pytest.raises(InputError, match=re.escape(message)):
            cli.run([*argv, "--config", str(cfg)])
    # an integer stands for a float flag, as it does on the command line
    cfg.write_text('{"t0": 0.1, "t1": 1, "samples": 3}')
    code, doc = run_json(capsys, [*melnikov, "--config", str(cfg)])
    assert code == 0 and len(doc["grid"]) == 3


# ---- errors and the input rules -------------------------------------------------


def test_unknown_command_rejected():
    with pytest.raises(InputError, match="unknown command"):
        cli.run(["frobnicate"])


def test_empty_argv_rejected():
    with pytest.raises(InputError, match="no command"):
        cli.run([])


def test_missing_required_flag():
    with pytest.raises(InputError, match="--samples"):
        cli.run(["melnikov", "--base", "a.json", "--pert", "b.json",
                 "--t0", "0", "--t1", "1"])


def test_malformed_file_reports_byte_offset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "hamiltonian", ')
    with pytest.raises(InputError, match="byte offset"):
        cli.run(["sing", "--form", str(bad)])


def test_unknown_record_keys_rejected(tmp_path):
    f = tmp_path / "r.json"
    f.write_text('{"kind": "hamiltonian", "variables": ["x", "y"],'
                 ' "f": "x", "extra": 1}')
    with pytest.raises(InputError, match="unknown keys"):
        cli.run(["sing", "--form", str(f)])


def test_numeric_failure_raises(tmp_path):
    sad = tmp_path / "sad.json"
    sad.write_text('{"kind": "plain", "variables": ["x", "y"],'
                   ' "P": "x", "Q": "y"}')
    with pytest.raises(NumericError):
        cli.run(["holonomy", "--form", str(sad), "--seed-point", "1,0"])


def test_csv_rejected_without_projection():
    with pytest.raises(InputError, match="tabular"):
        cli.run(["dulac", "--family", "B1", "--index", "1", "--format", "csv"])


def test_input_rules_on_argv(circle_file, rot_file):
    melnikov = ["melnikov", "--base", circle_file, "--pert", rot_file]
    cases = [
        (["sing", "--form", circle_file, "--ratio-band", "-1"], "positive"),
        (["sing", "--form", circle_file, "--format", "yaml"], "format"),
        (["bogus"], "unknown command"),
        (["holonomy", "--form", circle_file], "nonempty"),
        ([*melnikov, "--t0", "1", "--t1", "0.5", "--samples", "3"],
         "strictly increasing"),
        (["holonomy", "--form", circle_file, "--seed-point", "1,0",
          "--holonomy-rtol", "inf"], "finite"),
        (["holonomy", "--form", circle_file, "--t", "0.5", "--t", "nan"],
         "finite"),
        ([*melnikov, "--t0=-1e308", "--t1", "1e308", "--samples", "3"],
         "finite"),
    ]
    for argv, message in cases:
        with pytest.raises(InputError, match=message):
            cli.run(argv)


def test_each_input_rule_prints_its_own_json_line(monkeypatch, capsys,
                                                  tmp_path, circle_file,
                                                  rot_file):
    melnikov = ["melnikov", "--base", circle_file, "--pert", rot_file]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ratio_band": 0}')
    floor = "at least 2.220446049250313e-14 (100 machine epsilons)"
    cases = [
        ([*melnikov, "--t0=-1e308", "--t1", "1e308", "--samples", "3"],
         "the level grid must be finite"),
        ([*melnikov, "--t0", "1", "--t1", "0.5", "--samples", "3"],
         "the level grid must be strictly increasing"),
        ([*melnikov, "--t0", "0.5", "--t1", "0.5", "--samples", "3"],
         "the level grid must be strictly increasing"),
        # a missing base file: the grid is checked before any file is read
        (["melnikov", "--base", str(tmp_path / "none.json"), "--pert",
          rot_file, "--t0", "1", "--t1", "0.5", "--samples", "3"],
         "the level grid must be strictly increasing"),
        ([*melnikov, "--t0", "0.1", "--t1", "1", "--samples", "1"],
         "need at least 2 samples"),
        ([*melnikov, "--t0", "0.1", "--t1", "1", "--samples", "4097"],
         "--samples must be at most 4096, got 4097"),
        ([*melnikov, "--t0", "0.1", "--t1", "1", "--samples", "5",
          "--quadrature-rel-tol", "0"],
         "quadrature_rel_tol must be a positive finite number, got 0.0"),
        (["sing", "--form", circle_file, "--ratio-band", "0"],
         "ratio_band must be a positive finite number, got 0.0"),
        (["sing", "--form", circle_file, "--config", str(cfg)],
         "ratio_band must be a positive finite number, got 0.0"),
        (["sing", "--form", circle_file, "--root-residual-tol", "-1"],
         "root_residual_tol must be a positive finite number, got -1.0"),
        (["holonomy", "--form", circle_file, "--seed-point", "1,0",
          "--holonomy-rtol", "1e-16"],
         f"holonomy_rtol must be {floor}, got 1e-16"),
        (["holonomy", "--form", circle_file],
         "holonomy needs a nonempty level grid"),
        (["holonomy", "--form", str(tmp_path / "none.json")],
         "holonomy needs a nonempty level grid"),
        (["holonomy", "--form", circle_file, "--t", "0.5",
          "--seed-point", "1,0"],
         "pass either --t levels or --seed-point, not both"),
        (["dulac", "--family", "B1", "--index", "1", "--format", "yaml"],
         "argument --format: invalid choice: 'yaml' (choose from 'json', 'csv')"),
    ]
    for argv, message in cases:
        monkeypatch.setattr(sys, "argv", ["folia", *argv])
        with pytest.raises(SystemExit) as ei:
            cli.main()
        assert ei.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": message, "exit_code": 2}) + "\n"


def test_holonomy_seed_point_refuses_the_sweep_flags(monkeypatch, capsys,
                                                    tmp_path, circle_file):
    # --center and --direction place the cycles of a level sweep; with
    # --seed-point they used to be accepted and ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"center": "5,5"}')
    missing = str(tmp_path / "none.json")
    cases = [
        (["--center", "5,5", "--direction", "0,1"], "--center and --direction"),
        (["--center", "5,5"], "--center"),
        (["--direction", "0,1"], "--direction"),
        (["--config", str(cfg)], "--center"),
    ]
    for extra, named in cases:
        for form in (circle_file, missing):    # checked before the file is read
            argv = ["holonomy", "--form", form, "--seed-point", "1,0", *extra]
            monkeypatch.setattr(sys, "argv", ["folia", *argv])
            with pytest.raises(SystemExit) as ei:
                cli.main()
            assert ei.value.code == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            message = (f"--seed-point traces one given cycle; drop {named}, "
                       "used only by --t level sweeps")
            assert err == json.dumps({"error": message, "exit_code": 2}) + "\n"


def test_selftest_refuses_config_without_opening_it(monkeypatch, capsys,
                                                    tmp_path):
    # a valid file, a bad key and a missing file used to give three errors
    valid = tmp_path / "valid.json"
    valid.write_text('{"criteria": "7"}')
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"bogus": 1}')
    opened = []
    monkeypatch.setattr(formats, "load_json_file", opened.append)
    for extra in (["--config", str(valid)], ["--config", str(bogus)],
                  ["--config", str(tmp_path / "none.json")],
                  [f"--config={valid}"], ["--criteria", "7", "--config"]):
        monkeypatch.setattr(sys, "argv", ["folia", "selftest", *extra])
        with pytest.raises(SystemExit) as ei:
            cli.main()
        assert ei.value.code == 2, extra
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": "selftest takes no --config",
                                  "exit_code": 2}) + "\n"
    assert opened == []


def test_tolerance_flags_belong_to_their_commands():
    _, parsers = cli._build_parsers()
    takers = {flag: {name for name, p in parsers.items()
                     if flag in p._option_string_actions}
              for flag in ("--root-residual-tol", "--ratio-band",
                           "--quadrature-rel-tol", "--holonomy-rtol", "--seed")}
    assert takers == {"--root-residual-tol": {"sing"},
                      "--ratio-band": {"sing", "classify", "log"},
                      "--quadrature-rel-tol": {"melnikov"},
                      "--holonomy-rtol": {"holonomy"},
                      "--seed": set()}


def test_tolerance_flag_on_other_command_rejected(tmp_path):
    with pytest.raises(InputError, match="--ratio-band"):
        cli.run(["monodromy", "--p", "x^3 - 3*x", "--ratio-band", "1"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ratio_band": 1}')
    with pytest.raises(InputError, match="unknown config key"):
        cli.run(["monodromy", "--p", "x^3 - 3*x", "--config", str(cfg)])


@pytest.mark.parametrize("argv", [
    ["holonomy", "--t", "nan"],
    ["holonomy", "--t", "0.5", "--holonomy-rtol", "inf"],
    ["holonomy", "--t", "0.5", "--center", "0,inf"],
    ["holonomy", "--seed-point", "1e400,0"],
    ["classify", "--x", "inf", "--y", "0"],
    ["classify", "--x", "1/3", "--y", "nan"],
    ["sing", "--ratio-band", "nan"],
])
def test_non_finite_numbers_are_bad_input(circle_file, argv):
    with pytest.raises(InputError, match="finite"):
        cli.run([argv[0], "--form", circle_file, *argv[1:]])


def test_non_finite_config_value_rejected(tmp_path, circle_file, rot_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t0": 0.1, "t1": Infinity, "samples": 3}')
    with pytest.raises(InputError, match="finite"):
        cli.run(["melnikov", "--base", circle_file, "--pert", rot_file,
                 "--config", str(cfg)])


def test_non_finite_residue_in_record_rejected(tmp_path):
    f = tmp_path / "r.json"
    f.write_text('{"kind": "logarithmic", "variables": ["x", "y"],'
                 ' "factors": ["x", "y"], "residues": [1, NaN]}')
    with pytest.raises(InputError, match="finite"):
        cli.run(["sing", "--form", str(f)])


def test_sing_gate_is_relative_to_the_field_scale(capsys, tmp_path):
    # coefficients in the tens put the vertex (-1/4, 37/4) at an absolute
    # residual of about 6e-7, well within the finder's relative acceptance
    rec = tmp_path / "t.json"
    cli.run(["log", "--factor", "4*x + 1", "--factor", "y - 4",
             "--factor", "x + y - 9", "--residue", "1", "--residue", "3",
             "--residue", "4", "--out", str(rec)])
    capsys.readouterr()
    code, pts = run_json(capsys, ["sing", "--form", str(rec)])
    assert code == 0
    assert any(abs(p["x"][0] + 0.25) < 1e-6 and abs(p["y"][0] - 9.25) < 1e-6
               for p in pts)


def test_parse_budget_refuses_huge_powers_quickly():
    t0 = time.perf_counter()
    with pytest.raises(InputError, match="budget"):
        cli.run(["monodromy", "--p", "(x+1)^40000"])
    assert time.perf_counter() - t0 < 1.0


def test_melnikov_samples_are_bounded(monkeypatch, capsys, circle_file,
                                      rot_file):
    argv = ["melnikov", "--base", circle_file, "--pert", rot_file,
            "--t0", "0.1", "--t1", "1", "--samples", str(10**12)]
    monkeypatch.setattr(sys, "argv", ["folia", *argv])
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert time.perf_counter() - t0 < 1.0
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["exit_code"] == 2
    assert "--samples" in doc["error"] and str(cli.MAX_SAMPLES) in doc["error"]


def test_main_maps_unexpected_exceptions_to_exit_3(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "_cmd_monodromy", boom)
    monkeypatch.setattr(sys, "argv", ["folia", "monodromy", "--p", "x^3 - 3*x"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    doc = json.loads(err)
    assert doc["exit_code"] == 3 and "RuntimeError: unexpected" in doc["error"]


# ---- subprocess-level contracts -------------------------------------------------


def _spawn(args, **kw):
    return subprocess.run([sys.executable, "-m", "folia", *args],
                          capture_output=True, text=True, timeout=600, **kw)


def test_exit_codes_and_error_json(tmp_path):
    r = _spawn(["frobnicate"])
    assert r.returncode == 2
    err_lines = r.stderr.strip().splitlines()
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert doc["exit_code"] == 2 and "unknown command" in doc["error"]

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    r = _spawn(["sing", "--form", str(bad)])
    assert r.returncode == 2
    doc = json.loads(r.stderr.strip())
    assert "byte offset" in doc["error"]

    sad = tmp_path / "sad.json"
    sad.write_text('{"kind": "plain", "variables": ["x", "y"],'
                   ' "P": "x", "Q": "y"}')
    r = _spawn(["holonomy", "--form", str(sad), "--seed-point", "1,0"])
    assert r.returncode == 3
    doc = json.loads(r.stderr.strip())
    assert doc["exit_code"] == 3


def test_non_finite_flags_exit_2_with_one_json_line(circle_file):
    for argv in (["classify", "--form", circle_file, "--x", "inf", "--y", "0"],
                 ["holonomy", "--form", circle_file, "--t", "nan"]):
        r = _spawn(argv)
        assert r.returncode == 2 and r.stdout == ""
        err_lines = r.stderr.strip().splitlines()
        assert len(err_lines) == 1
        assert json.loads(err_lines[0])["exit_code"] == 2


def _one_json_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return json.loads(lines[0])


def test_numeric_warnings_never_reach_stderr(circle_file):
    # the integrator overflows on the way to its step-size failure
    r = _spawn(["holonomy", "--form", circle_file, "--seed-point", "1e200,0"])
    assert r.returncode == 3 and r.stdout == ""
    assert _one_json_line(r.stderr)["exit_code"] == 3


def test_config_value_is_never_opened_as_a_file_descriptor(tmp_path):
    # {"form": 0} used to read the record from stdin, {"form": true} fd 1
    cfg = tmp_path / "cfg.json"
    for value in ("0", "true"):
        cfg.write_text('{"form": %s}' % value)
        r = _spawn(["sing", "--config", str(cfg)], input=CIRCLE)
        assert r.returncode == 2 and r.stdout == ""
        doc = _one_json_line(r.stderr)
        assert "'form' takes a single value (a string)" in doc["error"]


def test_brieskorn_m_above_the_parser_budget_exits_2_at_once(capsys, tmp_path):
    # m = 2,000,000 used to run for 38 s and print 61 MB
    w = tmp_path / "w.json"
    w.write_text('{"kind": "form", "variables": ["x", "y"],'
                 ' "coefficients": ["x^3*y", "0"]}')
    t0 = time.perf_counter()
    r = _spawn(["brieskorn", "--m", "2000000", "--omega", str(w)])
    assert time.perf_counter() - t0 < 1.0
    assert r.returncode == 2 and r.stdout == ""
    doc = _one_json_line(r.stderr)
    assert doc["exit_code"] == 2 and "m <= 24" in doc["error"]
    code, doc = run_json(capsys, ["brieskorn", "--m", "24", "--omega", str(w)])
    assert code == 0 and len(doc["basis"]) == 23


def test_holonomy_rtol_below_the_integrator_floor_exits_2(circle_file):
    # the integrator would clamp it, with a warning, and exit 0
    r = _spawn(["holonomy", "--form", circle_file, "--seed-point", "1,0",
                "--holonomy-rtol", "1e-16"])
    assert r.returncode == 2 and r.stdout == ""
    doc = _one_json_line(r.stderr)
    assert doc["exit_code"] == 2
    assert "holonomy_rtol" in doc["error"]
    assert repr(ode.MIN_RTOL) in doc["error"]


def test_holonomy_rtol_at_the_floor_is_accepted(capsys, circle_file):
    assert 2.3e-14 > ode.MIN_RTOL
    code, doc = run_json(capsys, ["holonomy", "--form", circle_file,
                                  "--seed-point", "1,0",
                                  "--holonomy-rtol", "2.3e-14"])
    assert code == 0 and abs(doc["defect"]) < 1e-8
    with pytest.raises(InputError, match="holonomy_rtol"):
        cli.run(["holonomy", "--form", circle_file, "--seed-point", "1,0",
                 "--holonomy-rtol", "2.2e-14"])


def test_output_bytes_independent_of_thread_env(tmp_path):
    outs = []
    for _ in range(2):
        r = _spawn(["monodromy", "--p", "x^5 - 4*x^3 + x + 1"])
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["orbit_rank"] == 4


_SCIPY_PROBE = """
import contextlib, io, json, sys
import folia, folia.cli
from folia import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert not scipy_modules(), "importing folia loaded scipy"
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0, argv
    assert not scipy_modules(), argv[0] + " loaded scipy"
    if argv[0] in ("holonomy", "melnikov"):
        print(out.getvalue(), end="")
"""


def _computing_argvs(tmp_path, circle_file, rot_file):
    """One or more argvs per computing command, on small inputs."""
    files = {
        "w.json": '{"kind": "form", "variables": ["x", "y"],'
                  ' "coefficients": ["x^3*y", "0"]}',
        "map.json": '{"kind": "map", "variables": ["x", "y", "z"],'
                    ' "components": ["x*y - z", "x + y + z"]}',
        "form.json": '{"kind": "form", "variables": ["u", "v"],'
                     ' "coefficients": ["v", "u"]}',
        "w3.json": '{"kind": "form", "variables": ["x", "y", "z"],'
                   ' "coefficients": ["y", "1", "1"]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    f = {name: str(tmp_path / name) for name in (*files, "tri.json")}
    return [
        ["picard-fuchs", "--p", "x^3 - 3*x"],
        ["brieskorn", "--m", "3", "--omega", f["w.json"]],
        ["pullback", "--map", f["map.json"], "--form", f["form.json"]],
        ["integrability", "--form", f["w3.json"]],
        ["dulac", "--family", "A", "--index", "1", "--variables", "p,q"],
        ["monodromy", "--p", "x^3 - 3*x"],
        # the tracker bisects on this fiber
        ["monodromy", "--p", "2*x^6 - 2*x^5 - 2*x^4 - 4*x^3 - 4*x^2 - 1"],
        ["sing", "--form", circle_file],
        ["log", "--factor", "x", "--factor", "y", "--factor", "1 - x - y",
         "--residue", "1", "--residue", "1", "--residue", "1",
         "--out", f["tri.json"]],
        ["classify", "--form", f["tri.json"], "--x", "1/3", "--y", "1/3"],
        ["holonomy", "--form", circle_file, "--t", "0.25", "--t", "0.5"],
        ["melnikov", "--base", circle_file, "--pert", rot_file,
         "--t0", "0.1", "--t1", "1", "--samples", "9"],
    ]


def test_computing_commands_never_load_scipy(capsys, tmp_path, circle_file,
                                             rot_file):
    argvs = _computing_argvs(tmp_path, circle_file, rot_file)
    holonomy, melnikov = argvs[-2:]
    # every computing command is probed; only selftest may load scipy
    _, parsers = cli._build_parsers()
    assert {argv[0] for argv in argvs} == set(parsers) - {"selftest"}
    r = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argvs)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert cli.run(holonomy) == 0
    assert cli.run(melnikov) == 0
    assert r.stdout == capsys.readouterr().out


_MODULES_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.startswith("folia."))

import folia
package = loaded()
from folia import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(json.loads(sys.argv[1])) == 0
print(json.dumps({"package": package, "command": loaded()}))
"""


def test_each_command_loads_only_what_it_runs(tmp_path, circle_file, rot_file):
    argvs = _computing_argvs(tmp_path, circle_file, rot_file)
    # the log run writes the record that classify reads
    loaded = {}
    for argv in argvs:
        if argv[0] in loaded:
            continue
        r = subprocess.run([sys.executable, "-c", _MODULES_PROBE,
                            json.dumps(argv)],
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["package"] == [], "import folia loaded " + str(doc["package"])
        loaded[argv[0]] = set(doc["command"])
    for command, modules in loaded.items():
        assert "folia.acceptance" not in modules, command
        if command in ("dulac", "pullback", "integrability", "brieskorn"):
            assert "numpy" not in modules, command
    assert not {"folia.flow", "folia.gaussmanin"} & loaded["monodromy"]


def test_selftest_subset_deterministic():
    a = _spawn(["selftest", "--criteria", "7,8"])
    b = _spawn(["selftest", "--criteria", "7,8"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert "criterion 7 PASS" in a.stdout and "criterion 8 PASS" in a.stdout


# ---- one parser per run ---------------------------------------------------------

HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help_golden.json"


def test_help_texts_match_the_record(capsys, monkeypatch):
    # the top-level help lists every command; each command's help shows
    # its own flags; none may change when a run builds only its parser
    monkeypatch.setenv("COLUMNS", "80")
    texts = json.loads(HELP_GOLDEN.read_text())["texts"]
    assert set(texts) == {"--help"} | {f"{c} --help" for c in cli.COMMANDS}
    for argv, text in texts.items():
        with pytest.raises(SystemExit) as ei:
            cli.run(argv.split())
        assert ei.value.code == 0
        assert capsys.readouterr().out == text, argv


def test_each_run_builds_only_its_own_parser(monkeypatch, capsys):
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kw):
        progs.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert cli.run(["picard-fuchs", "--p", "x^3 - 3*x"]) == 0
    assert progs == ["folia", "folia picard-fuchs"]
    progs.clear()
    _, parsers = cli._build_parsers()
    assert list(parsers) == list(cli.COMMANDS)
    assert progs == ["folia"] + [f"folia {c}" for c in cli.COMMANDS]


def test_a_config_run_leaves_the_next_run_fresh(capsys, tmp_path):
    # _apply_config edits the subparser's defaults and required flags;
    # the plain run after it must print what a fresh process prints
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family": "A", "index": 2, "variables": "p,q"}')
    assert cli.run(["dulac", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["variables"] == ["p", "q"]
    plain = ["dulac", "--family", "B1", "--index", "1"]
    assert cli.run(plain) == 0
    fresh = _spawn(plain)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout
    assert json.loads(fresh.stdout)["variables"] == ["x", "y"]
    with pytest.raises(InputError, match="required: --family"):
        cli.run(["dulac", "--index", "1"])
