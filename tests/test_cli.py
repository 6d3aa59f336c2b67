"""Serialization formats and the command-line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qebundle
from qebundle import SolverConfig, reconstruct_t, solve, spec_to_dict, verify
from qebundle.cli import main
from qebundle.output import (
    csv_header,
    dump_json,
    load_json,
    profile_table,
    read_csv,
    report_from_dict,
    report_to_dict,
    solution_from_dict,
    solution_to_dict,
    write_csv,
    write_svg,
)

REF_DOC = {
    "factors": [{"n": 2, "p": 3, "q": 1}],
    "m": 2.0,
    "left": "collapse",
    "right": "collapse",
}

BLOW_DOC = {
    "factors": [{"n": 1, "p": 2, "q": 1}, {"n": 1, "p": 3, "q": 1}],
    "m": 2.0,
    "left": "blowdown",
    "right": "collapse",
}


MIXED_FACTORS = [{"n": 1, "p": 8, "q": 3}, {"n": 4, "p": 3, "q": 2}]


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(REF_DOC))
    return str(path)


@pytest.fixture()
def solution_file(tmp_path, spec_file):
    out = tmp_path / "sol.json"
    assert main(["solve", spec_file, "-o", str(out)]) == 0
    return str(out)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


def test_solution_round_trip(ref_profile, ref_spec, tmp_path):
    cfg = SolverConfig()
    doc = solution_to_dict(ref_profile, ref_spec, cfg)
    path = str(tmp_path / "sol.json")
    dump_json(doc, path)
    spec2, prof2, cfg2 = solution_from_dict(load_json(path))
    assert spec2 == ref_spec
    assert cfg2 == cfg
    assert prof2 == ref_profile  # float repr round-trips exactly


def test_report_round_trip(ref_report, tmp_path):
    doc = report_to_dict(ref_report)
    path = str(tmp_path / "rep.json")
    dump_json(doc, path)
    rep2 = report_from_dict(load_json(path))
    assert rep2.certified == ref_report.certified
    assert rep2.checks == ref_report.checks
    assert np.array_equal(rep2.grid, ref_report.grid)
    assert np.array_equal(rep2.res_25, ref_report.res_25)


SOLUTION_KEYS = [
    "spec",
    "config",
    "params",
    "defect_at_root",
    "bracket_used",
    "all_sign_changes",
    "roots",
    "convention",
]
CONFIG_KEYS = ["bracket", "scan_points", "root_tol"]
PARAMS_KEYS = ["kappa0", "kappa1", "E", "mu", "s_star", "A"]
REPORT_KEYS = [
    "grid",
    "res_25",
    "res_26",
    "res_27",
    "mu_samples",
    "mu_dev",
    "ansatz_res",
    "boundary",
    "positivity_ok",
    "positivity_violation",
    "fd_check",
    "checks",
    "certified",
]


@pytest.fixture()
def report_file(tmp_path, solution_file):
    out = tmp_path / "report.json"
    assert main(["verify", solution_file, "--grid", "64", "-o", str(out)]) == 0
    return out


def test_solution_and_report_key_order(solution_file, report_file):
    # The keys follow the dataclass fields, so reordering a field
    # reorders the file; these lists pin the format.
    doc = load_json(solution_file)
    assert list(doc) == SOLUTION_KEYS
    assert list(doc["config"]) == CONFIG_KEYS
    assert list(doc["params"]) == PARAMS_KEYS
    assert list(load_json(report_file)) == REPORT_KEYS


def test_verify_ignores_quadrature_settings_in_the_file(solution_file, report_file, tmp_path):
    # solution files written before the quadrature knobs were removed
    # carry them in "config"; they load, and cannot widen the defect check
    doc = load_json(solution_file)
    doc["config"].update(quad_rel_tol=1.0, max_subdivisions=1)
    old = tmp_path / "old_format.json"
    dump_json(doc, str(old))
    out = tmp_path / "old_report.json"
    assert main(["verify", str(old), "--grid", "64", "-o", str(out)]) == 0
    want = load_json(report_file)["checks"]["defect_at_root"]
    assert load_json(out)["checks"]["defect_at_root"] == want
    assert want["tol"] < 1e-5


def test_cli_files_reserialize_byte_for_byte(solution_file, report_file, tmp_path):
    spec, profile, config = solution_from_dict(load_json(solution_file))
    again = tmp_path / "again.json"
    dump_json(solution_to_dict(profile, spec, config), str(again))
    assert again.read_bytes() == Path(solution_file).read_bytes()
    dump_json(report_to_dict(report_from_dict(load_json(report_file))), str(again))
    assert again.read_bytes() == report_file.read_bytes()


def test_csv_header_shape():
    assert csv_header(1) == "s,alpha,alpha_prime,beta_1,phi,V,t,f,g_1,v,u"
    assert (
        csv_header(2) == "s,alpha,alpha_prime,beta_1,beta_2,phi,V,t,f,g_1,g_2,v,u"
    )


def test_csv_round_trip(ref_profile, ref_spec, tmp_path):
    mp = reconstruct_t(ref_profile.params, ref_spec, grid_size=65)
    cols = profile_table(ref_profile.params, ref_spec, mp)
    path = str(tmp_path / "prof.csv")
    write_csv(path, ref_profile.params, ref_spec, mp)
    header2, data2 = read_csv(path)
    assert header2 == csv_header(ref_spec.r)
    # repr-based float serialization round-trips bit exactly
    assert np.array_equal(data2, np.column_stack(cols))


def test_csv_boundary_rows(ref_profile, ref_spec, tmp_path):
    mp = reconstruct_t(ref_profile.params, ref_spec, grid_size=65)
    cols_names = csv_header(ref_spec.r).split(",")
    data = np.column_stack(profile_table(ref_profile.params, ref_spec, mp))
    first, last = data[0], data[-1]
    assert first[cols_names.index("s")] == 0.0
    assert first[cols_names.index("alpha")] == 0.0
    assert first[cols_names.index("f")] == 0.0
    # endpoint slopes come from the extrapolation, not the singular ODE
    assert first[cols_names.index("alpha_prime")] == pytest.approx(2.0, abs=1e-6)
    assert last[cols_names.index("alpha_prime")] == pytest.approx(-2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# CLI: validate
# ---------------------------------------------------------------------------


def test_cli_validate_ok(spec_file, capsys):
    assert main(["validate", spec_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(REF_DOC, factors=[{"n": 1, "p": 2, "q": 2}])))
    assert main(["validate", str(path)]) == 2
    assert "|q|" in capsys.readouterr().err


def test_cli_validate_infinite_m(tmp_path, capsys):
    # json reads the non-standard literal Infinity as float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(REF_DOC, m=float("inf"))))
    assert "Infinity" in path.read_text()
    assert main(["validate", str(path)]) == 2
    assert "m must be finite" in capsys.readouterr().err


def test_cli_validate_malformed_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(REF_DOC, typo=1)))
    assert main(["validate", str(path)]) == 2


def test_cli_validate_null_m(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text(json.dumps(dict(REF_DOC, m=None)))
    assert main(["validate", str(path)]) == 2
    assert "'m' must be a number" in capsys.readouterr().err


def test_cli_missing_file_is_internal_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


# ---------------------------------------------------------------------------
# CLI: solve
# ---------------------------------------------------------------------------


def test_cli_solve_writes_solution(solution_file):
    doc = load_json(solution_file)
    assert doc["spec"] == REF_DOC
    assert doc["params"]["kappa0"] == pytest.approx(8.2778212457685338, abs=1e-10)
    assert doc["params"]["s_star"] == pytest.approx(4.0, abs=1e-12)
    assert "convention" in doc


def test_cli_solve_is_deterministic(tmp_path, spec_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", spec_file, "-o", str(out1)]) == 0
    assert main(["solve", spec_file, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_solve_m_override(tmp_path, spec_file):
    out = tmp_path / "m4.json"
    assert main(["solve", spec_file, "--m", "4", "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["spec"]["m"] == 4.0
    assert doc["params"]["s_star"] == pytest.approx(4.0, abs=1e-12)


def test_cli_solve_no_root_exit_code(tmp_path, spec_file):
    out = tmp_path / "none.json"
    code = main(
        ["solve", spec_file, "--root-signs", "+", "--scan-points", "16", "-o", str(out)]
    )
    assert code == 3
    assert not out.exists()


def test_cli_solve_mixed_root_signs(tmp_path, capsys):
    # a non-default choice that solves and certifies: factor 1 on the
    # positive root, factor 2 on the default negative one; with both on
    # the positive root the defect has no sign change
    spec = tmp_path / "mixed.json"
    spec.write_text(json.dumps(dict(REF_DOC, factors=MIXED_FACTORS, m=4.0)))
    out = tmp_path / "mixed-sol.json"
    assert main(["solve", str(spec), "--root-signs", "+,-", "-o", str(out)]) == 0
    params = load_json(out)["params"]
    assert params["kappa0"] == pytest.approx(4.960471058319642, abs=1e-10)
    assert params["A"][0] > 0.0 > params["A"][1]
    assert main(["verify", str(out)]) == 0
    assert "certified" in capsys.readouterr().err
    none = tmp_path / "none.json"
    assert main(["solve", str(spec), "--root-signs", "+,+", "-o", str(none)]) == 3
    assert not none.exists()


def test_cli_solve_root_signs_starting_with_minus(tmp_path, spec_file, capsys, monkeypatch):
    # a value starting with - reads as an option unless attached with =;
    # a wide terminal keeps argparse from wrapping the help at a hyphen
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert "a list starting with - must be written --root-signs=-,+" in capsys.readouterr().out
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    assert main(["solve", spec_file, "-o", str(default)]) == 0
    assert main(["solve", spec_file, "--root-signs=-", "-o", str(explicit)]) == 0
    assert explicit.read_bytes() == default.read_bytes()


def test_cli_solve_invalid_spec_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(REF_DOC, m=0.5)))
    assert main(["solve", str(path), "-o", str(tmp_path / "o.json")]) == 2


def test_cli_solve_bracket_flag(tmp_path, spec_file):
    out = tmp_path / "narrow.json"
    assert main(["solve", spec_file, "--bracket", "5:20", "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["config"]["bracket"] == [5.0, 20.0]
    assert doc["bracket_used"] == [5.0, 20.0]


def test_cli_solve_infinite_bracket_is_rejected(tmp_path, spec_file, capsys):
    out = tmp_path / "inf.json"
    assert main(["solve", spec_file, "--bracket", "1e-3:inf", "-o", str(out)]) == 2
    assert "bracket" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------


def test_cli_verify_certifies(solution_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", solution_file, "--grid", "64", "-o", str(out)]) == 0
    printed = capsys.readouterr().err
    assert "certified" in printed
    assert printed.count("pass") >= 10
    doc = load_json(out)
    assert doc["certified"] is True


def test_cli_verify_tampered_solution_fails(solution_file, tmp_path, capsys):
    doc = load_json(solution_file)
    doc["params"]["kappa0"] += 1e-3
    tampered = tmp_path / "tampered.json"
    dump_json(doc, str(tampered))
    assert main(["verify", str(tampered), "--grid", "64"]) == 4
    assert "FAIL" in capsys.readouterr().err


def test_cli_verify_nonpositive_beta_is_not_certified(solution_file, tmp_path, capsys):
    doc = load_json(solution_file)
    doc["params"]["A"] = [1e-4]
    bad = tmp_path / "bad_beta.json"
    dump_json(doc, str(bad))
    assert main(["verify", str(bad), "--grid", "64"]) == 4
    assert "certification FAILED: beta_1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: profile
# ---------------------------------------------------------------------------


def test_cli_profile_outputs(solution_file, tmp_path):
    csv_path, svg_path = tmp_path / "p.csv", tmp_path / "p.svg"
    code = main(
        [
            "profile",
            solution_file,
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
            "--grid",
            "65",
        ]
    )
    assert code == 0
    header, rows = read_csv(str(csv_path))
    assert header == csv_header(1)
    assert len(rows) == 65
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_cli_profile_nonpositive_beta_is_not_certified(solution_file, tmp_path, capsys):
    doc = load_json(solution_file)
    doc["params"]["A"] = [1e-4]
    bad = tmp_path / "bad_beta.json"
    dump_json(doc, str(bad))
    csv_path, svg_path = tmp_path / "p.csv", tmp_path / "p.svg"
    code = main(["profile", str(bad), "--csv", str(csv_path), "--svg", str(svg_path)])
    assert code == 4
    assert "profile FAILED" in capsys.readouterr().err
    assert not csv_path.exists() and not svg_path.exists()


def test_cli_profile_does_not_run_the_certification(solution_file, tmp_path, monkeypatch):
    # the SVG residual panel samples the residuals itself; verify is not called
    want, got = tmp_path / "want.svg", tmp_path / "got.svg"
    assert main(["profile", solution_file, "--svg", str(want), "--grid", "65"]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("qe profile ran verify")

    monkeypatch.setattr(qebundle.verifier, "verify", refuse)
    assert main(["profile", solution_file, "--svg", str(got), "--grid", "65"]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_cli_profile_is_deterministic(solution_file, tmp_path):
    paths = [(tmp_path / f"{k}.csv", tmp_path / f"{k}.svg") for k in "ab"]
    for csv_path, svg_path in paths:
        main(
            [
                "profile",
                solution_file,
                "--csv",
                str(csv_path),
                "--svg",
                str(svg_path),
                "--grid",
                "65",
            ]
        )
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


# ---------------------------------------------------------------------------
# CLI: reproduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", ["no-blowdown-length", "hall-interval-formula", "blowdown-consistency"]
)
def test_cli_reproduce_cases_pass(case, capsys):
    assert main(["reproduce", case]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_cli_reproduce_unknown_case():
    with pytest.raises(SystemExit):
        main(["reproduce", "unknown-case"])


# ---------------------------------------------------------------------------
# Console script installation
# ---------------------------------------------------------------------------


def test_console_script_on_path(spec_file, tmp_path):
    """Run ``qe`` as its own process, through this checkout's entry point.

    The launcher is written the way an installer would write it, from the
    ``[project.scripts]`` table of this checkout's ``pyproject.toml``, so the
    test needs no install and cannot pick up a ``qe`` from elsewhere.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["qe"]
    module, func = entry.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "qe"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    src_root = str(Path(qebundle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        ["qe", "validate", spec_file], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_blowdown_solution_through_cli(tmp_path, capsys):
    spec_path = tmp_path / "blow.json"
    spec_path.write_text(json.dumps(BLOW_DOC))
    out = tmp_path / "sol.json"
    assert main(["solve", str(spec_path), "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["params"]["kappa0"] == pytest.approx(20.842223363325445, abs=1e-10)
    assert main(["verify", str(out), "--grid", "64"]) == 0
