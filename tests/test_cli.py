"""Serialization formats and the command-line entry points."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qebundle
from qebundle import (
    SolverConfig,
    ansatz_residual,
    chebyshev_grid,
    mu_of_s,
    reconstruct_t,
    residual_25,
    residual_26,
    residual_27,
    sample_at,
    solve,
    spec_to_dict,
    verify,
)
from qebundle import cli
from qebundle import output as io
from qebundle.cli import main
from qebundle.output import (
    csv_header,
    dump_json,
    load_json,
    profile_table,
    read_csv,
    render_svg,
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
    assert rep2 == ref_report  # float repr round-trips exactly


def test_report_from_an_older_version_loads(ref_profile, ref_spec):
    # reports written before margins, in this key order, carried six
    # sampled arrays and checks of value, tol and passed only; the arrays
    # are ignored on read
    new = report_to_dict(verify(ref_profile, ref_spec, grid_size=16))
    s_star = ref_profile.params.s_star
    grid = chebyshev_grid(1e-3 * s_star, s_star - 1e-3 * s_star, 16)
    sample = sample_at(grid, ref_profile.params, ref_spec)
    old = {
        "grid": grid.tolist(),
        "res_25": residual_25(sample, ref_spec).tolist(),
        "res_26": residual_26(sample, ref_spec).tolist(),
        "res_27": residual_27(sample, ref_spec).T.tolist(),
        "mu_samples": mu_of_s(sample, ref_spec).tolist(),
        "mu_dev": new["mu_dev"],
        "ansatz_res": ansatz_residual(sample, ref_spec).T.tolist(),
        "boundary": new["boundary"],
        "positivity_ok": new["positivity_ok"],
        "positivity_violation": new["positivity_violation"],
        "fd_check": new["fd_check"],
        "checks": {
            name: {key: c[key] for key in ("value", "tol", "passed")}
            for name, c in new["checks"].items()
        },
        "certified": new["certified"],
    }
    report = report_from_dict(json.loads(json.dumps(old)))
    assert report.certified is True
    assert report.checks == old["checks"]
    assert report_to_dict(report) == {k: old[k] for k in REPORT_KEYS}


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
PARAMS_KEYS = ["kappa0", "E", "s_star", "A"]
REPORT_KEYS = [
    "mu_dev",
    "boundary",
    "positivity_ok",
    "positivity_violation",
    "fd_check",
    "checks",
    "certified",
]
CHECK_KEYS = ["value", "tol", "passed", "margin", "worst_s"]


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
    report = load_json(report_file)
    assert list(report) == REPORT_KEYS
    assert all(list(c) == CHECK_KEYS for c in report["checks"].values())


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
# Writers against per-value reference loops
# ---------------------------------------------------------------------------


def _reference_csv(path, params, spec, mp):
    """The profile CSV written one row and one repr at a time."""
    rows = np.column_stack(profile_table(params, spec, mp)).tolist()
    with open(path, "w") as fh:
        fh.write(csv_header(spec.r) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _reference_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _reference_panel(out, x, series, title, y_offset):
    """One SVG panel, its polylines mapped and formatted one point at a time."""
    W, H, ML, MR, MT, MB = 760, 300, 64, 16, 28, 40
    palette = io._PALETTE
    xmin, xmax = float(np.min(x)), float(np.max(x))
    ys = np.concatenate([np.asarray(y) for _, y in series])
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    if ymax == ymin:
        ymax = ymin + 1.0
    px = lambda v: ML + (W - ML - MR) * (v - xmin) / (xmax - xmin)
    py = lambda v: y_offset + MT + (H - MT - MB) * (ymax - v) / (ymax - ymin)
    out.append(
        f'<rect x="{ML}" y="{y_offset + MT}" width="{W - ML - MR}" '
        f'height="{H - MT - MB}" fill="none" stroke="#999" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{ML}" y="{y_offset + MT - 8}" font-size="13" '
        f'font-family="sans-serif">{title}</text>'
    )
    for k in range(5):
        xv = xmin + k * (xmax - xmin) / 4
        out.append(
            f'<text x="{px(xv):.2f}" y="{y_offset + H - MB + 16}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{xv:.3g}</text>'
        )
    for k in range(4):
        yv = ymin + k * (ymax - ymin) / 3
        out.append(
            f'<text x="{ML - 6}" y="{py(yv):.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{yv:.3g}</text>'
        )
    for j, (label, y) in enumerate(series):
        color = palette[j % len(palette)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, np.asarray(y)))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{W - MR - 120}" y="{y_offset + MT + 16 + 14 * j}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )


def _reference_svg(panels):
    W, H = 760, 300
    total_h = H * len(panels)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{total_h}" '
        f'viewBox="0 0 {W} {total_h}">',
        f'<rect width="{W}" height="{total_h}" fill="white"/>',
    ]
    for k, (title, x, series) in enumerate(panels):
        _reference_panel(out, np.asarray(x), series, title, k * H)
    out.append("</svg>")
    return "\n".join(out) + "\n"


# r = 1, r = 2 with a left and with a right blowdown, r = 3 (see conftest.py)
WRITER_CASES = {
    "r1": "ref",
    "r2-left-blowdown": "blow",
    "r2-right-blowdown": "right",
    "r3": "three",
}


@pytest.fixture(params=sorted(WRITER_CASES))
def writer_case(request):
    """(spec, profile) of one of WRITER_CASES."""
    name = WRITER_CASES[request.param]
    return request.getfixturevalue(f"{name}_spec"), request.getfixturevalue(f"{name}_profile")


def test_write_csv_matches_the_per_row_reference(writer_case, tmp_path):
    spec, profile = writer_case
    mp = reconstruct_t(profile.params, spec, grid_size=129)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), profile.params, spec, mp)
    _reference_csv(str(want), profile.params, spec, mp)
    assert got.read_bytes() == want.read_bytes()


def test_write_svg_matches_the_per_point_reference(writer_case, tmp_path, monkeypatch):
    spec, profile = writer_case
    mp = reconstruct_t(profile.params, spec, grid_size=129)
    panels = []

    def recorded(arg):
        panels.append(arg)
        return render_svg(arg)

    monkeypatch.setattr(io, "render_svg", recorded)
    path = tmp_path / "got.svg"
    write_svg(str(path), profile.params, spec, mp)
    assert path.read_text() == _reference_svg(panels[0])


def test_dump_json_matches_json_dump(writer_case, tmp_path):
    spec, profile = writer_case
    report = report_to_dict(verify(profile, spec, grid_size=65))
    report["checks"]["fd_check"]["value"] = math.nan
    report["checks"]["mu_dev"]["value"] = math.inf
    report["checks"]["defect_at_root"]["value"] = -math.inf
    for doc in (solution_to_dict(profile, spec, SolverConfig()), report):
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        dump_json(doc, str(got))
        _reference_json(doc, str(want))
        assert got.read_bytes() == want.read_bytes()
    assert b"NaN" in got.read_bytes() and b"-Infinity" in got.read_bytes()


def test_render_svg_of_a_constant_series_matches_the_reference():
    # ymax == ymin: the y range is widened to [ymin, ymin + 1]
    x = np.linspace(0.0, 3.0, 17)
    panels = [
        ("constant", x, [("c", np.full(17, 2.5))]),
        ("two constants", x, [("a", np.zeros(17)), ("b", [0.0] * 17)]),
    ]
    assert render_svg(panels) == _reference_svg(panels)


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


def test_cli_validate_string_dimension(tmp_path, capsys):
    # a non-integer n is a violation, not a TypeError in a later rule
    path = tmp_path / "string_n.json"
    factors = [{"n": "1", "p": 2, "q": 1}, {"n": 1, "p": 3, "q": 1}]
    path.write_text(json.dumps(dict(REF_DOC, factors=factors, left="blowdown")))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "violation: factor 1: n must be a positive integer, got '1'\n"


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_cli_factor_data_past_2_to_the_53_exits_2(tmp_path, capsys, command):
    # 10**400 has no float: solve stopped in coefficients_A with an OverflowError
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(REF_DOC, factors=[{"n": 10**400, "p": 10**400 + 1, "q": 1}])))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "violation: factor 1: n, p and |q| must be at most 2**53\n"


HUGE_M_ERROR = "error: spec: 'm' must be finite, got an integer past the float range\n"


@pytest.mark.parametrize("command", ["validate", "solve", "verify", "profile"])
def test_cli_integer_m_past_the_float_range_exits_2(tmp_path, capsys, solution_file, command):
    # float(10**400) raised OverflowError, and every command exited 1 with a traceback
    huge = 10**400
    if command in ("validate", "solve"):
        path = tmp_path / "huge_m.json"
        path.write_text(json.dumps(dict(REF_DOC, m=huge)))
    else:
        path = _edited_solution(solution_file, tmp_path, lambda doc: doc["spec"].update(m=huge))
    capsys.readouterr()  # drop what solving the fixture printed
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == HUGE_M_ERROR


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


def test_cli_solve_prints_the_text_it_writes(tmp_path, spec_file, capsys):
    # without -o the solution goes to stdout as exactly the file's text
    out = tmp_path / "sol.json"
    assert main(["solve", spec_file, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["solve", spec_file]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_dump_json_that_fails_leaves_the_file_alone(tmp_path):
    path = tmp_path / "old.json"
    dump_json({"kept": [1.5, 2.5]}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        dump_json({"kept": [1.5, 2.5], "bad": object()}, str(path))
    assert path.read_bytes() == before


def test_cli_builds_its_parser_once(spec_file, monkeypatch):
    # every ArgumentParser construction, the subcommands' parsers included
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    assert main(["validate", spec_file]) == 0
    first = len(built)
    assert main(["validate", spec_file]) == 0
    assert built[0] == "qe" and len(built) == first


def test_solution_reads_resolve_type_hints_once(solution_file):
    # a solution holds three dataclasses: SolverConfig, SolvedProfile, SolutionParams
    doc = load_json(solution_file)
    solution_from_dict(doc)
    before = io._type_hints.cache_info()
    solution_from_dict(doc)
    after = io._type_hints.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


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


def test_cli_solve_alpha_guard(tmp_path, spec_file, capsys, monkeypatch):
    # the scan and the polish read the table, not solver.alpha, so a
    # broken alpha reaches only the positivity check at the root
    alpha = qebundle.solver.alpha
    monkeypatch.setattr(qebundle.solver, "alpha", lambda s, p, spec: -alpha(s, p, spec))
    out = tmp_path / "sol.json"
    assert main(["solve", spec_file, "-o", str(out)]) == 4
    err = capsys.readouterr().err
    assert "positivity failure at the root" in err and "alpha(" in err
    assert not out.exists()


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


def test_cli_verify_prints_each_margin_and_worst_s(solution_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", solution_file, "--grid", "64", "-o", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    checks = load_json(out)["checks"]
    assert len(lines) == len(checks) + 1 and lines[-1] == "certified"
    for line, (name, c) in zip(lines, checks.items()):
        margin = "-" if c["margin"] is None else f"{c['margin']:.3e}"
        at = "" if c["worst_s"] is None else f"  at s={c['worst_s']:.6g}"
        assert line == (
            f"pass  {name:28s} value={c['value']: .6e}  tol={c['tol']:.3e}  margin={margin}{at}"
        )
    assert sum("  at s=" in line for line in lines) == 7  # the point-set checks


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


def _edited_solution(solution_file, tmp_path, edit):
    doc = load_json(solution_file)
    edit(doc)
    path = tmp_path / "edited.json"
    dump_json(doc, str(path))
    return str(path)


def test_cli_nan_coefficient_is_a_positivity_failure(solution_file, tmp_path, capsys):
    # NaN is not positive: profile writes nothing, verify is not certified
    # (a NaN s_star is refused on read, see the test below)
    def nan_coefficient(doc):
        doc["params"]["A"][0] = float("nan")

    path = _edited_solution(solution_file, tmp_path, nan_coefficient)
    csv_path, svg_path = tmp_path / "p.csv", tmp_path / "p.svg"
    assert main(["profile", path, "--csv", str(csv_path), "--svg", str(svg_path)]) == 4
    assert "profile FAILED: alpha(" in capsys.readouterr().err
    assert not csv_path.exists() and not svg_path.exists()
    assert main(["verify", path, "--grid", "64"]) == 4
    assert "certification FAILED: beta_1 = nan is not positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["spec"].update(m=0.5), "invalid spec: m must exceed 1"),
        (
            lambda doc: doc["params"].update(A=2 * doc["params"]["A"]),
            "params.A has 2 entries; the spec has r = 1",
        ),
        (
            lambda doc: doc["spec"]["factors"][0].update(n="2"),
            "invalid spec: factor 1: n must be a positive integer",
        ),
    ],
    ids=["m=0.5", "doubled-A", "string-n"],
)
def test_cli_solution_spec_is_validated_on_read(solution_file, tmp_path, capsys, edit, message):
    path = _edited_solution(solution_file, tmp_path, edit)
    with pytest.raises(ValueError, match=message):
        solution_from_dict(load_json(path))
    csv_path = tmp_path / "p.csv"
    assert main(["profile", path, "--csv", str(csv_path)]) == 2
    assert not csv_path.exists()
    assert main(["verify", path, "--grid", "64"]) == 2
    assert message in capsys.readouterr().err


BREAK_OUTSIDE = (
    "params: the alpha integrand must change sign inside (0, s_star), at sqrt(2E) - kappa0; "
)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"params": {"kappa0": "8"}}, "params.kappa0 must be a real number, got '8'"),
        ({"params": {"A": ["x"]}}, "params.A[0] must be a real number, got 'x'"),
        ({"params": {"kappa0": -1, "E": 2}}, "params.kappa0 must be finite and positive, got -1.0"),
        ({"params": {"kappa0": 0}}, "params.kappa0 must be finite and positive, got 0.0"),
        ({"config": []}, "SolverConfig must be a JSON object, got []"),
        ({"params": []}, "SolutionParams must be a JSON object, got []"),
        ({"config": {"scan_points": "64"}}, "scan_points must be an int, got '64'"),
        ({"config": {"bracket": 5}}, "SolverConfig: cannot unpack non-iterable int object"),
        (
            {"config": {"root_tol": None}},
            "SolverConfig: '<' not supported between instances of 'float' and 'NoneType'",
        ),
        ({"config": {"root_tol": True}}, "root_tol must satisfy 0 < root_tol < inf, got True"),
        (
            {"config": {"bracket": [True, 1e3]}},
            "bracket must satisfy 0 < lo < hi < inf, got (True, 1000.0)",
        ),
        ({"params": {"s_star": 0.0}}, "params.s_star must be finite and positive, got 0.0"),
        ({"params": {"s_star": -1}}, "params.s_star must be finite and positive, got -1.0"),
        (
            {"params": {"s_star": float("inf")}},
            "params.s_star must be finite and positive, got inf",
        ),
        (
            {"params": {"s_star": float("nan")}},
            "params.s_star must be finite and positive, got nan",
        ),
        ({"params": {"E": 1e-3}}, BREAK_OUTSIDE + "E = 0.001 puts it at -"),
        ({"params": {"E": 1e6, "s_star": 1e-3}}, BREAK_OUTSIDE + "E = 1000000.0 puts it at 1"),
        ({"params": {"E": -1}}, BREAK_OUTSIDE + "E = -1.0 puts it at nan, s_star = 4.0"),
    ],
    ids=[
        "string-kappa0",
        "string-A",
        "kappa0=-1",
        "kappa0=0",
        "config=list",
        "params=list",
        "string-scan_points",
        "bracket=5",
        "root_tol=null",
        "root_tol=true",
        "bool-bracket",
        "s_star=0",
        "s_star=-1",
        "s_star=inf",
        "s_star=nan",
        "break<0",
        "break>s_star",
        "E=-1",
    ],
)
@pytest.mark.parametrize("command", ["verify", "profile"])
def test_cli_solution_params_are_checked_on_read(
    solution_file, tmp_path, capsys, command, edit, message
):
    # a non-numeric entry used to end in a numpy traceback (exit 1), a
    # kappa0 of -1 with E = 2 (its sign change, at 3, is inside (0, 4)) in
    # exit 4 from verify and a division by zero in profile's alpha at s = 1,
    # and a list for config or params, or a config entry of the wrong
    # type, in a TypeError traceback (exit 1). An E that puts the
    # integrand's sign change outside (0, s_star) used to reach the alpha
    # table, which splits its panels there (exit 0 or 4). An object in
    # ``edit`` is merged into that part of the file; anything else
    # replaces it. A RuntimeWarning fails the test (see pyproject.toml).
    def apply(doc):
        for part, value in edit.items():
            if isinstance(value, dict):
                doc[part].update(value)
            else:
                doc[part] = value

    path = _edited_solution(solution_file, tmp_path, apply)
    with pytest.raises(ValueError, match=re.escape(message)):
        solution_from_dict(load_json(path))
    csv_path = tmp_path / "p.csv"
    args = ["--grid", "64"] if command == "verify" else ["--csv", str(csv_path)]
    assert main([command, path, *args]) == 2
    assert message in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("name", ["ref", "blow", "right"])
def test_cli_reads_solution_files_that_carry_kappa1_and_mu(request, tmp_path, name):
    # files written while params held the gauge kappa1 = 1 and mu = E still
    # load: verify and profile write the same bytes as for the current file
    spec, profile = (request.getfixturevalue(f"{name}_{part}") for part in ("spec", "profile"))
    new = solution_to_dict(profile, spec, SolverConfig())
    p = new["params"]
    old_params = {"kappa0": p["kappa0"], "kappa1": 1.0, "E": p["E"], "mu": p["E"]}
    old = dict(new, params=dict(old_params, s_star=p["s_star"], A=p["A"]))
    written = {}
    for tag, doc in (("new", new), ("old", old)):
        sol = tmp_path / f"{tag}.json"
        report, csv_path, svg_path = (tmp_path / f"{tag}-out.{x}" for x in ("json", "csv", "svg"))
        dump_json(doc, str(sol))
        assert main(["verify", str(sol), "-o", str(report)]) == 0
        assert main(["profile", str(sol), "--csv", str(csv_path), "--svg", str(svg_path)]) == 0
        written[tag] = [path.read_bytes() for path in (report, csv_path, svg_path)]
    assert written["old"] == written["new"]


@pytest.mark.parametrize("doc", [[], 3, "x"], ids=["list", "number", "string"])
@pytest.mark.parametrize("command", ["verify", "profile"])
def test_cli_solution_file_must_hold_an_object(tmp_path, capsys, command, doc):
    # a top-level list used to end in a TypeError traceback from doc["spec"] (exit 1)
    path = tmp_path / "sol.json"
    dump_json(doc, str(path))
    csv_path = tmp_path / "p.csv"
    args = ["--grid", "64"] if command == "verify" else ["--csv", str(csv_path)]
    assert main([command, str(path), *args]) == 2
    assert f"a solution file must hold a JSON object, got {doc!r}" in capsys.readouterr().err
    assert not csv_path.exists()


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


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from qebundle.cli import main
spec, sol, rep, csv, svg = sys.argv[1:]
codes = [
    main(["validate", spec]),
    main(["solve", spec, "-o", sol]),
    main(["verify", sol, "-o", rep]),
    main(["profile", sol, "--csv", csv, "--svg", svg]),
]
print("exit codes:", codes)
sys.exit(max(codes))
"""


def test_cli_runs_without_scipy(spec_file, solution_file, tmp_path):
    # every command needs numpy only; scipy is a test dependency
    src_root = str(Path(qebundle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    out = tmp_path / "no-scipy"
    out.mkdir()
    paths = [str(out / name) for name in ("sol.json", "rep.json", "p.csv", "p.svg")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, spec_file, *paths],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exit codes: [0, 0, 0, 0]" in proc.stdout
    assert Path(paths[0]).read_bytes() == Path(solution_file).read_bytes()


NO_NUMPY_SCRIPT = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy or a submodule now fails
import qebundle
import qebundle.cli
from qebundle.cli import main
codes = [main(["validate", path]) for path in sys.argv[2:]]
print("exit codes:", codes)
print("numpy modules:", sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "numpy" and m))
print("numpy in sys.modules:", "numpy" in sys.modules)
"""


@pytest.mark.parametrize("block", [True, False], ids=["numpy-blocked", "numpy-present"])
def test_cli_validate_runs_without_numpy(spec_file, tmp_path, block):
    # validate needs only spec and errors: the numeric layers load on first use
    violation, malformed = tmp_path / "violation.json", tmp_path / "malformed.json"
    violation.write_text(json.dumps(dict(REF_DOC, factors=[{"n": 1, "p": 2, "q": 2}])))
    malformed.write_text(json.dumps(dict(REF_DOC, typo=1)))
    src_root = str(Path(qebundle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    mode = "block" if block else "allow"
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, mode, spec_file, str(violation), str(malformed)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exit codes: [0, 2, 2]" in proc.stdout
    assert "numpy modules: []" in proc.stdout
    # blocked, sys.modules holds numpy's None entry and nothing replaced it
    assert f"numpy in sys.modules: {block}" in proc.stdout


# The package's exports when it imported every layer eagerly, by home module.
EXPORTS = {
    "closedform": [
        "QuadraticRoots",
        "SolutionParams",
        "beta",
        "beta_jet",
        "coefficients_A",
        "endpoint_quadratic_roots",
        "energy_from_kappa0",
        "params_from_kappa0",
        "phi",
        "V",
    ],
    "errors": [
        "NegativeDiscriminantError",
        "NonPositiveKappa0Error",
        "NoSignChangeError",
        "PositivityError",
        "QEError",
    ],
    "geometry": ["MetricProfile", "reconstruct_t"],
    "solver": [
        "SolvedProfile",
        "SolverConfig",
        "alpha",
        "alpha_integrand",
        "boundary_defect",
        "boundary_slopes",
        "solve",
    ],
    "spec": [
        "BundleSpec",
        "EndpointType",
        "FactorSpec",
        "spec_from_dict",
        "spec_to_dict",
        "validate_spec",
    ],
    "verifier": [
        "ProfileSample",
        "ResidualReport",
        "ansatz_residual",
        "chebyshev_grid",
        "mu_of_s",
        "residual_25",
        "residual_26",
        "residual_27",
        "sample_at",
        "verify",
    ],
}


def test_package_exports_resolve_in_their_home_modules():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(qebundle.__all__) == sorted(names)
    assert set(names) <= set(dir(qebundle))
    for module, group in EXPORTS.items():
        home = getattr(qebundle, module)
        assert home.__name__ == f"qebundle.{module}"
        for name in group:
            assert getattr(qebundle, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qebundle.no_such_name


def test_package_exports_are_looked_up_on_every_access(monkeypatch):
    # nothing is cached on the package: a tracer or a test that replaces
    # solver.solve replaces qebundle.solve too
    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(qebundle.solver, "solve", replacement)
    assert qebundle.solve is replacement
    from qebundle import solve as imported

    assert imported is replacement
    monkeypatch.undo()
    assert qebundle.solve is qebundle.solver.solve is not replacement


def test_blowdown_solution_through_cli(tmp_path, capsys):
    spec_path = tmp_path / "blow.json"
    spec_path.write_text(json.dumps(BLOW_DOC))
    out = tmp_path / "sol.json"
    assert main(["solve", str(spec_path), "-o", str(out)]) == 0
    doc = load_json(out)
    assert doc["params"]["kappa0"] == pytest.approx(20.842223363325445, abs=1e-10)
    assert main(["verify", str(out), "--grid", "64"]) == 0
