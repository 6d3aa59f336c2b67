"""File formats: solution/report JSON, profile CSV, and SVG plots.

All serialization is deterministic (fixed key order, no timestamps)
and floats round-trip exactly: values are emitted with Python's repr,
the shortest string that parses back to the identical double. The
potential u is exported under an explicit convention key because the
source construction never states the v <-> u dictionary; we assume the
conventional v = e^(-u/m).
"""

from __future__ import annotations

import json

import numpy as np

from . import closedform as cf
from . import solver as sv
from .geometry import MetricProfile
from .spec import BundleSpec, spec_from_dict, spec_to_dict
from .verifier import ResidualReport

U_CONVENTION = "u = -m*log(v), assuming v = exp(-u/m) (not stated by the construction)"


# ---------------------------------------------------------------------------
# Solution JSON
# ---------------------------------------------------------------------------


def config_to_dict(config: sv.SolverConfig) -> dict:
    return {
        "bracket": [config.bracket[0], config.bracket[1]],
        "scan_points": config.scan_points,
        "root_tol": config.root_tol,
        "quad_rel_tol": config.quad_rel_tol,
        "max_subdivisions": config.max_subdivisions,
    }


def config_from_dict(doc: dict) -> sv.SolverConfig:
    return sv.SolverConfig(
        bracket=tuple(doc["bracket"]),
        scan_points=doc["scan_points"],
        root_tol=doc["root_tol"],
        quad_rel_tol=doc["quad_rel_tol"],
        max_subdivisions=doc["max_subdivisions"],
    )


def solution_to_dict(
    profile: sv.SolvedProfile, spec: BundleSpec, config: sv.SolverConfig
) -> dict:
    p = profile.params
    return {
        "spec": spec_to_dict(spec),
        "config": config_to_dict(config),
        "params": {
            "kappa0": p.kappa0,
            "kappa1": p.kappa1,
            "E": p.E,
            "mu": p.mu,
            "s_star": p.s_star,
            "A": list(p.A),
        },
        "defect_at_root": profile.defect_at_root,
        "bracket_used": list(profile.bracket_used),
        "all_sign_changes": [list(iv) for iv in profile.all_sign_changes],
        "roots": list(profile.roots),
        "convention": {"u": U_CONVENTION},
    }


def solution_from_dict(doc: dict):
    """Rebuild (spec, SolvedProfile, SolverConfig) from solution JSON."""
    spec = spec_from_dict(doc["spec"])
    config = config_from_dict(doc["config"])
    pd = doc["params"]
    params = cf.SolutionParams(
        kappa0=pd["kappa0"],
        kappa1=pd["kappa1"],
        E=pd["E"],
        mu=pd["mu"],
        s_star=pd["s_star"],
        A=tuple(pd["A"]),
    )
    profile = sv.SolvedProfile(
        params=params,
        defect_at_root=doc["defect_at_root"],
        bracket_used=tuple(doc["bracket_used"]),
        all_sign_changes=tuple(tuple(iv) for iv in doc["all_sign_changes"]),
        roots=tuple(doc["roots"]),
    )
    return spec, profile, config


# ---------------------------------------------------------------------------
# Report JSON
# ---------------------------------------------------------------------------


def report_to_dict(report: ResidualReport) -> dict:
    return {
        "grid": report.grid.tolist(),
        "res_25": report.res_25.tolist(),
        "res_26": report.res_26.tolist(),
        "res_27": report.res_27.tolist(),
        "mu_samples": report.mu_samples.tolist(),
        "mu_dev": report.mu_dev,
        "ansatz_res": report.ansatz_res.tolist(),
        "boundary": dict(report.boundary),
        "positivity_ok": report.positivity_ok,
        "positivity_violation": report.positivity_violation,
        "fd_check": report.fd_check,
        "checks": {k: dict(v) for k, v in report.checks.items()},
        "certified": report.certified,
    }


def report_from_dict(doc: dict) -> ResidualReport:
    return ResidualReport(
        grid=np.array(doc["grid"]),
        res_25=np.array(doc["res_25"]),
        res_26=np.array(doc["res_26"]),
        res_27=np.array(doc["res_27"]),
        mu_samples=np.array(doc["mu_samples"]),
        mu_dev=doc["mu_dev"],
        ansatz_res=np.array(doc["ansatz_res"]),
        boundary=dict(doc["boundary"]),
        positivity_ok=doc["positivity_ok"],
        positivity_violation=doc["positivity_violation"],
        fd_check=doc["fd_check"],
        checks={k: dict(v) for k, v in doc["checks"].items()},
        certified=doc["certified"],
    )


def dump_json(doc: dict, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Profile CSV
# ---------------------------------------------------------------------------


def csv_header(r: int) -> str:
    betas = ",".join(f"beta_{i + 1}" for i in range(r))
    gs = ",".join(f"g_{i + 1}" for i in range(r))
    return f"s,alpha,alpha_prime,{betas},phi,V,t,f,{gs},v,u"


def profile_table(
    params: cf.SolutionParams,
    spec: BundleSpec,
    config: sv.SolverConfig,
    mp: MetricProfile,
):
    """Column-major profile data matching csv_header(spec.r)."""
    s = mp.s
    n = len(s)
    a = mp.f**2
    ap = np.empty(n)
    ap[1:-1] = sv.alpha_derivatives(s[1:-1], params, spec, config)[1]
    slope0, slope_end = sv.boundary_slopes(params, spec, config)
    ap[0], ap[-1] = slope0, slope_end
    cols = [s, a, ap]
    cols += [cf.beta(i, s, params, spec) for i in range(spec.r)]
    cols += [cf.phi(s, params), cf.V(s, params, spec), mp.t, mp.f]
    cols += [mp.g[:, i] for i in range(spec.r)]
    cols += [mp.v, mp.u]
    return cols


def write_csv(
    path: str,
    params: cf.SolutionParams,
    spec: BundleSpec,
    config: sv.SolverConfig,
    mp: MetricProfile,
):
    cols = profile_table(params, spec, config, mp)
    with open(path, "w") as fh:
        fh.write(csv_header(spec.r) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_csv(path: str):
    """Read back a profile CSV: (header, data) with exact floats."""
    with open(path) as fh:
        header = fh.readline().strip()
        data = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(data)


# ---------------------------------------------------------------------------
# SVG plot
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_W, _H, _ML, _MR, _MT, _MB = 760, 300, 64, 16, 28, 40


def _panel_svg(out, x, series, title, y_offset):
    xmin, xmax = float(np.min(x)), float(np.max(x))
    ys = np.concatenate([np.asarray(y) for _, y in series])
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    if ymax == ymin:
        ymax = ymin + 1.0
    px = lambda v: _ML + (_W - _ML - _MR) * (v - xmin) / (xmax - xmin)
    py = lambda v: y_offset + _MT + (_H - _MT - _MB) * (ymax - v) / (ymax - ymin)

    out.append(
        f'<rect x="{_ML}" y="{y_offset + _MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#999" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_ML}" y="{y_offset + _MT - 8}" font-size="13" '
        f'font-family="sans-serif">{title}</text>'
    )
    for k in range(5):
        xv = xmin + k * (xmax - xmin) / 4
        out.append(
            f'<text x="{px(xv):.2f}" y="{y_offset + _H - _MB + 16}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{xv:.3g}</text>'
        )
    for k in range(4):
        yv = ymin + k * (ymax - ymin) / 3
        out.append(
            f'<text x="{_ML - 6}" y="{py(yv):.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{yv:.3g}</text>'
        )
    for j, (label, y) in enumerate(series):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(x, np.asarray(y)))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 120}" y="{y_offset + _MT + 16 + 14 * j}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{label}</text>'
        )


def render_svg(panels) -> str:
    """Static multi-panel line plot; a pure function of its inputs.

    panels : list of (title, x, series) with series = [(label, y), ...].
    """
    total_h = _H * len(panels)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{total_h}" '
        f'viewBox="0 0 {_W} {total_h}">',
        f'<rect width="{_W}" height="{total_h}" fill="white"/>',
    ]
    for k, (title, x, series) in enumerate(panels):
        _panel_svg(out, np.asarray(x), series, title, k * _H)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(
    path: str,
    params: cf.SolutionParams,
    spec: BundleSpec,
    report: ResidualReport,
    mp: MetricProfile,
):
    """Profile plot: alpha and beta_i over s, residual magnitudes over s."""
    top_series = [("alpha", mp.f**2)]
    for i in range(spec.r):
        top_series.append((f"beta_{i + 1}", cf.beta(i, mp.s, params, spec)))
    res_series = [
        ("|res_I|", np.abs(report.res_25)),
        ("|res_II|", np.abs(report.res_26)),
    ]
    for i in range(spec.r):
        res_series.append((f"|res_III_{i + 1}|", np.abs(report.res_27[:, i])))
    panels = [
        ("profile: alpha, beta_i vs s", mp.s, top_series),
        ("residual magnitudes vs s", report.grid, res_series),
    ]
    with open(path, "w") as fh:
        fh.write(render_svg(panels))
