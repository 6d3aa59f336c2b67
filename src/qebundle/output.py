"""File formats: solution/report JSON, profile CSV, and SVG plots.

All serialization is deterministic (fixed key order, no timestamps)
and floats round-trip exactly: values are emitted with Python's repr,
the shortest string that parses back to the identical double. Solution
and report JSON keys are the dataclass fields in declaration order. The
potential u is exported under an explicit convention key because the
source construction never states the v <-> u dictionary; we assume the
conventional v = e^(-u/m).

CSV and JSON cost about one repr per float (~1 us each), so their time
is bound by that format; each is built as one string and written once.
The SVG maps whole coordinate arrays to the plot box with the same
operations, in the same order, as a per-point map, and formats each
polyline in one join.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

import numpy as np

from . import closedform as cf
from . import solver as sv
from . import verifier as vf
from .geometry import MetricProfile
from .spec import BundleSpec, require_valid_spec, spec_from_dict, spec_to_dict

U_CONVENTION = "u = -m*log(v), assuming v = exp(-u/m) (not stated by the construction)"


# ---------------------------------------------------------------------------
# Solution and report JSON
# ---------------------------------------------------------------------------


def _to_json(value):
    """value as JSON data: a dataclass becomes an object in field order,
    tuples and arrays become lists, anything else is returned as is."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


# Resolving a dataclass's string annotations is costly; each class is resolved once.
_type_hints = functools.cache(typing.get_type_hints)


def _from_json(cls, doc: dict):
    """Build dataclass cls from the entries of doc that its fields name.

    Fields declared tuple or np.ndarray are rebuilt from JSON lists;
    other keys in doc are ignored, and a missing one raises KeyError.
    A doc that is not an object, or a value of a type that cls cannot
    check, raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    types = _type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        tp, value = types[f.name], doc[f.name]
        if dataclasses.is_dataclass(tp):
            value = _from_json(tp, value)
        elif tp is tuple:
            value = _tuples(value)
        elif tp is np.ndarray:
            value = np.array(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except TypeError as err:  # such as a null root_tol or a number for a bracket
        raise ValueError(f"{cls.__name__}: {err}") from None


def solution_to_dict(
    profile: sv.SolvedProfile, spec: BundleSpec, config: sv.SolverConfig
) -> dict:
    return {
        "spec": spec_to_dict(spec),
        "config": _to_json(config),
        **_to_json(profile),
        "convention": {"u": U_CONVENTION},
    }


def _real(name, value):
    """value as a float, if it is a real number: an int or a float, not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"params.{name} must be a real number, got {value!r}")


def _checked_params(params: cf.SolutionParams) -> cf.SolutionParams:
    """params with every entry a float, after checking that each is a real number.

    kappa0 and s_star must also be finite and positive: x = s + kappa0
    must stay positive on [0, s_star], as phi and every power of x
    need, and every grid spans [0, s_star]. A NaN or an infinity
    elsewhere is left to the positivity checks, past
    solution_from_dict's check of the integrand's sign change.
    """
    if not isinstance(params.A, tuple):
        raise ValueError(f"params.A must be a list, got {params.A!r}")
    names = ("kappa0", "E", "s_star")
    values = {name: _real(name, getattr(params, name)) for name in names}
    A = tuple(_real(f"A[{i}]", a) for i, a in enumerate(params.A))
    for name in ("kappa0", "s_star"):
        if not (0.0 < values[name] < math.inf):
            raise ValueError(f"params.{name} must be finite and positive, got {values[name]!r}")
    return cf.SolutionParams(**values, A=A)


def solution_from_dict(doc: dict):
    """Rebuild (spec, SolvedProfile, SolverConfig) from solution JSON.

    Raises ValueError if doc, config or params is not an object, the
    spec fails validation, config fails SolverConfig's checks, a params
    entry is not a real number, kappa0 or s_star is not finite and
    positive, params.A does not hold one coefficient per factor, or the
    alpha integrand's sign change, sqrt(2E) - kappa0, is not inside
    (0, s_star) (it is for the closed forms of every kappa0 > 0, and the
    alpha table splits its panels there). Keys that no field names are
    ignored, so a file from an older version with more params keys loads.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a solution file must hold a JSON object, got {doc!r}")
    spec = spec_from_dict(doc["spec"])
    require_valid_spec(spec)
    config = _from_json(sv.SolverConfig, doc["config"])
    profile = _from_json(sv.SolvedProfile, doc)
    params = _checked_params(profile.params)
    if len(params.A) != spec.r:
        raise ValueError(f"params.A has {len(params.A)} entries; the spec has r = {spec.r}")
    brk = float(sv._integral_break(params, spec)) if 0.0 < params.E < math.inf else math.nan
    if not (0.0 < brk < params.s_star):
        raise ValueError(
            "params: the alpha integrand must change sign inside (0, s_star), at "
            f"sqrt(2E) - kappa0; E = {params.E!r} puts it at {brk!r}, s_star = {params.s_star!r}"
        )
    return spec, dataclasses.replace(profile, params=params), config


def report_to_dict(report: vf.ResidualReport) -> dict:
    return _to_json(report)


def report_from_dict(doc: dict) -> vf.ResidualReport:
    return _from_json(vf.ResidualReport, doc)


def json_text(doc: dict) -> str:
    """doc as the text of a JSON file: indented by 2, with a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def dump_json(doc: dict, path: str):
    """Write json_text(doc) to path; a doc that fails to serialize leaves path untouched."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text)


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
    mp: MetricProfile,
):
    """Column-major profile data matching csv_header(spec.r)."""
    s = mp.s
    n = len(s)
    a = mp.f**2
    ap = np.empty(n)
    ap[1:-1] = vf.sample_at(s[1:-1], params, spec).alpha_prime
    slope0, slope_end = sv.boundary_slopes(params, spec)
    ap[0], ap[-1] = slope0, slope_end
    cols = [s, a, ap, *cf.beta(s, params, spec), cf.phi(s, params), cf.V(s, params, spec)]
    return cols + [mp.t, mp.f, *mp.g.T, mp.v, mp.u]


def write_csv(
    path: str,
    params: cf.SolutionParams,
    spec: BundleSpec,
    mp: MetricProfile,
):
    rows = np.column_stack(profile_table(params, spec, mp)).tolist()
    lines = [csv_header(spec.r), *(",".join(map(repr, row)) for row in rows)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    X = px(x).tolist()  # the same doubles as px of each point
    for j, (label, y) in enumerate(series):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(map("{:.2f},{:.2f}".format, X, py(np.asarray(y)).tolist()))
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
    mp: MetricProfile,
):
    """Profile plot: alpha and beta_i over s, residual magnitudes over s."""
    top_series = [("alpha", mp.f**2)]
    top_series += [(f"beta_{i + 1}", b) for i, b in enumerate(cf.beta(mp.s, params, spec))]
    # Residuals on 129 points of the verifier's grid (default margin).
    delta = 1e-3 * params.s_star
    grid = vf.chebyshev_grid(delta, params.s_star - delta, 129)
    sample = vf.sample_at(grid, params, spec)
    res_series = [
        ("|res_I|", np.abs(vf.residual_25(sample, spec))),
        ("|res_II|", np.abs(vf.residual_26(sample, spec))),
        *((f"|res_III_{i + 1}|", r) for i, r in enumerate(np.abs(vf.residual_27(sample, spec)))),
    ]
    panels = [
        ("profile: alpha, beta_i vs s", mp.s, top_series),
        ("residual magnitudes vs s", grid, res_series),
    ]
    with open(path, "w") as fh:
        fh.write(render_svg(panels))
