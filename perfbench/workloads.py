"""The three workloads: set-up, one op, and the correctness check of an op.

Every workload follows the same shape:

- `prepare(seed, out_dir)` runs in a fresh interpreter during set-up and
  writes the generated inputs (spec and solution files) to `out_dir`;
- `load(out_dir)` turns those files into the list of op items, and runs
  the set-up checks that need the independent oracles. It also returns
  the (label, outcome class) of every generated spec that never became
  an op, such as a spec with no root at set-up;
- `run_op(item, work_dir, trace_prefix)` performs one op and returns its
  stage times and raw result; only this call is timed. Out-of-process
  workloads run traced when given a trace_prefix;
- `check(item, result)` classifies the op after the timed region and
  returns (outcome class, failed, wrong). `wrong` marks an op that
  reported success but failed its independent check;
- `census(item, work_dir)` runs an item once, untimed, and returns its
  `check`. Every item goes through it before timing starts, so each
  generated spec's outcome class is recorded; only the items that
  passed are timed;
- `tamper(items, work_dir)` runs the op and its check on a solution
  whose kappa0 was perturbed by 1e-6 relative, and returns True when the
  tampered op is counted as a failure.

The checks use tests/oracles.py (Simpson quadrature and the frozen
roots K0_REF, K0_BLOW), which imports nothing from the package.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import specgen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

SWEEP_ROUNDS = 2  # 25 specs; the timed loop cycles through those that solved
CERTIFY_ROUNDS = 1  # after the fixed specs; all are solved at set-up
ROOT_REL_TOL = 1e-10  # frozen-root agreement
SIGN_STEP = 1e-8  # oracle sign change across kappa0 (1 -/+ SIGN_STEP)
TAMPER = 1e-6

# Outcome classes of an op that raised, by exception type name.
ERROR_CLASS = {"NoSignChangeError": "no_root", "PositivityError": "positivity"}


def program_env():
    """Environment for a subprocess running the package from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def import_program(package=True):
    """Import the oracles from tests/ and, unless told not to, the package from src/."""
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import oracles  # noqa: F401

    if package:
        import qebundle.cli  # noqa: F401


def _validator():
    from qebundle.spec import spec_from_dict, validate_spec

    return lambda doc: validate_spec(spec_from_dict(doc))


def _oracle_args(doc):
    factors = [(f["n"], f["p"], f["q"]) for f in doc["factors"]]
    return factors, doc["m"], doc["left"] == "blowdown", doc["right"] == "blowdown"


def root_ok(label, doc, kappa0):
    """Independent check of a root: frozen value or an oracle sign change."""
    import oracles

    frozen = {"ref": oracles.K0_REF, "blow": oracles.K0_BLOW}.get(label)
    if frozen is not None:
        return abs(kappa0 - frozen) <= ROOT_REL_TOL * frozen
    factors, m, lb, rb = _oracle_args(doc)
    lo = oracles.oracle_defect(factors, m, kappa0 * (1.0 - SIGN_STEP), lb, rb)
    hi = oracles.oracle_defect(factors, m, kappa0 * (1.0 + SIGN_STEP), lb, rb)
    return lo * hi < 0.0


def _error_class(exc):
    """Outcome class of an op that raised; an unexpected error also prints its traceback."""
    name = type(exc).__name__
    if name not in ERROR_CLASS:
        traceback.print_exception(exc, file=sys.stderr)
    return ERROR_CLASS.get(name, name)


class Workload:
    in_process = True  # ops call the package in this process

    def census(self, item, work_dir):
        _, result = self.run_op(item, work_dir)
        return self.check(item, result)


# ---------------------------------------------------------------------------
# sweep: one qebundle.solve(spec) per op, default SolverConfig
# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    stages = ("solve",)

    def prepare(self, seed, out_dir):
        import_program()
        specs = specgen.batch(seed, SWEEP_ROUNDS, _validator())
        with open(out_dir / "specs.json", "w") as fh:
            json.dump([{"label": label, "spec": doc} for label, doc in specs], fh)

    def load(self, out_dir):
        from qebundle.spec import spec_from_dict

        with open(out_dir / "specs.json") as fh:
            entries = json.load(fh)
        return [{**e, "bundle": spec_from_dict(e["spec"])} for e in entries], []

    def run_op(self, item, work_dir, trace_prefix=None):
        import qebundle

        t0 = time.perf_counter()
        try:
            result = qebundle.solve(item["bundle"])
        except Exception as exc:  # every raise is an outcome to record
            result = exc
        return {"solve": time.perf_counter() - t0}, result

    def check(self, item, result):
        if isinstance(result, Exception):
            return _error_class(result), True, False
        if root_ok(item["label"], item["spec"], result.params.kappa0):
            return "solved", False, False
        return "wrong_root", True, True

    def tamper(self, items, work_dir):
        # One op through each kind of root check: a frozen root and an
        # oracle sign change.
        caught = []
        for item in (i for i in items if i["label"] in ("ref", "three")):
            _, result = self.run_op(item, work_dir)
            if isinstance(result, Exception):
                return False
            params = result.params
            bad = dataclasses.replace(params, kappa0=params.kappa0 * (1 + TAMPER))
            tampered = dataclasses.replace(result, params=bad)
            caught.append(self.check(item, tampered)[1])
        return all(caught)


# ---------------------------------------------------------------------------
# certify: in-process `qe verify` and `qe profile` on solution files
# ---------------------------------------------------------------------------


def _expected_csv_header(r):
    betas = ",".join(f"beta_{i + 1}" for i in range(r))
    gs = ",".join(f"g_{i + 1}" for i in range(r))
    return f"s,alpha,alpha_prime,{betas},phi,V,t,f,{gs},v,u"


class Certify(Workload):
    name = "certify"
    stages = ("verify", "profile")

    def prepare(self, seed, out_dir):
        import_program()
        import qebundle
        from qebundle import output
        from qebundle.spec import spec_from_dict

        manifest = []
        for k, (label, doc) in enumerate(specgen.batch(seed, CERTIFY_ROUNDS, _validator())):
            entry = {"label": label, "spec": doc, "solution": None, "setup_class": "solved"}
            spec = spec_from_dict(doc)
            try:
                profile = qebundle.solve(spec)
            except Exception as exc:  # recorded as this spec's outcome
                entry["setup_class"] = _error_class(exc)
            else:
                path = out_dir / f"solution_{k:02d}.json"
                output.dump_json(output.solution_to_dict(profile, spec, qebundle.SolverConfig()), path)
                entry["solution"] = path.name
            manifest.append(entry)
        with open(out_dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh)

    def load(self, out_dir):
        with open(out_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        items = []
        for e in manifest:
            if not e["solution"]:
                continue
            path = out_dir / e["solution"]
            with open(path) as fh:
                kappa0 = json.load(fh)["params"]["kappa0"]
            items.append(
                {
                    "label": e["label"],
                    "spec": e["spec"],
                    "solution": str(path),
                    "root_ok": root_ok(e["label"], e["spec"], kappa0),
                }
            )
        return items, [(e["label"], e["setup_class"]) for e in manifest if not e["solution"]]

    def census(self, item, work_dir):
        # `verify` alone decides the outcome class; exporting a
        # certified profile would only make the census slower.
        _, result = self.run_op(item, work_dir, profile=False)
        return self.check(item, result)

    def run_op(self, item, work_dir, trace_prefix=None, profile=True):
        from qebundle import cli

        rep = str(work_dir / "report.json")
        csv = str(work_dir / "profile.csv")
        svg = str(work_dir / "profile.svg")
        for path in (rep, csv, svg):
            if os.path.exists(path):
                os.remove(path)
        log = io.StringIO()
        codes, times = {}, {}
        with contextlib.redirect_stderr(log), contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            try:
                codes["verify"] = cli.main(["verify", item["solution"], "-o", rep])
            except Exception as exc:  # recorded as the op's outcome
                codes["verify"] = exc
            t1 = time.perf_counter()
            times["verify"] = t1 - t0
            # Only a certified solution is exported; the op has already
            # failed otherwise.
            if profile and codes["verify"] == 0:
                try:
                    codes["profile"] = cli.main(
                        ["profile", item["solution"], "--csv", csv, "--svg", svg]
                    )
                except Exception as exc:
                    codes["profile"] = exc
                times["profile"] = time.perf_counter() - t1
        return times, (codes, rep, csv)

    def check(self, item, result):
        import numpy as np
        from qebundle import output

        codes, rep, csv = result
        for stage, code in codes.items():
            if isinstance(code, Exception):
                return f"{stage}_{_error_class(code)}", True, False
        if codes["verify"] not in (0, 4) or not os.path.exists(rep):
            return f"verify_exit_{codes['verify']}", True, False
        with open(rep) as fh:
            certified = json.load(fh)["certified"]
        if codes["verify"] != 0 or not certified:
            # An exit code that disagrees with the report is a lie.
            wrong = (codes["verify"] == 0) != certified
            return "uncertified", True, wrong
        if not item["root_ok"]:
            return "certified_wrong_root", True, True
        if "profile" not in codes:  # a census run stops after verify
            return "certified", False, False
        if codes["profile"] != 0:
            return "profile_failed", True, False
        if not os.path.exists(csv):
            return "bad_csv", True, True
        header, data = output.read_csv(csv)
        r = len(item["spec"]["factors"])
        cols = header.split(",")
        ok = header == _expected_csv_header(r) and data.ndim == 2 and data.shape[1] == len(cols)
        if ok:
            t, alpha, f = data[:, cols.index("t")], data[:, 1], data[:, cols.index("f")]
            ok = bool(np.all(np.diff(t) > 0.0) and np.array_equal(alpha, f * f))
        if not ok:
            return "bad_csv", True, True
        return "certified", False, False

    def tamper(self, items, work_dir):
        item = items[0]
        with open(item["solution"]) as fh:
            doc = json.load(fh)
        doc["params"]["kappa0"] *= 1 + TAMPER
        path = work_dir / "tampered.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        kappa0 = doc["params"]["kappa0"]
        tampered = {**item, "solution": str(path), "root_ok": root_ok(item["label"], item["spec"], kappa0)}
        _, result = self.run_op(tampered, work_dir)
        return self.check(tampered, result)[1]


# ---------------------------------------------------------------------------
# cli-cold: `python -m qebundle.cli` subprocesses on the reference spec
# ---------------------------------------------------------------------------


def cli_command(args, trace_out=None):
    """argv for one CLI process, optionally under the tracing bootstrap."""
    if trace_out is None:
        return [sys.executable, "-m", "qebundle.cli"] + args
    return [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(trace_out)] + args


class CliCold(Workload):
    name = "cli-cold"
    in_process = False
    stages = ("validate", "solve", "verify")

    def prepare(self, seed, out_dir):
        # The seed is unused: every op runs the reference spec.
        with open(out_dir / "spec.json", "w") as fh:
            json.dump(specgen.REFERENCE, fh, indent=2)
        subprocess.run(
            cli_command(["solve", str(out_dir / "spec.json"), "-o", str(out_dir / "reference.json")]),
            env=program_env(),
            check=True,
            capture_output=True,
        )

    def load(self, out_dir):
        ref = out_dir / "reference.json"
        with open(ref, "rb") as fh:
            ref_bytes = fh.read()
        kappa0 = json.loads(ref_bytes)["params"]["kappa0"]
        outcomes = [] if root_ok("ref", specgen.REFERENCE, kappa0) else [("ref", "wrong_root")]
        item = {"label": "ref", "spec_path": str(out_dir / "spec.json"), "reference": ref_bytes}
        return [item], outcomes

    def run_op(self, item, work_dir, trace_prefix=None):
        sol = str(work_dir / "solution.json")
        rep = str(work_dir / "report.json")
        for path in (sol, rep):
            if os.path.exists(path):
                os.remove(path)
        steps = {
            "validate": ["validate", item["spec_path"]],
            "solve": ["solve", item["spec_path"], "-o", sol],
            "verify": ["verify", item.get("verify_input", sol), "-o", rep],
        }
        times, procs = {}, {}
        env = program_env()
        for stage, args in steps.items():
            trace_out = None if trace_prefix is None else f"{trace_prefix}{stage}.json"
            cmd = cli_command(args, trace_out)
            t0 = time.perf_counter()
            procs[stage] = subprocess.run(cmd, env=env, capture_output=True, text=True)
            times[stage] = time.perf_counter() - t0
        return times, (procs, sol, rep)

    def check(self, item, result):
        procs, sol, rep = result
        if procs["validate"].returncode != 0 or not procs["validate"].stdout.startswith("valid:"):
            return "validate_failed", True, False
        if procs["solve"].returncode != 0:
            return "solve_failed", True, False
        with open(sol, "rb") as fh:
            if fh.read() != item["reference"]:
                return "solution_changed", True, True
        if procs["verify"].returncode != 0:
            return "uncertified", True, False
        with open(rep) as fh:
            if not json.load(fh)["certified"]:
                return "uncertified", True, True
        return "certified", False, False

    def tamper(self, items, work_dir):
        item = items[0]
        doc = json.loads(item["reference"])
        doc["params"]["kappa0"] *= 1 + TAMPER
        path = work_dir / "tampered.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        _, result = self.run_op({**item, "verify_input": str(path)}, work_dir)
        return self.check(item, result)[1]


WORKLOADS = {w.name: w for w in (Sweep(), Certify(), CliCold())}
