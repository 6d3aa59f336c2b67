"""qebundle benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload {sweep,certify,cli-cold} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from src/ (no
install), the oracles from tests/oracles.py. Set-up runs three times
in fresh interpreters (perfbench/prepare.py) and `setup_s` is their
median. A census then runs every generated item once, untimed, and
records its outcome class; it is also the warm-up. The items that
passed the census are the timed ops: they run back to back until their
summed time reaches `--seconds`; each op's correctness check runs after
its timed region and never aborts the run.

With --trace 0 the last line holds the end-to-end metrics. With
--trace 1 each op runs untraced and then again under the tracer, until
the untraced ops reach half of --seconds, and the last line holds the
per-layer metrics and trace.overhead_share. Workload choice, the metric map and
the outcome baseline are in perfbench/NOTES.md.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
WORK = workloads.ROOT / ".perfbench_work"

# Issue-level metric names: (stage, percentile) per workload.
NAMED = {
    "sweep": {"solve_ms_p50": ("solve", 50), "solve_ms_p90": ("solve", 90)},
    "certify": {"verify_ms_p50": ("verify", 50), "profile_ms_p50": ("profile", 50)},
    "cli-cold": {
        "cli_validate_ms_p50": ("validate", 50),
        "cli_solve_ms_p50": ("solve", 50),
        "cli_verify_ms_p50": ("verify", 50),
    },
}


def percentile(values, q):
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wall(cmd, **kwargs):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    return time.perf_counter() - t0, proc


def set_up(workload, seed, run_dir):
    """Prepare the inputs SETUP_REPEATS times; return (median s, input dir)."""
    times = []
    for k in range(SETUP_REPEATS):
        out = run_dir / f"inputs{k}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "prepare.py"), workload.name, str(seed), str(out)]
        dt, proc = wall(cmd, cwd=workloads.ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed for workload {workload.name}")
        times.append(dt)
    return statistics.median(times), out


def run_op(workload, items, index, work_dir, tracer=None, trace_prefix=None):
    """One op and, after its timed region, its check; returns its record.

    With `tracer`, the op is traced: in process by installing the
    tracer around it, out of process by merging the dumps its child
    processes wrote under `trace_prefix`.
    """
    item = items[index]
    if tracer is not None:
        tracer.begin_op(index)
        if workload.in_process:
            tracer.install()
    try:
        times, result = workload.run_op(item, work_dir, trace_prefix=trace_prefix)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.end_op()
    if trace_prefix is not None:
        for stage in workload.stages:
            with open(f"{trace_prefix}{stage}.json") as fh:
                tracer.merge(json.load(fh), index)
    klass, failed, wrong = workload.check(item, result)
    return {"index": index, "times": times, "total": sum(times.values()),
            "class": klass, "failed": failed, "wrong": wrong}


def run_census(workload, items, work_dir, tracer=None):
    """Each item once, untimed: (label, outcome class, failed, wrong) per item.

    With `tracer` (in-process workloads only), each census op runs under
    it, so that its no-root and uncertified counts cover every item.
    """
    census = []
    for item in items:
        if tracer is not None:
            tracer.install()
        try:
            klass, failed, wrong = workload.census(item, work_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        census.append((item["label"], klass, failed, wrong))
    return census


def run_ops(workload, items, work_dir, budget, tracer=None, trace_dir=None):
    """Closed loop over the items until the untraced op time reaches `budget`.

    Returns (records, traced). With `tracer`, every op is run a second
    time, traced, right after its untraced run, so that both runs of an
    op see the same machine load; `traced` holds those records.
    """
    records, traced = [], []
    spent = 0.0
    while spent < budget:
        k = len(records)
        index = k % len(items)
        records.append(run_op(workload, items, index, work_dir))
        spent += records[-1]["total"]
        if tracer is not None:
            prefix = None if trace_dir is None else f"{trace_dir / str(k)}-"
            traced.append(run_op(workload, items, index, work_dir, tracer, prefix))
    return records, traced


def startup_split(env):
    """Interpreter start, package import and scipy's share of it (ms)."""
    py = sys.executable
    interp, imports, scipy = [], [], []
    for _ in range(STARTUP_REPEATS):
        interp.append(wall([py, "-c", "pass"], env=env)[0])
        imports.append(wall([py, "-c", "import qebundle.cli"], env=env)[0])
        _, proc = wall([py, "-X", "importtime", "-c", "import qebundle.cli"], env=env)
        us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    us += int(parts[0].split(":")[1])
        scipy.append(us / 1e3)
    interp_ms = 1e3 * statistics.median(interp)
    import_ms = 1e3 * statistics.median(imports) - interp_ms
    return interp_ms, import_ms, statistics.median(scipy)


def item_medians(records):
    """Each timed item's median op time (s), in item order.

    Every item weighs the same, however many times the run reached it,
    and a slow stretch of the host moves an item only if it holds half
    of that item's repeats (see NOTES.md, Steadiness).
    """
    times = defaultdict(list)
    for r in records:
        times[r["index"]].append(r["total"])
    return [statistics.median(times[k]) for k in sorted(times)]


def end_to_end(records, setup_s, workload):
    medians = item_medians(records)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(medians), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, census_tracer, records, traced, workload, startup):
    values, missing = tracer.layer_metrics()
    # Outcome counts are run totals over the census and the traced ops.
    for name, extra in (
        ("solver.no_root_count", census_tracer.no_root),
        ("verifier.uncertified_count", census_tracer.uncertified),
    ):
        if name in values:
            values[name] += extra
    interp_ms, import_ms, scipy_ms = startup
    if not workload.in_process:
        # Per command: wall time beyond interpreter start and import.
        stage_ms = [
            1e3 * statistics.median(r["times"][stage] for r in records)
            for stage in workload.stages
        ]
        command_ms = statistics.mean(stage_ms) - interp_ms - import_ms
    else:
        calls, total, _ = tracer.stats["cli.main"]
        command_ms = 1e3 * total / calls if calls else 0.0
    base = sum(r["total"] for r in records)
    values.update(
        {
            "cli.interp_ms": interp_ms,
            "cli.import_ms": import_ms,
            "cli.import_scipy_ms": scipy_ms,
            "cli.command_ms": command_ms,
            "trace.overhead_share": sum(r["total"] for r in traced) / base - 1.0,
        }
    )
    units = {}
    for name in values:
        leaf = name.split(".", 1)[1]
        if leaf.endswith("_ms"):
            units[name] = "ms"
        elif leaf.endswith("_us_per_call") or leaf.endswith("_us_per_point"):
            units[name] = "us"
        elif leaf in ("alpha_distinct_ratio", "overhead_share", "worst_margin"):
            units[name] = "ratio"
        elif leaf == "bytes_written":
            units[name] = "B"
        else:
            units[name] = "count"
    return {name: (val, units[name]) for name, val in values.items()}, missing


def report(workload, seed, records, setup_s, items, census, setup_outcomes, tamper_caught):
    """Human-readable lines: issue-level metrics and the outcome record."""
    n = len(records)
    failed = sum(r["failed"] for r in records)
    spent = sum(r["total"] for r in records)
    print(f"workload {workload.name} seed {seed}: {n} ops in {spent:.3f} s timed")
    print(f"  setup_s            {setup_s:.4f} s")
    medians = item_medians(records)
    print(f"  ops_per_s          {len(medians) / sum(medians):.4f} 1/s "
          f"({len(medians)} items, {n / len(medians):.1f} repeats each)")
    print(f"  fail_share         {failed / n:.4f} ({failed}/{n} timed ops)")
    for name, (stage, q) in NAMED[workload.name].items():
        samples = [r["times"][stage] for r in records if stage in r["times"]]
        value = f"{1e3 * percentile(samples, q):.3f}" if samples else "n/a (stage never ran)"
        print(f"  {name:18s} {value} ms ({len(samples)} samples)")
    classes = Counter(r["class"] for r in records)
    print("  timed outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(classes.items())))
    # The census and the set-up cover every generated spec, failing ones too.
    family = [(label, klass) for label, klass, _, _ in census] + list(setup_outcomes)
    bad = sum(klass not in ("solved", "certified") for _, klass in family)
    print(f"  family fail_share  {bad / len(family):.4f} ({bad}/{len(family)} generated specs)")
    by_stratum = defaultdict(Counter)
    for label, klass in family:
        by_stratum[label.split(".")[0]][klass] += 1
    for stratum, counts in sorted(by_stratum.items()):
        print(f"    {stratum:8s} " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    print(f"  tamper self-check: {'caught' if tamper_caught else 'NOT CAUGHT'}")
    with open(WORK / f"outcomes-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed, "per_spec": dict(family),
             "ops": [[items[r["index"]]["label"], r["class"], r["times"]] for r in records]},
            fh, indent=1, sort_keys=True,
        )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (workloads.SRC / "qebundle", workloads.TESTS / "oracles.py"):
        if not needed.exists():
            sys.exit(f"error: {needed} not found; run from a full checkout of the repository")

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        setup_s, inputs = set_up(workload, args.seed, run_dir)
        workloads.import_program(package=workload.in_process)
        generated, setup_outcomes = workload.load(inputs)
        work_dir = run_dir / "ops"
        work_dir.mkdir()
        census_tracer = Tracer()
        traced_census = args.trace and workload.in_process
        census = run_census(workload, generated, work_dir, census_tracer if traced_census else None)
        # Only items that passed are timed, so a run's failures are the
        # program's, not the mix's; if none passed, all are timed.
        items = [item for item, c in zip(generated, census) if not c[2]] or generated

        if args.trace:
            tracer = Tracer()
            trace_dir = None if workload.in_process else run_dir / "traces"
            if trace_dir is not None:
                trace_dir.mkdir()
            records, traced = run_ops(
                workload, items, work_dir, args.seconds / 2, tracer, trace_dir
            )
            # Right after the ops, so that cli-cold's command time (wall
            # minus start-up) subtracts numbers from the same stretch of
            # machine load.
            startup = startup_split(workloads.program_env())
            metrics, missing = per_layer(tracer, census_tracer, records, traced, workload, startup)
            tracer.write_spans(WORK / f"spans-{workload.name}.tsv")
            if missing:
                print("missing per-layer metrics (entry point gone): " + ", ".join(missing))
        else:
            records, traced = run_ops(workload, items, work_dir, args.seconds)
            metrics = end_to_end(records, setup_s, workload)
        tamper_caught = workload.tamper(items, work_dir)
        report(workload, args.seed, records, setup_s, items, census, setup_outcomes, tamper_caught)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = traced or records  # the ops the metrics describe
    correct = tamper_caught and not any(r["wrong"] for r in records + traced)
    correct = correct and not any(wrong for _, _, _, wrong in census)
    correct = correct and all(klass != "wrong_root" for _, klass in setup_outcomes)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(measured),
                "failed": sum(r["failed"] for r in measured),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
