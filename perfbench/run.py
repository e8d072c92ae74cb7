"""haptix benchmark.

Drives haptix only through `haptix.cli.main(argv)`, in process, with the
commands a user types. Each workload is a closed loop with one client: the
next command starts when the previous one has finished. One pass over a
workload's commands is a cycle; a run repeats cycles for --seconds and
reports medians.

    python3 perfbench/run.py --workload cv-release --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced cycles
with cycles in which every public function of every layer is wrapped in a
span, and prints the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: the fold workers are the only compute threads,
# at most nproc of them.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
HOST_LOOP_N = 1_000_000


def metric_units(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def host_loop_s() -> float:
    """Host-speed reading: median time of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(HOST_LOOP_N):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "commit": git_commit()}


def import_s() -> float:
    """Interpreter start plus `import haptix`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import haptix"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - start


def run_step(step, cli, contacts=None, expected=None) -> dict:
    """Run one command; return its wall time, accuracy and problems."""
    from workloads import check_report, file_digest
    if step.workers:
        os.environ["HAPTIX_WORKERS"] = str(NPROC)
    else:
        os.environ.pop("HAPTIX_WORKERS", None)
    if contacts is not None:
        contacts.clear()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(step.argv)
    except Exception:  # a crash is one failed operation; the run goes on
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    # problems[check] lists what a check found; an empty list is a pass
    result = {"label": step.label, "wall": wall, "acc": None, "confusion": None,
              "digest": None, "problems": {"exit": []}}
    if code != 0:
        result["problems"]["exit"] = [f"exit {code}: {err.getvalue().strip()[-400:]}"]
        return result
    if step.canonical is not None:
        result["digest"] = file_digest(step.canonical)
    if step.report_trials:
        problems, result["acc"], result["confusion"] = check_report(step)
        result["problems"]["report"] = problems
    if contacts:
        bad = []
        for tid, got in contacts.items():
            want = expected.get(tid)
            if want is None or abs(got - want[0]) > want[1] * (1 + 1e-9):
                bad.append(f"{tid}: contact {got} vs known {want and want[0]}")
        result["problems"]["contacts"] = bad[:5]
    return result


def passed(result) -> bool:
    return not any(result["problems"].values())


def run_cycle(steps, cli, contacts=None, expected=None) -> dict:
    results = [run_step(s, cli, contacts, expected) for s in steps]
    return {"wall": sum(r["wall"] for r in results), "steps": results}


def check_repeats(cycles) -> None:
    """Cycles of one seed must report identical accuracies and confusions,
    and write byte-identical canonical files."""
    first = cycles[0]["steps"]
    for c in cycles[1:]:
        for r0, r in zip(first, c["steps"]):
            if not (passed(r) and passed(r0)):
                continue
            key = ("acc", "confusion", "digest")
            same = [r[k] for k in key] == [r0[k] for k in key]
            r["problems"]["repeat"] = [] if same else [
                f"{r['label']} output differs from cycle 1"]


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from haptix import cli
    import layers
    import tracing
    import workloads

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = workload.steps(work)
    env = environment()
    env["host_loop_s_before"] = host_loop_s()
    print("env " + json.dumps(env), flush=True)

    setup_trace = None
    setups = []
    for rep in range(1 if trace else SETUP_REPEATS):
        imp = import_s()
        start = time.perf_counter()
        if trace:
            setup_trace = tracing.Tracer()
            with tracing.Shims(setup_trace, layers.make_targets({})):
                inputs = workload.make_inputs(seed, work)
        else:
            inputs = workload.make_inputs(seed, work)
        setups.append(imp + time.perf_counter() - start)
    expected = workloads.expected_contacts(inputs)
    print("inputs " + json.dumps(inputs.props), flush=True)

    cycles, tracers = [], []
    contacts = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(cycles) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracing.Shims(tracer, layers.make_targets(contacts)):
                cycle = run_cycle(steps, cli, contacts, expected)
            tracers.append(tracer)
        else:
            cycle = run_cycle(steps, cli)
        cycle["traced"] = traced
        cycles.append(cycle)
        if len(cycles) == 1:
            for step, r in zip(steps, cycle["steps"]):
                if step.canonical is not None and passed(r):
                    r["problems"]["canonical"] = workloads.check_canonical(
                        step.canonical, inputs.raw)[:5]
        # stop at the cycle boundary nearest to --seconds (a traced run needs
        # one untraced and one traced cycle)
        left = seconds - (time.perf_counter() - start)
        if (not trace or len(cycles) >= 2) and \
                left < statistics.median(c["wall"] for c in cycles) / 2:
            break
    check_repeats(cycles)
    for i, tracer in enumerate(tracers):
        tracer.write(work / f"spans-{i}.jsonl")
    env["host_loop_s_after"] = host_loop_s()
    return {"env": env, "inputs": inputs, "setups": setups, "cycles": cycles,
            "tracers": tracers, "setup_trace": setup_trace}


def report(m: dict, trace: bool) -> dict:
    import layers
    import tracing

    cycles = m["cycles"]
    plain = [c for c in cycles if not c["traced"]]
    ops = [r for c in cycles for r in c["steps"]]
    failed = sum(1 for r in ops if not passed(r))
    labels = [r["label"] for r in cycles[0]["steps"]]

    def step_median(label, key):
        return median_of([r[key] for c in plain for r in c["steps"] if r["label"] == label])

    wall = statistics.median(c["wall"] for c in plain)
    accs = {label: step_median(label, "acc") for label in labels}
    known = [a for a in accs.values() if a is not None]
    e2e = {
        "setup_s": statistics.median(m["setups"]),
        "wall_s": wall,
        "trials_per_s": m["inputs"].trials / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_mean": statistics.fmean(known) if known else None,
    }
    extra = {f"{clf}_s": step_median(clf, "wall") for clf in ("hmm", "tcn", "lstm")}
    extra.update({f"accuracy_{clf}": accs.get(clf)
                  for clf in ("svm", "hmm", "tcn", "lstm")})
    extra["error_rate"] = failed / len(ops)

    for i, c in enumerate(cycles):
        parts = ", ".join(f"{r['label']} {r['wall']:.3f} s"
                          + (f" acc {r['acc']:.4f}" if r["acc"] is not None else "")
                          for r in c["steps"])
        kind = " traced" if c["traced"] else ""
        print(f"cycle {i + 1}{kind}: {c['wall']:.3f} s ({parts})")
    for name in ("exit", "report", "canonical", "repeat", "contacts"):
        found = [r["problems"][name] for r in ops if name in r["problems"]]
        problems = [p for f in found for p in f]
        if problems:
            verdict = "FAIL " + "; ".join(problems[:3])
        else:
            verdict = f"pass ({len(found)} operations)" if found else "not run"
        print(f"check {name}: {verdict}")
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        walls_t = [c["wall"] for c in cycles if c["traced"]]
        per_cycle = []
        for tracer in m["tracers"]:
            summary = layers.add_rows(tracing.summarize(m["setup_trace"].spans),
                                      tracing.summarize(tracer.spans))
            missing = set(m["setup_trace"].missing) | set(tracer.missing)
            per_cycle.append(layers.span_metrics(summary, missing, units))
        metrics = {name: median_of([pc[name] for pc in per_cycle])
                   for name in per_cycle[0]}
        metrics["trace_overhead"] = statistics.median(walls_t) / wall - 1.0
        metrics.update((k, v if v is not None else 0.0) for k, v in extra.items()
                       if k != "error_rate")
        missing = sorted(set(m["tracers"][0].missing) | set(m["setup_trace"].missing))
        if missing:
            print("missing targets (metrics reported as null): " + ", ".join(missing))
        for name, unit in units.items():
            print(f"layer {name} {metrics[name]} {unit}")
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in units.items()}
    else:
        for name, value in list(e2e.items()) + list(extra.items()):
            unit = units.get(name, "s" if name.endswith("_s") else "ratio")
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"metric {name} {shown} {unit}")
        out_metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in units.items()}
    print("env " + json.dumps(m["env"]))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": out_metrics}


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            try:
                ok &= proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                ok = False
    print("all workloads correct" if ok else "some workload FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "haptix" / "__init__.py").is_file():
        print(f"error: no haptix source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    m = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
