#!/usr/bin/env python3
"""cyclorb benchmark: four workloads, end-to-end metrics, traced per-layer times.

Run from the repository root; the package is imported from ./src.

    python3 perfbench/run.py --workload cft_catalog --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed 0] [--seconds 25] [--write-baseline FILE]

One run repeats the workload's task list (a pass), at least twice and
until another pass would overrun ``--seconds``, one task at a time in this
process.  Outputs of the first pass are checked by the oracles in
``workloads.py`` after the timed passes; later passes must reproduce them.

``--trace 0`` reports the end-to-end metrics.  Each pass's times are
divided by that pass's slowdown (``SpeedProbe``), so they read in reference
seconds; a task's time is its median over the run's passes.
setup_s: median over fresh processes of start-up to the first task
(imports plus input generation).  wall_s: the task times summed, the time
of one pass.  task_p50_s, task_max_s: the median and the largest task
time.  peak_rss_mb: ru_maxrss of this process.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py``, among them the tracing overhead that the wrappers time
themselves, and the traced pass time.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919          # not used while tuning; for confirming claims
DEFAULT_SECONDS = 25
SETUP_RUNS = 3
MIN_PASSES = 2                # a median of at least two; with --trace 1, one of each kind
REF_NOMINAL_S = 0.04          # SpeedProbe kernel at full speed on a 2.1 GHz Xeon
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cft_catalog", "rsos_curves", "chain_threshold", "cli_suite")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_max_s": "s",
             "peak_rss_mb": "MiB"}


def pin_blas(env) -> None:
    """Pin BLAS to one thread before numpy is first imported (children
    inherit).  One thread is as fast as two on these sizes and steadier
    when other processes share the cores."""
    for var in BLAS_VARS:
        env[var] = "1"


def source_dir() -> Path:
    src = Path.cwd() / "src"
    if not (src / "cyclorb" / "__init__.py").is_file():
        raise SystemExit("perfbench: ./src/cyclorb not found; run from the repository root")
    return src


def import_workloads(src: Path):
    """Import cyclorb from ./src (never an installed copy) and the workloads."""
    sys.path[:0] = [str(src), str(HERE)]
    import cyclorb
    if Path(cyclorb.__file__).resolve().parent != (src / "cyclorb").resolve():
        raise SystemExit(f"perfbench: imported cyclorb from {cyclorb.__file__}, not ./src")
    import workloads
    return workloads


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = os.environ.get("PERFBENCH_GIT_SHA", "unknown (not a git checkout)")
    if (Path.cwd() / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30).stdout.strip() or sha
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


# ---------------------------------------------------------------------------
# set-up time: fresh processes, spawn to "ready"


def setup_probe(workload: str, seed: int, small: bool) -> None:
    workloads = import_workloads(source_dir())
    workloads.build(workload, seed, small)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, small: bool, runs: int, speed) -> float:
    """Median spawn-to-ready time of fresh processes, in reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed)] + (["--small"] if small else [])
    times = []
    for _ in range(runs):
        speed.sample()
        speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise SystemExit("perfbench: set-up probe failed")
        times.append(t1 - t0)
    return statistics.median(times) / speed_factor(speed.samples)


class SpeedProbe:
    """Times a fixed reference kernel between tasks.

    The cores of a shared host run up to 1.6 times slower for stretches of
    a fraction of a second to minutes, whatever this process does.  The
    kernel, a Python integer loop and a 160 x 160 complex eigensolve (the
    interpreter and LAPACK work cyclorb does), slows with them.  A time
    divided by the slowdown of the kernel reads in reference seconds: what
    it would read at the host's full speed.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import eigvals
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._eigvals = eigvals
        self.samples = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        self._eigvals(self._a)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


def speed_factor(samples) -> float:
    """Mean reference-kernel time over its full-speed time."""
    return statistics.fmean(samples) / REF_NOMINAL_S


def reference_times(p: dict) -> dict:
    """Task times of pass p divided by the slowdown measured around them."""
    factor = speed_factor(p["refs"])
    return {n: t / factor for n, t in p["times"].items()}


# ---------------------------------------------------------------------------
# timed passes


def _same(a, b) -> bool:
    import numpy as np
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-12, atol=0.0,
                                                       equal_nan=True))
    return a == b


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, tasks=None, spans_out=None) -> dict:
    """Timed passes, then the oracles; returns per-pass times and task outcomes."""
    from tracer import LAYERS, Tracer
    modules = {m: importlib.import_module(f"cyclorb.{m}") for m in LAYERS}
    tasks = workloads.build(name, seed, small) if tasks is None else tasks
    first, digests, bad = {}, {}, {}
    passes = []
    speed = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            longest = max((p["wall"] for p in passes), default=0.0)
            if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
                break
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            ctx = {"tmp": Path(tmp)}
            times, outs, refs = {}, {}, []
            if tracer:
                tracer.install(modules)
            t0 = time.perf_counter()
            try:
                for task in tasks:
                    if tracer:
                        tracer.task = task.name
                    refs.append(speed.sample())
                    ts = time.perf_counter()
                    try:
                        outs[task.name] = task.run(ctx)
                    except Exception as exc:  # a raising task is a failed task
                        outs[task.name] = None
                        bad.setdefault(task.name, f"raised {type(exc).__name__}: {exc}")
                    times[task.name] = time.perf_counter() - ts
            finally:
                refs.append(speed.sample())
                wall = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            for task in tasks:
                out = outs[task.name]
                if out is None:
                    continue
                if task.name not in first:
                    first[task.name] = out
                    digests[task.name] = task.digest(out)
                elif not _same(task.digest(out), digests[task.name]):
                    bad.setdefault(task.name, "output differs between passes")
            passes.append({"traced": traced, "wall": wall, "times": times, "refs": refs,
                           "layers": tracer.metrics() if tracer else None,
                           "spans": len(tracer.spans) if tracer else 0})
            if tracer and spans_out is not None:
                spans_out.extend(tracer.spans)
        results = {}
        for task in tasks:
            if task.name in bad or task.name not in first:
                results[task.name] = ("failed", [bad.get(task.name, "no output")])
                continue
            checks = task.check(first[task.name], first)
            results[task.name] = (workloads.outcome(checks),
                                  [f"{'ok' if c.ok else 'MISS'} {c.name}: {c.detail}"
                                   + (f" [known defect {c.defect}]" if c.defect and not c.ok
                                      else "") for c in checks])
    return {"passes": passes, "results": results, "tasks": [t.name for t in tasks]}


def summarize(run: dict, setup_s: float | None) -> dict:
    """End-to-end and per-layer metrics of one run: name -> (value, unit)."""
    plain = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    med = statistics.median
    factor = speed_factor([r for p in plain for r in p["refs"]])
    raw = {n: med(p["times"][n] for p in plain) for n in run["tasks"]}
    plain_ref = [reference_times(p) for p in plain]
    per_task = {n: med(t[n] for t in plain_ref) for n in run["tasks"]}
    n_pass = len(run["passes"])
    counts = {"ok": 0, "known_defect": 0, "failed": 0}
    for status, _ in run["results"].values():
        counts[status] += n_pass
    attempted = n_pass * len(run["tasks"])
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_task.values()), "s"),
        "task_p50_s": (med(per_task.values()), "s"),
        "task_max_s": (max(per_task.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "failed_frac": ((counts["failed"] + counts["known_defect"]) / attempted,
                        f"ratio (base: {attempted} tasks attempted)"),
        "unexpected_failed_frac": (counts["failed"] / attempted, "ratio"),
        "speed_factor": (factor, f"ratio (mean reference kernel time over {REF_NOMINAL_S} s)"),
        "wall_raw_s": (sum(raw.values()), "s (not rescaled)"),
        "tasks_per_pass": (len(run["tasks"]), "count"),
        "passes": (len(plain), "count"),
    }
    layers = {}
    if traced:
        # times in reference seconds, each pass divided by its own slowdown
        scaled = []
        for p in traced:
            f = speed_factor(p["refs"])
            scaled.append({k: (v / f if u == "s" else v, u) for k, (v, u) in p["layers"].items()})
        layers = {k: (med(m[k][0] for m in scaled), u) for k, (_, u) in scaled[0].items()}
        t1, t2 = per_task.get("correlator.threads1"), per_task.get("correlator.threads2")
        layers["cli.threads2_over_threads1"] = (t2 / t1 if t1 and t2 else 0.0, "ratio")
        traced_s = med(sum(reference_times(p).values()) for p in traced)
        layers["trace.wall_s"] = (traced_s, "s")
        extra["trace.wall_diff_s"] = (traced_s - med(sum(t.values()) for t in plain_ref),
                                      "s (traced minus untraced pass; host noise included)")
        extra["trace_spans"] = (med(p["spans"] for p in traced), "count")
    return {"e2e": e2e, "extra": extra, "layers": layers, "counts": counts,
            "attempted": attempted}


def run_one(args) -> int:
    src = source_dir()
    setup_s = measure_setup(args.workload, args.seed, args.small,
                            1 if args.small else SETUP_RUNS, SpeedProbe())
    workloads = import_workloads(src)
    run = run_workload(workloads, args.workload, args.seed, args.seconds, bool(args.trace),
                       args.small)
    s = summarize(run, setup_s)
    for name, (status, lines) in run["results"].items():
        print(f"task {name} {status}: " + "; ".join(lines))
    for name, (value, unit) in {**s["e2e"], **s["extra"], **s["layers"]}.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    print("machine " + json.dumps(machine_record()))
    chosen = s["layers"] if args.trace else s["e2e"]
    print(json.dumps({
        "correct": s["counts"]["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["counts"]["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, both modes


def run_all(args) -> int:
    source_dir()
    report = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            sys.stdout.write(proc.stdout)
            entry = report["workloads"].setdefault(workload, {})
            entry[f"trace{trace}"] = json.loads(lines[-1])
            entry["tasks"] = [ln[5:] for ln in lines if ln.startswith("task ")]
            entry[f"printed{trace}"] = {ln.split()[2]: " ".join(ln.split()[4:])
                                        for ln in lines if ln.startswith("metric ")}
            report["machine"] = json.loads(next(ln[8:] for ln in lines
                                                if ln.startswith("machine ")))
    print("\nsummary (trace 0 medians; failed_frac counts known seed defects)")
    for workload, entry in report["workloads"].items():
        for name in (*E2E_UNITS, "failed_frac"):
            print(f"  {workload:16s} {name:18s} {entry['printed0'][name]}")
        for name in ("trace.overhead_s", "trace.wall_diff_s"):
            print(f"  {workload:16s} {name:18s} {entry['printed1'][name]}")
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, trace 0 and 1")
    ap.add_argument("--write-baseline", default=None, help="with --all: write results here")
    ap.add_argument("--small", action="store_true", help="tiny inputs (the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_blas(os.environ)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.small)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
