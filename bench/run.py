#!/usr/bin/env python3
"""mimodet benchmark: `mimodet sweep` workloads measured end to end and per layer.

    python3 bench/run.py --workload zf-delta3 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload in turn

With ``--trace 0`` the benchmark runs `python3 -m mimodet.cli sweep` on the
workload's config again and again for ``--seconds`` (at least three times)
and reports medians of the end-to-end metrics.  With ``--trace 1`` it runs
the same config in process with spans around the program's public functions
and reports the per-layer metrics.  Both modes check the sweep outputs; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is run from the
checkout's ``src/`` and nothing is installed; BLAS/OpenMP thread variables
are inherited as they are and recorded.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "mimodet"

from checks import check_csv, failed  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

#: Sweeps per untraced run at the least, so every median has several samples.
MIN_REPS = 3

#: End-to-end metric -> (unit, better).
END_TO_END = {
    "trials_per_s": ("trials/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: SHA-256 of each workload's CSV at DEFAULT_SEED; moved CSV bytes fail a check.
GOLDEN_SHA256 = json.loads((BENCH / "golden_sha256.json").read_text())


def program_env() -> dict[str, str]:
    """The inherited environment with the checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def environment(w: Workload, seed: int) -> dict:
    """What the result was measured on; numpy's build is read in a child process."""
    code = (
        "import json, numpy, scipy\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "lib = lambda d: ' '.join(str(d.get(k, '')) for k in ('name', 'version', 'openblas configuration')).strip()\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
        "                  'blas': lib(deps.get('blas', {})), 'lapack': lib(deps.get('lapack', {}))}))\n"
    )
    libs = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=program_env(), capture_output=True, text=True, check=True
    ).stdout)
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {
        "cpu": models[0] if models else platform.processor(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **libs,
        "platform": platform.platform(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "workload": w.name,
        "seed": seed,
        "threads": w.threads,
    }


def run_sweep(cfg: Path, out: Path, threads: int, log: Path) -> dict:
    """One `mimodet sweep` process: wall time from spawn to exit, rusage via wait4.

    wait4 reports the process together with the pool workers it reaped, so
    CPU is the sum over all of them and max-RSS the largest of them.
    """
    manifest = out.with_suffix(".manifest.json")
    for p in (out, manifest):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "mimodet.cli", "sweep", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=program_env(), stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0:
        man = json.loads(manifest.read_text())
        data = out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode(), newline="")))
        trials = sum(int(r["trials"]) for r in rows)
        rep.update(
            csv=data,
            trials_per_s=trials / sum(c["duration_s"] for c in man["campaigns"]),
            setup_s=wall - man["duration_s"],
        )
    return rep


def measure(w: Workload, seed: int, seconds: float, workdir: Path):
    """Untraced run: repeat the sweep for ``seconds``; medians and checks."""
    cfg = workdir / "sweep.cfg"
    cfg.write_text(w.config_text(seed))
    reps, checks = [], []
    first = None
    start = time.perf_counter()
    # start another sweep only while a typical one still ends within ``seconds``
    while len(reps) < MIN_REPS or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in reps) <= seconds
    ):
        rep = run_sweep(cfg, workdir / "sweep.csv", w.threads, workdir / "sweep.log")
        checks.append(("sweep exit 0", rep["rc"] == 0))
        if rep["rc"] != 0:
            sys.stderr.write((workdir / "sweep.log").read_text())
            break
        checks.extend(check_csv(rep["csv"].decode(), w))
        digest = hashlib.sha256(rep["csv"]).hexdigest()
        if first is None:
            first = digest
            checks.extend(golden_checks(w, seed, digest))
        else:
            checks.append(("CSV identical across repeats", digest == first))
        reps.append(rep)
    metrics = {name: statistics.median(r[name] for r in reps) for name in END_TO_END} if reps else {}
    return metrics, checks, {"reps": len(reps), "per_rep": [{k: v for k, v in r.items() if k != "csv"} for r in reps]}


def golden_checks(w: Workload, seed: int, digest: str) -> list[tuple[str, bool]]:
    if seed != DEFAULT_SEED or w.name not in GOLDEN_SHA256:
        return []
    return [("CSV SHA-256 equals the recorded one", digest == GOLDEN_SHA256[w.name])]


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    workdir = OUT / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = environment(w, seed)
        if trace:
            from tracer import traced_run

            metrics, checks, csv_bytes = traced_run(SRC, w, seed, workdir)
            checks.extend(golden_checks(w, seed, hashlib.sha256(csv_bytes).hexdigest()))
            extra = {}
        else:
            metrics, checks, extra = measure(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"env": env, "metrics": metrics, "attempted": len(checks),
              "failed_checks": failed(checks), **extra}
    (OUT / f"result-{w.name}-{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict, names: dict[str, tuple[str, str]], trace: int) -> None:
    env = result["env"]
    print(f"# workload {env['workload']}  seed {env['seed']}  threads {env['threads']}  trace {trace}"
          + (f"  sweeps {result['reps']}" if "reps" in result else ""))
    for name, (unit, _) in names.items():
        print(f"{name:<40} {result['metrics'][name]:>16.6g}  {unit}")
    attempted, bad = result["attempted"], len(result["failed_checks"])
    print(f"{'failed_frac':<40} {bad / max(attempted, 1):>16.6g}  ratio  ({bad} of {attempted} checks)")
    for label in result["failed_checks"][:20]:
        print(f"FAILED CHECK: {label}", file=sys.stderr)
    print("env: " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mimodet" / "cli.py").is_file():
        print(f"error: no mimodet sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(SRC / "mimodet"), quiet=1)  # the build: bytecode for every module

    names = per_layer_metrics() if args.trace else END_TO_END
    selected = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict] = {}
    attempted = bad = 0
    for name in selected:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        if len(result["metrics"]) != len(names):
            print(f"error: workload {name} produced no measurement", file=sys.stderr)
            return 1
        print_table(result, names, args.trace)
        attempted += result["attempted"]
        bad += len(result["failed_checks"])
        prefix = f"{name}." if len(selected) > 1 else ""
        metrics.update({prefix + k: {"value": result["metrics"][k], "unit": names[k][0]} for k in names})
    print(json.dumps({"correct": bad == 0, "attempted": attempted, "failed": bad, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
