"""Traced run: spans around calls into mimodet's public functions.

Spans are recorded by wrappers defined here and swapped into the program's
module namespaces for the length of one run, so the program itself is not
edited.  Each span is [name, start, end, parent index, trial id]; the spans
of one trial share the id "m:trial".  Spans stay in memory and are written
out when the run ends.  The sweep inside the traced run is serial, because
spans recorded in pool workers would stay in the workers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_csv
from workloads import TRIAL_BLOCK, Workload

#: Repeats that give the short layers enough samples for a tail percentile.
WRITE_REPS = 100
FIT_REPS = 100
OVERLAY_REPS = 400
IMPORT_REPS = 5

#: Timed layers: metric base name -> (unit, scale from seconds).
TIMINGS = {
    "channel.substream_us": ("us", 1e6),
    "channel.sample_instance_us": ("us", 1e6),
    "constellation.nearest_symbols_us": ("us", 1e6),
    "detect.zf_us": ("us", 1e6),
    "detect.ml_exhaustive_us": ("us", 1e6),
    "detect.ml_sphere_us": ("us", 1e6),
    "detect.score_us": ("us", 1e6),
    "montecarlo.run_trial_us": ("us", 1e6),
    "montecarlo.trial_self_us": ("us", 1e6),
    "theory.overlay_us": ("us", 1e6),
    "cli.import_s": ("s", 1.0),
    "cli.load_config_ms": ("ms", 1e3),
    "cli.write_ms": ("ms", 1e3),
    "cli.fit_ms": ("ms", 1e3),
}

#: Layer metrics that are not per-call timings: name -> (unit, better).
COUNTERS = {
    "detect.ml_candidates_per_s": ("1/s", "higher"),
    "detect.ml_exhaustive_flops": ("flop", "lower"),
    "montecarlo.parallel_eff": ("ratio", "higher"),
    "montecarlo.blocks_discarded": ("count", "lower"),
    "trace.overhead_trials_per_s": ("trials/s", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in print order."""
    out: dict[str, tuple[str, str]] = {}
    for base, (unit, _) in TIMINGS.items():
        out[base] = (unit, "lower")
        out[base + ".tail"] = (unit, "lower")
        out[base + ".tail_pct"] = ("%", "higher")
        out[base + ".n"] = ("count", "higher")
    out.update(COUNTERS)
    return out


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least 10 samples beyond it; 100 (the max) below 20 samples."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return pct
    return 100.0


def summarize(samples: list[float]) -> tuple[float, float, float, int]:
    """(median, tail value, tail percentile, sample count); zeros when empty."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    xs = sorted(samples)
    pct = tail_percentile(n)
    # nearest-rank percentile
    tail = xs[min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))]
    return statistics.median(xs), tail, pct, n


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, trial) -> list:
        parent = self._stack[-1] if self._stack else -1
        if trial is None and parent >= 0:
            trial = self.spans[parent][4]
        rec = [name, 0.0, 0.0, parent, trial]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, trial=None):
        rec = self._open(name, trial)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, trial_of=None):
        def traced(*args, **kwargs):
            rec = self._open(name, trial_of(args) if trial_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "trial"], "spans": self.spans}))


@contextlib.contextmanager
def installed(tracer: Tracer, cli, detect, montecarlo):
    """Swap traced wrappers into the program's namespaces; restore on exit.

    A name the program no longer has is skipped, so its layer reports n = 0.
    """
    targets = [
        (montecarlo, "run_trial", lambda a: f"{a[0]}:{a[3]}"),
        (montecarlo, "substream", None),
        (montecarlo, "sample_instance", None),
        (montecarlo, "detect_zf", None),
        (montecarlo, "detect_ml_exhaustive", None),
        (montecarlo, "detect_ml_sphere", None),
        (detect, "nearest_symbols", None),
        (detect.DetectionOutcome, "scored", None),
        (cli, "load_config", None),
        (cli, "sweep", None),
    ]
    targets = [t for t in targets if hasattr(t[0], t[1])]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, trial_of in targets:
            setattr(owner, attr, tracer.wrap(attr, getattr(owner, attr), trial_of))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _import_seconds(src: Path) -> list[float]:
    """Time `import mimodet.cli` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import mimodet.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = []
    for _ in range(IMPORT_REPS):
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def _counts(result, det: str, i: int) -> tuple[int, int, int]:
    p = result.curves[det].points[i]
    return p.errors, p.symbol_errors_total, p.user1_errors


def _blocks_discarded(w: Workload, trials_done: list[int]) -> int:
    """Speculative blocks the pool computed after each point's stop.

    After the stop at block i the pool holds blocks i+1 .. i+L-1 (lookahead
    L = max(2 workers, 4)), capped by the point's last block.
    """
    if w.threads == 1:
        return 0
    lookahead = max(2 * w.threads, 4)
    last_block = -(-w.trials // TRIAL_BLOCK) - 1
    return sum(min(lookahead - 1, last_block - (-(-t // TRIAL_BLOCK) - 1)) for t in trials_done)


def traced_run(src: Path, w: Workload, seed: int, workdir: Path):
    """Per-layer metrics, checks and trace file for one workload.

    Returns (metrics {name: value}, checks [(label, ok)], csv bytes).
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from mimodet import cli, detect, montecarlo, theory

    cfg_path = workdir / "traced.cfg"
    cfg_path.write_text(w.config_text(seed))
    csv_path = workdir / "traced.csv"
    config = cli.load_config(str(cfg_path))[0].config
    checks: list[tuple[str, bool]] = []
    metrics: dict[str, float] = {}

    serial = montecarlo.sweep(config, workers=1)
    trials_done = [serial.curves[w.detectors[0]].points[i].trials for i in range(len(w.m_grid))]
    det_trials = sum(trials_done) * len(w.detectors)
    if w.threads > 1:
        pooled = montecarlo.sweep(config, workers=w.threads)
        metrics["montecarlo.parallel_eff"] = serial.duration_s / (w.threads * pooled.duration_s)
        checks.append(("pooled sweep equals serial sweep", all(
            _counts(pooled, d, i) == _counts(serial, d, i) and pooled.curves[d].points[i].trials == trials_done[i]
            for d in w.detectors for i in range(len(w.m_grid))
        )))
    else:
        metrics["montecarlo.parallel_eff"] = 1.0
    metrics["montecarlo.blocks_discarded"] = float(_blocks_discarded(w, trials_done))

    tracer = Tracer()
    cmd_sweep = tracer.wrap("cmd_sweep", cli.cmd_sweep)
    cmd_fit = tracer.wrap("cmd_fit", cli.cmd_fit)
    with contextlib.redirect_stdout(io.StringIO()), installed(tracer, cli, detect, montecarlo):
        checks.append(("traced cmd_sweep exit 0", cmd_sweep(str(cfg_path), str(csv_path), None, 1) == 0))
        traced_sweep_s = tracer.durations("sweep")[0]
        csv_bytes = csv_path.read_bytes()
        checks.extend(check_csv(csv_bytes.decode(), w))
        # the rest of cmd_sweep, with the sweep replaced by the finished result
        real_sweep = cli.sweep
        cli.sweep = tracer.wrap("sweep", lambda cfg, workers=1: serial)
        try:
            for _ in range(WRITE_REPS):
                cmd_sweep(str(cfg_path), str(workdir / "rewrite.csv"), None, 1)
        finally:
            cli.sweep = real_sweep
        checks.append(("rewritten CSV equals traced CSV", (workdir / "rewrite.csv").read_bytes() == csv_bytes))
        fit_codes = [cmd_fit(str(csv_path), 10) for _ in range(FIT_REPS)]
        checks.append(("cmd_fit exit 0", all(c == 0 for c in fit_codes)))
    for m, n in w.grid_points():
        for _ in range(OVERLAY_REPS):
            with tracer.span("theory_overlay"):
                p = theory.SystemParams.from_system(config.constellation, config.sigma2, m=m, n=n)
                theory.ml_lower_bound_log(p)
                theory.ml_union_bound_log(p)
                theory.zf_vep_bounds_log(p)
    tracer.write(workdir.parent / f"trace-{w.name}-{seed}.json")
    # the first sweep warmed caches up; compare the traced sweep with a warm one
    untraced_tps = det_trials / montecarlo.sweep(config, workers=1).duration_s

    checks.extend(_replay_checks(w, config, serial, trials_done))
    metrics.update(_layer_metrics(tracer, w, _import_seconds(src)))
    metrics["trace.overhead_trials_per_s"] = det_trials / traced_sweep_s - untraced_tps
    return metrics, checks, csv_bytes


def _replay_checks(w: Workload, config, serial, trials_done: list[int]) -> list[tuple[str, bool]]:
    """Replay every trial outside the sweep machinery and compare with sweep()."""
    from mimodet import channel, detect

    detectors = {"zf": detect.detect_zf, "ml-exhaustive": detect.detect_ml_exhaustive, "ml-sphere": detect.detect_ml_sphere}
    c = config.constellation
    checks, sphere_same = [], []
    for i, (m, n) in enumerate(w.grid_points()):
        counts = {d: [0, 0, 0] for d in w.detectors}
        for t in range(trials_done[i]):
            inst = channel.sample_instance(m, n, c, config.sigma2, channel.substream(config.master_seed, i, t))
            decisions = {d: detectors[d](inst.H, inst.r, c).x_hat for d in w.detectors}
            for d, x_hat in decisions.items():
                errs = x_hat != inst.x_true
                counts[d][0] += int(errs.any())
                counts[d][1] += int(errs.sum())
                counts[d][2] += int(errs[0])
            if "ml-sphere" in decisions and t < TRIAL_BLOCK:
                exhaustive = detect.detect_ml_exhaustive(inst.H, inst.r, c).x_hat
                sphere_same.append(bool((exhaustive == decisions["ml-sphere"]).all()))
        for d in w.detectors:
            checks.append((f"m={m} {d} replay counts equal sweep()", tuple(counts[d]) == _counts(serial, d, i)))
    if sphere_same:
        checks.append((f"ml-sphere equals ml-exhaustive on {len(sphere_same)} replayed instances", all(sphere_same)))
    return checks


def _layer_metrics(tracer: Tracer, w: Workload, import_s: list[float]) -> dict[str, float]:
    """Every TIMINGS entry summarized, plus the exhaustive-ML rate and flop count."""
    samples = {
        "channel.substream_us": tracer.durations("substream"),
        "channel.sample_instance_us": tracer.durations("sample_instance"),
        "constellation.nearest_symbols_us": tracer.durations("nearest_symbols"),
        "detect.zf_us": tracer.durations("detect_zf"),
        "detect.ml_exhaustive_us": tracer.durations("detect_ml_exhaustive"),
        "detect.ml_sphere_us": tracer.durations("detect_ml_sphere"),
        "detect.score_us": tracer.durations("scored"),
        "montecarlo.run_trial_us": tracer.durations("run_trial"),
        "theory.overlay_us": tracer.durations("theory_overlay"),
        "cli.import_s": import_s,
        "cli.load_config_ms": tracer.durations("load_config"),
        "cli.fit_ms": tracer.durations("cmd_fit"),
    }
    own = tracer.self_times()
    samples["montecarlo.trial_self_us"] = [own[k] for k, s in enumerate(tracer.spans) if s[0] == "run_trial"]
    sweep_child = {s[3]: s[2] - s[1] for s in tracer.spans if s[0] == "sweep"}
    samples["cli.write_ms"] = [
        s[2] - s[1] - sweep_child.get(k, 0.0) for k, s in enumerate(tracer.spans) if s[0] == "cmd_sweep"
    ]
    metrics: dict[str, float] = {}
    for base, (_, scale) in TIMINGS.items():
        med, tail, pct, n = summarize([x * scale for x in samples[base]])
        metrics.update({base: med, base + ".tail": tail, base + ".tail_pct": pct, base + ".n": float(n)})

    # computed cost of one exhaustive call with K = M^n candidates, n users, m antennas:
    # complex multiply-adds (8 real flops each) for G, b, X^H G, the quadratic form and X^H b
    n_of = dict(w.grid_points())
    rates, flops = [], []
    for s in tracer.spans:
        if s[0] == "detect_ml_exhaustive" and s[4] is not None:
            m = int(s[4].split(":")[0])
            n, K = n_of[m], w.M ** n_of[m]
            rates.append(K / (s[2] - s[1]))
            flops.append(8.0 * (m * n * n + m * n + K * n * n + 2 * K * n))
    metrics["detect.ml_candidates_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["detect.ml_exhaustive_flops"] = statistics.fmean(flops) if flops else 0.0
    return metrics
