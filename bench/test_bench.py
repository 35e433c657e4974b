"""Self-test of the benchmark: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_csv, failed
from run import END_TO_END, ROOT, SRC
from tracer import per_layer_metrics, summarize
from workloads import DEFAULT_SEED, WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Metric names the benchmark is specified to print, independent of the code that prints them.
SPECIFIED_END_TO_END = {"trials_per_s", "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "failed_frac"}
SPECIFIED_PER_LAYER = {
    "channel.substream_us", "channel.sample_instance_us", "constellation.nearest_symbols_us",
    "detect.zf_us", "detect.ml_exhaustive_us", "detect.ml_candidates_per_s", "detect.ml_exhaustive_flops",
    "detect.ml_sphere_us", "detect.score_us", "montecarlo.run_trial_us", "montecarlo.trial_self_us",
    "montecarlo.parallel_eff", "montecarlo.blocks_discarded", "theory.overlay_us",
    "cli.import_s", "cli.load_config_ms", "cli.write_ms", "cli.fit_ms",
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def small_csv(name: str) -> tuple[str, object]:
    """A real sweep CSV of a cut-down copy of a workload, made in process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from mimodet.cli import cmd_sweep

    w = dataclasses.replace(WORKLOADS[name], trials=64, target_errors=None)
    out = ROOT / ".bench_build" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / f"{name}.cfg"
    cfg.write_text(w.config_text(DEFAULT_SEED))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cmd_sweep(str(cfg), str(out / f"{name}.csv")) == 0
    return (out / f"{name}.csv").read_text(), w


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_config_is_pure_function_of_workload_and_seed(name):
    assert config_text(name, 7) == config_text(name, 7)
    a, b = config_text(name, 7).splitlines(), config_text(name, 8).splitlines()
    assert [x for x, y in zip(a, b) if x != y] == ["master_seed = 7"]
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); from workloads import config_text; print(config_text({name!r}, 7), end='')"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert fresh == config_text(name, 7)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_rows_fail_checks(name):
    text, w = small_csv(name)
    assert failed(check_csv(text, w)) == []
    lines = text.splitlines(keepends=True)
    row = lines[1].split(",")
    too_many = row.copy()
    too_many[4] = str(int(row[3]) + 1)  # errors > trials
    below = row.copy()
    below[4], below[5], below[6], below[7] = "0", "1.000000000e-12", "0.000000000e+00", "1.000000000e-12"
    for bad in (too_many, below):
        checks = check_csv("".join([lines[0], ",".join(bad), *lines[2:]]), w)
        assert 0 < len(failed(checks)) / len(checks) < 1
    labels = failed(check_csv("".join([lines[0], ",".join(below), *lines[2:]]), w))
    if w.detectors[0] != "zf":
        assert any("ML lower/union" in label for label in labels)


def test_tail_percentile_has_ten_samples_beyond():
    assert summarize([]) == (0.0, 0.0, 0.0, 0)
    med, tail, pct, n = summarize([float(i) for i in range(1, 1001)])
    assert (med, tail, pct, n) == (500.5, 990.0, 99.0, 1000)
    assert summarize([float(i) for i in range(100)])[2] == 90.0
    assert summarize([1.0, 2.0, 3.0])[1:3] == (3.0, 100.0)


def test_metric_names_match_specification():
    assert set(END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(END_TO_END) | {"failed_frac"} == SPECIFIED_END_TO_END
    assert list(per_layer_metrics()) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == (END_TO_END | per_layer_metrics())[m["name"]]
    bases = {name for name in per_layer_metrics() if not name.endswith((".tail", ".tail_pct", ".n"))}
    assert bases == SPECIFIED_PER_LAYER | {"trace.overhead_trials_per_s"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics(trace):
    res = run_bench("--workload", "sphere-pool", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    key = "end_to_end" if trace == "0" else "per_layer"
    assert list(last["metrics"]) == [m["name"] for m in SPEC[key]]
    printed = {line.split()[0] for line in lines if line and not line.startswith(("#", "env:", "{"))}
    assert printed == set(last["metrics"]) | {"failed_frac"}
    assert any(line.startswith("env: ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = run_bench("--workload", "sphere-pool", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
