"""CLI tests: config parsing, CSV contract, determinism, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mimodet
from mimodet.cli import CSV_COLUMNS, ConfigError, load_config, main
from mimodet.constellation import Constellation, make_constellation

INI_CONFIG = """\
[constellation]
kind = qam
M = 16

[experiment]
detectors = zf
snr_db = 0
n = 2
m_grid = 6, 8, 10
trials = 300
master_seed = 42
"""

CUSTOM_CONFIG = """\
[constellation]
kind = custom
symbols = 1,0; 0,1; -1,0; 0.1,-0.7

[experiment]
detectors = zf, ml-sphere
snr_db = 3
delta = 0.5
m_grid = 4, 6
trials = 200
master_seed = 5

[variant:fixed-n]
n = 1
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def ini_path(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(INI_CONFIG)
    return p


def test_load_ini(ini_path):
    campaigns = load_config(str(ini_path))
    assert len(campaigns) == 1
    cfg = campaigns[0].config
    assert cfg.detectors == ("zf",)
    assert cfg.m_grid == (6, 8, 10)
    assert cfg.n == 2 and cfg.delta is None
    assert cfg.master_seed == 42
    assert cfg.trials == 300


def test_seed_override(ini_path):
    cfg = load_config(str(ini_path), seed_override=777)[0].config
    assert cfg.master_seed == 777


def test_manifest_echo_reproduces_run(tmp_path):
    # a custom set, a variant that switches the user rule and --seed: each CSV is rebuilt from its echo alone
    p = tmp_path / "custom.cfg"
    p.write_text(CUSTOM_CONFIG)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "a.csv"), "--seed", "99"]) == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    assert [c["csv"] for c in manifest["campaigns"]] == ["a.csv", "a.fixed-n.csv"]
    for i, campaign in enumerate(manifest["campaigns"]):
        echo_path = tmp_path / f"echo{i}.cfg"
        echo_path.write_text(campaign["config"])
        again = tmp_path / f"again{i}.csv"
        assert main(["sweep", "--config", str(echo_path), "--out", str(again)]) == 0
        assert again.read_bytes() == (tmp_path / campaign["csv"]).read_bytes()


@pytest.mark.parametrize("threads, processes", [(1, 1), (3, 3), (12, 8)])
def test_manifest_records_the_run(tmp_path, ini_path, monkeypatch, threads, processes):
    import numpy as np

    from mimodet import cli

    # the record states --threads as given; the sweep itself runs serially here, so no process is forked
    serial = cli.sweep
    monkeypatch.setattr(cli, "sweep", lambda config, workers: serial(config))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "a.csv"), "--threads", str(threads)]) == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    run = manifest.pop("run")
    assert set(manifest) == {"version", "config_file", "campaigns", "duration_s", "master_seed"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    uname = os.uname()
    assert run == {
        "threads": threads,
        "processes": processes,
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": "unset",
        "MKL_NUM_THREADS": "1",
        "malloc": mimodet.MALLOC_POLICY,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "sysname": uname.sysname,
        "release": uname.release,
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
    }
    thresholds = {"M_MMAP_THRESHOLD": mimodet.MALLOC_MMAP_THRESHOLD, "M_TRIM_THRESHOLD": mimodet.MALLOC_TRIM_THRESHOLD}
    assert run["malloc"] in (thresholds, "caller", "unavailable")


def test_echo_is_ini_text_in_schema_order(ini_path):
    assert load_config(str(ini_path))[0].echo == (
        "[constellation]\nkind = qam\nM = 16\n"
        "[experiment]\ndetectors = zf\nsnr_db = 0.0\nm_grid = 6, 8, 10\ntrials = 300\nmaster_seed = 42\nn = 2\n"
    )


@pytest.mark.parametrize("name", ["fig1.cfg", "fig2.cfg", "fig3.cfg"])
def test_echo_loads_to_an_equal_config(tmp_path, name):
    for campaign in load_config(str(CONFIGS / name)):
        p = tmp_path / f"{campaign.name or 'base'}.cfg"
        p.write_text(campaign.echo)
        (again,) = load_config(str(p))
        assert again.config == campaign.config and again.echo == campaign.echo


def test_manifest_echo_with_ml_budget_exits_2(tmp_path, ini_path, capsys):
    # an echo that names ml_budget, as echoes did while it was a key; the cap is now a constant
    assert main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "a.csv")]) == 0
    lines = json.loads((tmp_path / "a.manifest.json").read_text())["campaigns"][0]["config"].splitlines()
    line = lines.index("[experiment]") + 2
    lines.insert(line - 1, "ml_budget = 1048576")
    p = tmp_path / "echo.cfg"
    p.write_text("\n".join(lines) + "\n")
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{p}:{line}: unknown key 'ml_budget' in [experiment]" in capsys.readouterr().err


def test_json_config_exits_2_at_line_1(tmp_path, capsys):
    # INI is the only config syntax, so a JSON config, such as an older manifest's echo, is refused
    experiment = {"detectors": ["zf"], "snr_db": 0, "n": 2, "m_grid": [6], "trials": 30}
    doc = {"constellation": {"kind": "qam", "M": 16}, "experiment": experiment}
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc, indent=2))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert f"config error: {p}:1: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "invalid-utf8"])
def test_unreadable_config_exits_2_at_its_path(tmp_path, capsys, kind):
    # once exit 3 with "[Errno 21] Is a directory" or a codec error that named no file
    p = tmp_path / "bad.cfg"
    if kind == "directory":
        p.mkdir()
    else:
        p.write_bytes(INI_CONFIG.encode() + b"# caf\xe9\n")
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config error: {p}: cannot read config file: " in capsys.readouterr().err


def test_negative_seed_flag_exits_2_at_the_flag(tmp_path, ini_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(ini_path), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    # the config's own master_seed line is valid and is not blamed
    assert "config error: --seed: master_seed must be >= 0, got -1" in err and str(ini_path) not in err
    assert not out.exists()


@pytest.mark.parametrize("directory", ["x.csv", "x.tiny.csv", "x.manifest.json"])
def test_out_directory_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch, directory):
    from mimodet import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran although an output path is a directory")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    p = tmp_path / "v.cfg"
    p.write_text(INI_CONFIG + "\n[variant:tiny]\ntrials = 100\n")
    (tmp_path / directory).mkdir()
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config error: --out: {tmp_path / directory} is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("variant, out_name", [("manifest", "out.json"), ("manifest.json", "out")])
def test_colliding_outputs_exit_2_before_any_sweep(tmp_path, capsys, monkeypatch, variant, out_name):
    # the variant's CSV and the manifest are both out.manifest.json: the manifest once overwrote the CSV
    from mimodet import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran although two outputs share a path")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    p = tmp_path / "v.cfg"
    p.write_text(INI_CONFIG + f"\n[variant:{variant}]\ntrials = 100\n")
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / out_name)]) == 2
    err = capsys.readouterr().err
    assert f"config error: --out: two outputs would be written to {tmp_path / 'out.manifest.json'}" in err
    assert not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("under", ["afile", "afile/sub"])
def test_out_under_a_file_exits_2_before_any_sweep(tmp_path, ini_path, capsys, monkeypatch, under):
    # once the first campaign was swept, then the CSV write failed with exit 3
    from mimodet import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran although the output directory cannot be made")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    (tmp_path / "afile").write_text("")
    assert main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / under / "x.csv")]) == 2
    assert f"config error: --out: cannot create directory {tmp_path / under}: " in capsys.readouterr().err


def test_sweep_csv_contract(tmp_path, ini_path):
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(ini_path), "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF only
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 3  # header + one row per (point, detector)
    by_name = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert [r["m"] for r in by_name] == ["6", "8", "10"]
    for r in by_name:
        assert r["detector"] == "zf"
        assert r["trials"] == "300"
        vep = float(r["vep"])
        assert float(r["ci_low"]) <= vep <= float(r["ci_high"])
        assert int(r["errors"]) == round(vep * 300)
        # probabilities are serialized in scientific notation, 10 significant digits
        assert "e" in r["vep"]
        # log columns are consistent with the clamped linear ones
        assert float(r["theory_ml_union"]) == pytest.approx(
            min(1.0, math.exp(min(float(r["log_theory_ml_union"]), 0.0))), rel=1e-9
        )


def sweep_rows(tmp_path, text):
    """The rows of the CSV that `sweep` writes for INI ``text``, as dicts."""
    p = tmp_path / "swept.cfg"
    p.write_text(text)
    out = tmp_path / "swept.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_closed_form_columns_fixed_n(tmp_path):
    rows = sweep_rows(tmp_path, INI_CONFIG.replace("6, 8, 10", "8, 12").replace("trials = 300", "trials = 32"))
    assert len(rows) == 2
    r = rows[0]
    assert (r["m"], r["n"]) == ("8", "2")
    assert math.isfinite(float(r["log_theory_ml_lower"])) and math.isfinite(float(r["log_theory_ml_union"]))
    # log1p(rho), with rho = 0.1 for 16-QAM at 0 dB
    assert float(r["f_ml_ref"]) == pytest.approx(math.log(1.1), abs=1e-12)
    # fixed-n campaign: family delta is 0, ZF reference equals ML
    assert float(r["f_zf_ref"]) == float(r["f_ml_ref"])


def test_csv_f_zf_ref_on_delta_campaign(tmp_path):
    text = INI_CONFIG.replace("n = 2", "delta = 0.3333333333333333").replace("6, 8, 10", "9, 12")
    rows = sweep_rows(tmp_path, text.replace("trials = 300", "trials = 32"))
    assert float(rows[0]["f_zf_ref"]) == pytest.approx((2.0 / 3.0) * math.log(1.1), abs=1e-12)


def test_sweep_rerun_byte_identical(tmp_path, ini_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(ini_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(ini_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_threads_do_not_change_csv(tmp_path, ini_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["sweep", "--config", str(ini_path), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(ini_path), "--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_variants_write_separate_csvs(tmp_path):
    p = tmp_path / "multi.cfg"
    p.write_text(INI_CONFIG + "\n[variant:tiny]\nm_grid = 4, 6\ntrials = 100\n")
    out = tmp_path / "multi.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "multi.tiny.csv").exists()
    manifest = json.loads((tmp_path / "multi.manifest.json").read_text())
    assert [c["name"] for c in manifest["campaigns"]] == ["", "tiny"]
    assert "\nm_grid = 4, 6\ntrials = 100\n" in manifest["campaigns"][1]["config"]


def test_variant_user_rule_switch(tmp_path):
    p = tmp_path / "switch.cfg"
    p.write_text(INI_CONFIG.replace("n = 2", "delta = 0.25") + "\n[variant:fixed]\nn = 3\n")
    campaigns = load_config(str(p))
    assert campaigns[0].config.delta == 0.25 and campaigns[0].config.n is None
    assert campaigns[1].config.n == 3 and campaigns[1].config.delta is None


def test_variant_constellation_kind_switch(tmp_path):
    p = tmp_path / "switch.cfg"
    p.write_text(INI_CONFIG + "\n[variant:custom]\nkind = custom\nsymbols = 1,0; -1,0; 0,2\n")
    base, custom = (c.config.constellation for c in load_config(str(p)))
    assert base == make_constellation("qam", 16)
    assert custom == Constellation([1, -1, 2j])
    # a variant's M unsets the base's symbols, and a custom set refuses it at its line
    p.write_text(CUSTOM_CONFIG + "M = 4\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}:15: kind=custom takes symbols, not M$"):
        load_config(str(p))


def test_custom_constellation_config(tmp_path):
    p = tmp_path / "custom.cfg"
    p.write_text(
        "[constellation]\nkind = custom\nsymbols = 1,0; -1,0; 0,2\n\n"
        "[experiment]\ndetectors = zf\nsnr_db = 0\nn = 1\nm_grid = 4\ntrials = 50\nmaster_seed = 1\n"
    )
    cfg = load_config(str(p))[0].config
    assert cfg.constellation.M == 3
    assert cfg.constellation.d_min == pytest.approx(2.0)


def test_invalid_config_exit_code_and_anchor(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(INI_CONFIG.replace("m_grid = 6, 8, 10", "m_grid = 10, 8"))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:" in err and "ascending" in err


def test_empty_grid_rejected(tmp_path, capsys):
    p = tmp_path / "empty.cfg"
    p.write_text(INI_CONFIG.replace("m_grid = 6, 8, 10", "m_grid ="))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert "m_grid" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]) == 2
    assert "no such config" in capsys.readouterr().err


def test_infeasible_detector_rejected(tmp_path, capsys):
    p = tmp_path / "ml.cfg"
    p.write_text(INI_CONFIG.replace("detectors = zf", "detectors = ml-exhaustive").replace("n = 2", "n = 8"))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err


def test_huge_exhaustive_config_exits_2_at_its_detectors_line(tmp_path, capsys):
    # QPSK at n = 8000: 4^8000 has 4 817 digits, past Python's int-to-text limit; the
    # refusal is the budget's, at the detectors line, and M^n is never built
    p = tmp_path / "huge.cfg"
    p.write_text(
        INI_CONFIG.replace("kind = qam\nM = 16", "kind = psk\nM = 4")
        .replace("detectors = zf", "detectors = ml-exhaustive")
        .replace("n = 2", "n = 8000")
        .replace("m_grid = 6, 8, 10", "m_grid = 8000")
    )
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{p}:6: " in err and "4^8000 candidates exceeds ML_BUDGET = 1048576" in err


def test_theory_output_values(capsys):
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", "--delta", "0.3333333333333333"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    # printed at 12 significant digits: parsing back must reproduce the float
    assert float(fields["f_ml_nats_per_antenna"]) == pytest.approx(math.log(1.1), rel=1e-11)
    assert float(fields["f_zf_nats_per_antenna"]) == pytest.approx((2 / 3) * math.log(1.1), rel=1e-11)
    assert float(fields["f_ml_db_per_antenna"]) == pytest.approx(0.413926, abs=1e-5)
    assert float(fields["f_zf_db_per_antenna"]) == pytest.approx(0.275951, abs=1e-5)
    assert float(fields["rho"]) == pytest.approx(0.1, rel=1e-12)


def test_theory_delta_zero_matches_ml_line(capsys):
    assert main(["theory", "--kind", "psk", "--M", "2", "--snr-db", "0", "--delta", "0"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert fields["f_zf_nats_per_antenna"] == fields["f_ml_nats_per_antenna"]
    assert float(fields["rho"]) == pytest.approx(1.0, rel=1e-12)
    assert float(fields["f_ml_nats_per_antenna"]) == pytest.approx(math.log(2.0), rel=1e-11)


def test_theory_with_dimensions_prints_bounds(capsys):
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", "--m", "12", "--n", "4"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert float(fields["zf_sep_lower"]) == pytest.approx(4.85e-3, rel=1e-2)
    assert "not-applicable" in fields["large_n_union_bound"]
    assert float(fields["ml_union_bound"]) == 1.0  # clamped at this tiny size


@pytest.mark.parametrize("users", [["--n", "4"], ["--delta", "0.25"]])
def test_theory_at_vanishing_snr_prints_an_infinite_threshold(capsys, users):
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "-3000", "--m", "12", *users]) == 0
    fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
    assert fields["large_n_threshold"] == "inf"
    assert "not-applicable" in fields["large_n_union_bound"]


def test_theory_missing_dimensions_is_config_error(capsys):
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0"]) == 2
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", "--m", "12"]) == 2


def synthetic_csv(tmp_path, rows):
    p = tmp_path / "synth.csv"
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return p


def make_row(m, detector, trials, errors, vep, f_ml=0.1, f_zf=0.1):
    return [
        str(m), "2", detector, str(trials), str(errors),
        f"{vep:.9e}", f"{vep:.9e}", f"{vep:.9e}", f"{vep:.9e}",
        "1e-3", "1e-2", "1e-3", "1e-2",
        f"{f_ml:.12g}", f"{f_zf:.12g}",
        "-6.9", "-4.6", "-6.9", "-4.6",
    ]


def test_fit_exact_exponential_ratio_one(tmp_path, capsys):
    rows = [make_row(m, "zf", 10**6, int(10**6 * math.exp(-0.1 * m)), math.exp(-0.1 * m)) for m in (10, 20, 30, 40)]
    p = synthetic_csv(tmp_path, rows)
    assert main(["fit", "--csv", str(p)]) == 0
    out = capsys.readouterr().out
    assert "zf:" in out
    assert "ratio=1" in out.replace("ratio=1.0", "ratio=1")


def test_fit_all_zero_errors_fails(tmp_path, capsys):
    rows = [make_row(m, "zf", 1000, 0, 0.0) for m in (10, 20, 30)]
    p = synthetic_csv(tmp_path, rows)
    assert main(["fit", "--csv", str(p)]) == 3
    assert "insufficient" in capsys.readouterr().err


def test_fit_not_a_results_csv(tmp_path, capsys):
    p = tmp_path / "junk.csv"
    p.write_text("a,b\n1,2\n")
    assert main(["fit", "--csv", str(p)]) == 2
    assert "not a sweep results CSV" in capsys.readouterr().err


def test_fit_csv_missing_column_is_config_error_at_header(tmp_path, capsys):
    # a header with `detector` but without `vep` and `sep`
    keep = [i for i, col in enumerate(CSV_COLUMNS) if col not in ("vep", "sep")]
    p = tmp_path / "short.csv"
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([CSV_COLUMNS[i] for i in keep])
        for m in (10, 20):
            row = make_row(m, "zf", 1000, 100, 0.1)
            writer.writerow([row[i] for i in keep])
    assert main(["fit", "--csv", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{p}:1: " in err and "missing columns: vep, sep" in err


@pytest.mark.parametrize("bad", ["", "many", "nan", "inf", "1.5", "-0.1"])
def test_fit_csv_bad_value_is_config_error_at_its_line(tmp_path, capsys, bad):
    rows = [make_row(m, "zf", 1000, 100, 0.1) for m in (10, 20, 30)]
    rows[1][CSV_COLUMNS.index("vep")] = bad
    p = synthetic_csv(tmp_path, rows)
    assert main(["fit", "--csv", str(p)]) == 2
    assert f"{p}:3: bad value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, bad",
    [
        ("ci_low", "nan"), ("ci_high", "2"), ("sep", "-inf"), ("f_ml_ref", "nan"), ("f_zf_ref", "inf"),
        ("errors", "-1"), ("errors", "1001"), ("trials", "0"),
    ],
)
def test_fit_csv_non_finite_or_out_of_range_float_exits_2(tmp_path, capsys, column, bad):
    rows = [make_row(m, "zf", 1000, 100, 0.1) for m in (10, 20, 30)]
    rows[2][CSV_COLUMNS.index(column)] = bad
    p = synthetic_csv(tmp_path, rows)
    assert main(["fit", "--csv", str(p)]) == 2
    assert f"{p}:4: bad value" in capsys.readouterr().err


def test_fit_points_of_one_m_are_insufficient(tmp_path, capsys):
    # the same m twice: no slope to fit, so no f_hat=nan line
    p = synthetic_csv(tmp_path, [make_row(12, "zf", 1000, 100, 0.1)] * 2)
    assert main(["fit", "--csv", str(p)]) == 3
    captured = capsys.readouterr()
    assert "zf: insufficient data" in captured.out and "f_hat" not in captured.out
    assert "insufficient" in captured.err


def test_fit_csv_short_row_is_config_error_at_its_line(tmp_path, capsys):
    rows = [make_row(m, "zf", 1000, 100, 0.1) for m in (10, 20)]
    p = synthetic_csv(tmp_path, rows)
    with open(p, "a") as fh:
        fh.write("30,2,zf,1000\n")
    assert main(["fit", "--csv", str(p)]) == 2
    assert f"{p}:4: bad value" in capsys.readouterr().err


def test_fit_missing_file_is_runtime_error(tmp_path):
    assert main(["fit", "--csv", str(tmp_path / "missing.csv")]) == 3


def test_bundled_configs_parse():
    expected_names = {
        "fig1.cfg": ["", "delta-sixth", "fixed-n4"],
        "fig2.cfg": ["", "snr2", "snr4"],
        "fig3.cfg": ["", "qpsk", "bpsk"],
    }
    for name, variants in expected_names.items():
        campaigns = load_config(str(CONFIGS / name))
        assert [c.name for c in campaigns] == variants
        for c in campaigns:
            assert c.config.trials >= 10000
    fig3 = load_config(str(CONFIGS / "fig3.cfg"))
    assert fig3[1].config.constellation.M == 4
    assert fig3[2].config.constellation.M == 2


BROKEN_VARIANT = "\n[variant:ok]\ntrials = 100\n\n[variant:broken]\ntrials = 0\n"


@pytest.mark.parametrize(
    "old,new,line,message",
    [
        ("trials = 300", "trails = 30", 10, "unknown key 'trails' in [experiment]"),
        ("M = 16", "M = 16\nphase = 0.5", 4, "unknown key 'phase' in [constellation]"),
        ("master_seed = 42\n", "master_seed = 42\n" + BROKEN_VARIANT, 17, "trials must be >= 1"),
        ("trials = 300", "trials = abc", 10, "bad value 'abc' for trials"),
        ("master_seed = 42", "master_seed = 4x2", 11, "bad value '4x2' for master_seed"),
        ("master_seed = 42", "master_seed = -3", 11, "master_seed must be >= 0"),
        ("M = 16", "M = 15", 3, "QAM needs M an even power of two"),
        ("kind = qam\nM = 16", "kind = custom\nsymbols = 1,0; -1", 3, "symbols must be re,im pairs"),
        ("snr_db = 0", "snr_db = 4000", 7, "noise variance sigma2 outside (0, inf)"),
        ("snr_db = 0", "snr_db = -4000", 7, "noise variance sigma2 outside (0, inf)"),
        ("kind = qam\nM = 16", "kind = custom\nsymbols = 1e200,0; -1e200,0", 3, "energy must be finite and positive"),
        ("kind = qam\nM = 16", "kind = custom\nsymbols = 1e-170,0; -1e-170,0", 3, "energy must be finite and positive"),
        ("[constellation]", "[DEFAULT]\ntrials = 5\n\n[constellation]", 1, "unknown section [DEFAULT]"),
        ("[constellation]", "[DEFAULT]\n\n[constellation]", 1, "unknown section [DEFAULT]"),
        # the exhaustive-ML candidate cap is a constant: ml_budget is an unknown key whatever its value
        ("master_seed = 42", "master_seed = 42\nml_budget = 0", 12, "unknown key 'ml_budget' in [experiment]"),
        ("master_seed = 42", "master_seed = 42\nml_budget = -5", 12, "unknown key 'ml_budget' in [experiment]"),
        ("detectors = zf\n", "detectors = zf, ml-exhaustive\nml_budget = 0\n", 7, "unknown key 'ml_budget'"),
        ("master_seed = 42", "master_seed = 42\n\n[variant:v]\nml_budget = 5", 14, "'ml_budget' in [variant:v]"),
        # a float or a bool where an integer belongs, or a bool where a float belongs
        ("trials = 300", "trials = 300.7", 10, "bad value '300.7' for trials"),
        ("master_seed = 42", "master_seed = true", 11, "bad value 'true' for master_seed"),
        ("M = 16", "M = 16.9", 3, "bad value '16.9' for M"),
        ("m_grid = 6, 8, 10", "m_grid = 8.6, 12", 9, "bad value '8.6, 12' for m_grid"),
        ("snr_db = 0", "snr_db = false", 7, "bad value 'false' for snr_db"),
        ("kind = qam\nM = 16", "kind = custom\nsymbols = true,0; -1,0", 3, "bad value 'true,0; -1,0' for symbols"),
        # variants are [variant:<name>] sections; there is no [variants] section
        ("master_seed = 42", "master_seed = 42\n\n[variants]\nv = 1", 13, "unknown section [variants]"),
        # a name given twice is refused at its second line
        ("trials = 300", "trials = 64\ntrials = 300", 11, "option 'trials' in section 'experiment' already exists"),
        ("master_seed = 42", "master_seed = 42\n\n[constellation]\nkind = psk", 13, "section 'constellation' already"),
        (
            "master_seed = 42", "master_seed = 42\n\n[variant:v]\ntrials = 8\n\n[variant:v]\ntrials = 16", 16,
            "section 'variant:v' already exists",
        ),
        # values are literal: "%" starts no interpolation
        ("detectors = zf", "detectors = zf%", 6, "unknown detector 'zf%'"),
        ("master_seed = 42", "master_seed = %(trials)s", 11, "bad value '%(trials)s' for master_seed"),
        # the other constellation kind's key is refused, not ignored
        ("kind = qam\nM = 16", "kind = custom\nM = banana\nsymbols = 1,0; -1,0", 3, "kind=custom takes symbols, not M"),
        ("M = 16", "M = 16\nsymbols = nonsense", 4, "kind=qam takes M, not symbols"),
    ],
    ids=[
        "misspelled-key", "unknown-constellation-key", "variant-value", "trials-cast", "seed-cast", "negative-seed",
        "qam-M", "symbols", "snr-sigma2-underflow", "snr-sigma2-overflow", "symbols-infinite-energy",
        "symbols-zero-energy", "default-section", "empty-default-section", "ml-budget-zero", "ml-budget-negative",
        "ml-budget-zero-with-ml", "ml-budget-in-variant", "float-trials", "bool-seed", "float-M", "float-grid-point",
        "bool-snr", "bool-symbol-coordinate", "variants-section", "duplicate-key", "duplicate-section",
        "duplicate-variant", "percent-in-detectors", "percent-interpolation", "custom-with-M", "qam-with-symbols",
    ],
)
def test_bad_config_exits_2_at_its_line(tmp_path, capsys, old, new, line, message):
    p = tmp_path / "bad.cfg"
    p.write_text(INI_CONFIG.replace(old, new))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{p}:{line}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "a/b", "a\\b"], ids=["empty", "slash", "backslash"])
def test_ini_variant_name_empty_or_with_path_separator_exits_2(tmp_path, capsys, name):
    p = tmp_path / "named.cfg"
    p.write_text(INI_CONFIG + f"\n[variant:{name}]\ntrials = 100\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{p}:13: " in err and "variant name must be non-empty" in err
    assert not out.exists() and not (tmp_path / "x.manifest.json").exists()


def test_ini_variant_section_runs_as_a_campaign(tmp_path):
    p = tmp_path / "v.cfg"
    p.write_text(INI_CONFIG + "\n[variant:tiny]\ntrials = 100\nm_grid = 4, 6\n")
    campaigns = load_config(str(p))
    assert [c.name for c in campaigns] == ["", "tiny"]
    assert campaigns[1].config.trials == 100 and campaigns[1].config.m_grid == (4, 6)


def test_readme_config_block_names_every_key():
    """The README's config example names each key of the schema, in its own base section."""
    from mimodet.cli import KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configs", 1)[1].split("```", 2)[1]
    named: dict[str, set] = {}
    for part in re.split(r"^\[", block, flags=re.M)[1:]:
        section, body = part.split("]", 1)
        named[section] = set(re.findall(r"\b(\w+) =", body))
    assert set().union(*named.values()) == set(KEYS)
    for section in ("constellation", "experiment"):
        assert named[section] == {key for key, (home, _) in KEYS.items() if home == section}


def test_theory_M_is_needed_by_psk_and_qam_only(capsys):
    assert main(["theory", "--kind", "qam", "--snr-db", "0", "--delta", "0.25"]) == 2
    assert capsys.readouterr().err == "config error: --M: constellation needs M for kind=qam\n"
    custom = ["--kind", "custom", "--symbols", "1,0; -1,0", "--M", "4", "--snr-db", "0", "--delta", "0.25"]
    assert main(["theory", *custom]) == 2
    assert capsys.readouterr().err == "config error: --M: kind=custom takes symbols, not M\n"


def test_theory_bad_flags_are_config_errors(capsys):
    assert main(["theory", "--kind", "qam", "--M", "15", "--snr-db", "0", "--delta", "0.25"]) == 2
    assert "--M: QAM needs M" in capsys.readouterr().err
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", "--m", "4", "--n", "8"]) == 2
    assert "need m >= n >= 1" in capsys.readouterr().err
    both = ["--m", "48", "--n", "16", "--delta", "0.9"]
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", *both]) == 2
    assert "exactly one of --n or --delta" in capsys.readouterr().err


def test_set_beyond_max_symbols_exits_2_at_its_line(tmp_path, capsys):
    # once, 2**20-PSK died with a MemoryError traceback (exit 1) building its M x M distances
    refused = "a constellation holds at most MAX_SYMBOLS = 4096 symbols, got"
    p = tmp_path / "huge.cfg"
    p.write_text(INI_CONFIG.replace("kind = qam\nM = 16", "kind = psk\nM = 1048576"))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {p}:3: {refused} 1048576\n"
    assert main(["theory", "--kind", "psk", "--M", "1048576", "--snr-db", "0"]) == 2
    assert capsys.readouterr().err == f"config error: --M: {refused} 1048576\n"
    symbols = "; ".join(f"{k},0" for k in range(4097))
    assert main(["theory", "--kind", "custom", "--symbols", symbols, "--snr-db", "0"]) == 2
    assert capsys.readouterr().err == f"config error: --symbols: {refused} 4097\n"


@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_theory_snr_out_of_range_is_config_error(capsys, snr_db):
    assert main(["theory", "--kind", "qam", "--M", "16", f"--snr-db={snr_db}", "--delta", "0.25"]) == 2
    assert "--snr-db: snr_db = " in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_is_usage_error(tmp_path, ini_path, threads):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "x.csv"), "--threads", threads])
    assert exc.value.code == 2


@pytest.mark.parametrize("min_errors", ["0", "-3"])
def test_fit_min_errors_below_one_is_usage_error(tmp_path, min_errors):
    p = synthetic_csv(tmp_path, [make_row(m, "zf", 1000, 100, 0.1) for m in (10, 20)])
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--csv", str(p), "--min-errors", min_errors])
    assert exc.value.code == 2


def test_dead_pool_process_exits_3(tmp_path, ini_path, capsys, monkeypatch):
    from mimodet import montecarlo

    parent, stack_counts = os.getpid(), montecarlo._stack_counts

    def counts(*args):
        if os.getpid() != parent:
            os._exit(7)
        return stack_counts(*args)

    monkeypatch.setattr(montecarlo, "_stack_counts", counts)
    assert main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "x.csv"), "--threads", "2"]) == 3
    assert re.fullmatch(r"error: pool process \d+ died without a result \(exit status 7\)\n", capsys.readouterr().err)
    assert not (tmp_path / "x.csv").exists()


def test_sweep_out_of_memory_exits_3(tmp_path, ini_path, capsys, monkeypatch):
    # a grid point too large to hold, such as n = 1 at m = 10**9, once died with a MemoryError traceback (exit 1)
    from mimodet import cli

    def sweep(config, workers):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr(cli, "sweep", sweep)
    assert main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


def test_variant_empty_value_unsets_base_key(tmp_path):
    p = tmp_path / "unset.cfg"
    p.write_text(INI_CONFIG + "target_errors = 50\n\n[variant:uncapped]\ntarget_errors =\ntrials =\n")
    base, variant = (c.config for c in load_config(str(p)))
    assert (base.target_errors, base.trials) == (50, 300)
    assert (variant.target_errors, variant.trials) == (None, 10000)


def test_failed_csv_write_keeps_existing_output(tmp_path, ini_path, monkeypatch):
    from mimodet import cli

    out = tmp_path / "res.csv"
    out.write_text("previous run\n")
    real_rows = cli._csv_rows

    def rows_then_fail(result):
        rows = real_rows(result)
        yield next(rows)
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_csv_rows", rows_then_fail)
    assert main(["sweep", "--config", str(ini_path), "--out", str(out)]) == 3
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv", "small.cfg"]


def test_schema_experiment_keys_are_config_fields():
    from dataclasses import fields

    from mimodet.cli import KEYS
    from mimodet.montecarlo import ExperimentConfig

    experiment_keys = {key for key, (section, _) in KEYS.items() if section == "experiment"}
    assert experiment_keys == {f.name for f in fields(ExperimentConfig)} - {"constellation"}


def test_semicolon_does_not_start_a_comment(tmp_path):
    # ";" after whitespace separates a third point, it does not comment it out
    p = tmp_path / "custom.cfg"
    p.write_text(
        "[constellation]\nkind = custom\nsymbols = 1,0; -1,0 ; 0,1\n\n"
        "[experiment]\ndetectors = zf\nsnr_db = 0\nn = 1\nm_grid = 4\ntrials = 50\nmaster_seed = 1\n"
    )
    assert load_config(str(p))[0].config.constellation.M == 3


def test_seed_override_beats_variant_master_seed(tmp_path):
    p = tmp_path / "seeded.cfg"
    p.write_text(INI_CONFIG + "\n[variant:v]\nmaster_seed = 9\n")
    assert [c.config.master_seed for c in load_config(str(p))] == [42, 9]
    assert [c.config.master_seed for c in load_config(str(p), seed_override=1)] == [1, 1]


def test_reference_sweeps_script_rejects_threads_below_one():
    root = Path(__file__).resolve().parents[1]
    src = str(Path(mimodet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_reference_sweeps.py"), "--threads", "0"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert "--threads" in done.stderr and "Traceback" not in done.stderr


def reference_sweeps_script():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_reference_sweeps.py"
    spec = importlib.util.spec_from_file_location("run_reference_sweeps", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reference_sweeps_script_fits_only_the_csvs_of_its_manifest(tmp_path, monkeypatch):
    from mimodet import cli

    def fake_sweep(config_path, out_path, seed=None, threads=1):
        out = Path(out_path)
        out.write_text("")
        out.with_suffix(".manifest.json").write_text(json.dumps({"campaigns": [{"csv": out.name}]}))
        return 0

    fitted = []
    monkeypatch.setattr(cli, "cmd_sweep", fake_sweep)
    monkeypatch.setattr(cli, "cmd_fit", lambda csv_path, min_errors: fitted.append(Path(csv_path).name))
    (tmp_path / "fig1.old.csv").write_text("left by an earlier run\n")
    monkeypatch.setattr(sys, "argv", ["run_reference_sweeps.py", "--out-dir", str(tmp_path)])
    assert reference_sweeps_script().main() == 0
    assert fitted == ["fig1.csv", "fig2.csv", "fig3.csv"]


@pytest.mark.parametrize("under", ["afile", "afile/x"])
def test_reference_sweeps_script_out_dir_under_a_file_exits_2(tmp_path, capsys, monkeypatch, under):
    # once a FileExistsError or NotADirectoryError traceback with exit 1
    from mimodet import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran although the output directory cannot be made")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr(sys, "argv", ["run_reference_sweeps.py", "--out-dir", str(tmp_path / under)])
    assert reference_sweeps_script().main() == 2
    assert f"config error: --out: cannot create directory {tmp_path / under}: " in capsys.readouterr().err


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m mimodet.cli args`` in a new process, its output buffered as in a pipe."""
    src = str(Path(mimodet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "mimodet.cli", *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point_exits_with_every_output_written(tmp_path, ini_path):
    # the entry point leaves by os._exit: buffered output, the CSV and the manifest must all be there
    p = tmp_path / "variant.cfg"
    p.write_text(INI_CONFIG + "\n[variant:wide]\nm_grid = 6, 12\n")
    out = tmp_path / "a.csv"
    done = run_cli("sweep", "--config", str(p), "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert [line.split(" (")[0] for line in done.stdout.splitlines()] == [
        f"wrote {out}",
        f"wrote {tmp_path / 'a.wide.csv'}",
        f"wrote {tmp_path / 'a.manifest.json'}",
    ]
    assert done.stderr == ""
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    for campaign, rows in zip(manifest["campaigns"], (3, 2)):
        with open(tmp_path / campaign["csv"], newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == CSV_COLUMNS and len(table) == 1 + rows
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == out.read_bytes()

    missing = run_cli("sweep", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "c.csv"))
    assert missing.returncode == 2
    assert missing.stderr == f"config error: {tmp_path / 'missing.cfg'}: no such config file\n"

    thin = synthetic_csv(tmp_path, [make_row(m, "zf", 1000, 0, 0.0) for m in (10, 20, 30)])
    unfit = run_cli("fit", "--csv", str(thin))
    assert unfit.returncode == 3
    assert unfit.stdout.startswith("zf: insufficient data")
    assert unfit.stderr == "insufficient data: no detector had enough qualifying points\n"
