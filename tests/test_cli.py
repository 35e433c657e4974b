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

JSON_CONFIG = {
    "constellation": {"kind": "qam", "M": 16},
    "experiment": {
        "detectors": ["zf"],
        "snr_db": 0,
        "n": 2,
        "m_grid": [6, 8, 10],
        "trials": 300,
        "master_seed": 42,
    },
}


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


def test_load_json_equivalent(tmp_path, ini_path):
    jp = tmp_path / "small.json"
    jp.write_text(json.dumps(JSON_CONFIG))
    a = load_config(str(ini_path))[0].config
    b = load_config(str(jp))[0].config
    assert a == b


def test_seed_override(ini_path):
    cfg = load_config(str(ini_path), seed_override=777)[0].config
    assert cfg.master_seed == 777


def test_manifest_echo_reproduces_run(tmp_path, ini_path):
    out1 = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(ini_path), "--out", str(out1)]) == 0
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    echo = manifest["campaigns"][0]["config"]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echo))
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(echo_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    assert manifest["campaigns"][1]["config"]["experiment"]["m_grid"] == [4, 6]


def test_variant_user_rule_switch(tmp_path):
    p = tmp_path / "switch.cfg"
    p.write_text(INI_CONFIG.replace("n = 2", "delta = 0.25") + "\n[variant:fixed]\nn = 3\n")
    campaigns = load_config(str(p))
    assert campaigns[0].config.delta == 0.25 and campaigns[0].config.n is None
    assert campaigns[1].config.n == 3 and campaigns[1].config.delta is None


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
    [("ci_low", "nan"), ("ci_high", "2"), ("sep", "-inf"), ("f_ml_ref", "nan"), ("f_zf_ref", "inf")],
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
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    expected_names = {
        "fig1.cfg": ["", "delta-sixth", "fixed-n4"],
        "fig2.cfg": ["", "snr2", "snr4"],
        "fig3.cfg": ["", "qpsk", "bpsk"],
    }
    for name, variants in expected_names.items():
        campaigns = load_config(str(root / "configs" / name))
        assert [c.name for c in campaigns] == variants
        for c in campaigns:
            assert c.config.trials >= 10000
    fig3 = load_config(str(root / "configs" / "fig3.cfg"))
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
    ],
    ids=[
        "misspelled-key", "unknown-constellation-key", "variant-value", "trials-cast", "seed-cast", "negative-seed",
        "qam-M", "symbols", "snr-sigma2-underflow", "snr-sigma2-overflow", "symbols-infinite-energy",
        "symbols-zero-energy",
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


@pytest.mark.parametrize(
    "section,key,value,reason",
    [
        ("experiment", "trials", 300.7, "not an integer"),
        ("experiment", "master_seed", True, "not an integer"),
        ("constellation", "M", 16.9, "not an integer"),
        ("experiment", "m_grid", [8.6, 12], "not an integer"),
        ("experiment", "snr_db", False, "not a number"),
    ],
    ids=["float-trials", "bool-seed", "float-M", "float-grid-point", "bool-snr"],
)
def test_json_number_of_wrong_type_exits_2(tmp_path, capsys, section, key, value, reason):
    # a JSON float or bool where an integer belongs, or a bool where a float belongs, is refused
    doc = json.loads(json.dumps(JSON_CONFIG))
    doc[section][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{p}:1: bad value {value!r} for {key}: {reason}" in capsys.readouterr().err


def test_json_bool_symbol_coordinate_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**JSON_CONFIG, "constellation": {"kind": "custom", "symbols": [[True, 0], [-1, 0]]}}))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{p}:1: bad value [[True, 0], [-1, 0]] for symbols: not a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"experiment": 5}, "[experiment] must be an object of keys"),
        ({"variants": [1]}, '"variants" must be an object of variants'),
        ({"variants": {"v": 5}}, "[variant:v] must be an object of keys"),
    ],
    ids=["experiment-number", "variants-list", "variant-number"],
)
def test_json_non_object_section_exits_2(tmp_path, capsys, extra, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**JSON_CONFIG, **extra}))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{p}:1: {message}" in capsys.readouterr().err


JSON_TEXT = json.dumps(JSON_CONFIG)


@pytest.mark.parametrize(
    "text,message",
    [
        (JSON_TEXT.replace('"trials": 300', '"trials": 64, "trials": 300'), "'trials' is given twice"),
        (JSON_TEXT[:-1] + ', "constellation": {"kind": "psk", "M": 8}}', "'constellation' is given twice"),
        (JSON_TEXT[:-1] + ', "variants": {"v": {"trials": 8}, "v": {"trials": 16}}}', "'v' is given twice"),
        (JSON_TEXT[:-1] + ', "variant:v": {"trials": 8}, "variants": {"v": {}}}', "variant 'v' is given twice"),
    ],
    ids=["key", "section", "variant", "variant-section"],
)
def test_json_duplicate_name_exits_2(tmp_path, capsys, text, message):
    p = tmp_path / "dup.json"
    p.write_text(text)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert f"{p}:1: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def test_theory_bad_flags_are_config_errors(capsys):
    assert main(["theory", "--kind", "qam", "--M", "15", "--snr-db", "0", "--delta", "0.25"]) == 2
    assert "--M: QAM needs M" in capsys.readouterr().err
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", "--m", "4", "--n", "8"]) == 2
    assert "need m >= n >= 1" in capsys.readouterr().err
    both = ["--m", "48", "--n", "16", "--delta", "0.9"]
    assert main(["theory", "--kind", "qam", "--M", "16", "--snr-db", "0", *both]) == 2
    assert "exactly one of --n or --delta" in capsys.readouterr().err


@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_theory_snr_out_of_range_is_config_error(capsys, snr_db):
    assert main(["theory", "--kind", "qam", "--M", "16", f"--snr-db={snr_db}", "--delta", "0.25"]) == 2
    assert "--snr-db: snr_db = " in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_is_usage_error(tmp_path, ini_path, threads):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(ini_path), "--out", str(tmp_path / "x.csv"), "--threads", threads])
    assert exc.value.code == 2


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
