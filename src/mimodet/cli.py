"""Command line front end: run sweeps, evaluate formulas, fit slopes.

Subcommands:
    sweep   run a configured antenna sweep, write results CSV + manifest JSON
    theory  print the closed-form quantities for one parameter set
    fit     fit empirical antenna efficiency from a sweep CSV

Exit codes: 0 success, 2 config/validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, MALLOC_POLICY, __version__, theory
from .channel import sigma2_from_snr
from .constellation import Constellation, ConstellationKind, make_constellation
from .montecarlo import (
    ConfigValueError, ExperimentConfig, PointStats, SweepResult, VepCurve, estimate_vep, fit_slope, pool_processes,
    sweep, users_for_ratio,
)

CSV_COLUMNS = [
    "m",
    "n",
    "detector",
    "trials",
    "errors",
    "vep",
    "ci_low",
    "ci_high",
    "sep",
    "theory_ml_lower",
    "theory_ml_union",
    "theory_zf_lower",
    "theory_zf_upper",
    "f_ml_ref",
    "f_zf_ref",
    "log_theory_ml_lower",
    "log_theory_ml_union",
    "log_theory_zf_lower",
    "log_theory_zf_upper",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Configuration problem, already formatted with a file:line anchor."""


def _prob(x: float) -> str:
    return f"{x:.9e}"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# config loading


@dataclass
class Campaign:
    name: str
    config: ExperimentConfig
    echo: str


def _words(raw: str) -> list[str]:
    """Items of a list value: "a, b c"."""
    return raw.replace(",", " ").split()


def _parse_symbols(raw: str) -> list[complex]:
    """Custom symbols from "re,im; re,im; ..."."""
    pairs = [chunk.split(",") for chunk in raw.split(";") if chunk.strip()]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"symbols must be re,im pairs, got {raw!r}")
    return [complex(float(re), float(im)) for re, im in pairs]


#: The config schema: each key's section and the parser of its raw INI value.
#: The experiment keys are the fields of ExperimentConfig, which holds their
#: defaults and says which are required; their order here is the order of the
#: manifest echo.
KEYS = {
    "kind": ("constellation", lambda raw: ConstellationKind(raw.lower())),
    "M": ("constellation", int),
    "symbols": ("constellation", _parse_symbols),
    "detectors": ("experiment", lambda raw: tuple(_words(raw))),
    "snr_db": ("experiment", float),
    "m_grid": ("experiment", lambda raw: tuple(int(m) for m in _words(raw))),
    "trials": ("experiment", int),
    "master_seed": ("experiment", int),
    "target_errors": ("experiment", int),
    "n": ("experiment", int),
    "delta": ("experiment", float),
}
BASE_SECTIONS = ("constellation", "experiment")


def _parse(key: str, raw):
    try:
        return KEYS[key][1](raw)
    except ValueError as exc:
        raise ConfigValueError(key, f"bad value {raw!r} for {key}: {exc}") from exc


def _build_constellation(kind, M, symbols) -> Constellation:
    """Constellation from the raw kind, M and symbols of a config or of `theory`'s flags.

    Failures raise ConfigValueError naming the key at fault; the other kind's
    key (M for a custom set, symbols otherwise) is refused.
    """
    kind = _parse("kind", kind)
    custom = kind is ConstellationKind.CUSTOM
    key, raw, stray, stray_raw = ("symbols", symbols, "M", M) if custom else ("M", M, "symbols", symbols)
    if stray_raw is not None:
        raise ConfigValueError(stray, f"kind={kind.value} takes {key}, not {stray}")
    if raw is None:
        raise ConfigValueError(key, f"constellation needs {key} for kind={kind.value}")
    value = _parse(key, raw)
    try:
        return Constellation(value) if custom else make_constellation(kind, value)
    except ValueError as exc:
        raise ConfigValueError(key, str(exc)) from exc


def _read_ini(path: str, text: str) -> tuple[dict, dict]:
    """Sections {name: {key: raw value}} of INI text, and its (section, key) -> line map.

    A section's own line is mapped from (section, None).  Indented lines
    continue a value, so only unindented key lines are mapped.
    """
    # only "#" starts an inline comment: ";" separates the points of `symbols`;
    # no header names the default section "", so [DEFAULT] is an unknown section
    # and values are literal: "%" starts no interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="", interpolation=None)
    parser.optionxform = str  # keep key case: "M" must stay "M"
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None) or 1
        raise ConfigError(f"{path}:{lineno}: {exc.message if hasattr(exc, 'message') else exc}") from exc
    lines: dict[tuple, int] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if header := parser.SECTCRE.match(line):
            section = header["header"]
            lines[(section, None)] = lineno
        elif (option := parser.OPTCRE.match(line)) and not line[:1].isspace():
            lines.setdefault((section, option["option"].strip()), lineno)
    return {name: dict(parser.items(name)) for name in parser.sections()}, lines


def _campaign(name: str, doc: dict, sections: tuple, at, seed: int | None) -> Campaign:
    """One campaign from ``sections`` of ``doc``, each overriding the ones before.

    An empty value unsets its key.  In a variant, setting n unsets delta and
    setting delta unsets n, so a variant can switch the user rule; M and
    symbols unset each other, so it can switch the constellation kind.
    ``seed``, when given, overrides master_seed after every section.  Every
    failure is a ConfigError at the line of the key at fault, or at the line
    of its section when the key is missing; a bad ``seed`` is one at --seed.
    """
    settings: dict = {}  # key -> (raw value, section that set it)
    for section in sections:
        variant = section not in BASE_SECTIONS
        for key, raw in doc[section].items():
            if key not in KEYS or not (variant or KEYS[key][0] == section):
                raise ConfigError(f"{at(section, key)}: unknown key {key!r} in [{section}]")
            if variant and raw != "":
                settings.pop({"n": "delta", "delta": "n", "M": "symbols", "symbols": "M"}.get(key), None)
            settings[key] = (raw, section)
    if seed is not None:
        settings["master_seed"] = (seed, "--seed")
    raw = {key: value for key, (value, _) in settings.items() if value != ""}
    try:
        constellation = _build_constellation(raw.get("kind", ""), raw.get("M"), raw.get("symbols"))
        exp = {key: _parse(key, value) for key, value in raw.items() if KEYS[key][0] == "experiment"}
        for f in fields(ExperimentConfig):
            required = f.default is MISSING and f.default_factory is MISSING
            if required and f.name not in exp and f.name != "constellation":
                raise ConfigValueError(f.name, f"missing required key {f.name!r}")
        config = ExperimentConfig(constellation=constellation, **exp)
    except ConfigValueError as exc:
        section = settings[exc.key][1] if exc.key in settings else KEYS[exc.key][0]
        raise ConfigError(f"{section if section == '--seed' else at(section, exc.key)}: {exc}") from exc
    return Campaign(name=name, config=config, echo=_echo(config))


def _echo(config: ExperimentConfig) -> str:
    """``config`` as INI text that load_config reads back to an equal config.

    A custom set is echoed by its symbols, as Python float reprs, which parse
    back to the same bits; any other set by its M.
    """
    c = config.constellation
    values: dict = {"kind": c.kind.value}
    if c.kind is ConstellationKind.CUSTOM:
        values["symbols"] = "; ".join(f"{float(s.real)!r},{float(s.imag)!r}" for s in c.symbols)
    else:
        values["M"] = c.M
    values.update((key, getattr(config, key)) for key, (section, _) in KEYS.items() if section == "experiment")
    text = ""
    for section in BASE_SECTIONS:
        text += f"[{section}]\n"
        for key, value in values.items():
            if KEYS[key][0] == section and value is not None:
                text += f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
    return text


def load_config(path: str, seed_override: int | None = None) -> list[Campaign]:
    """Parse an INI experiment file: key = value lines under sections."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes that are not UTF-8
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    doc, lines = _read_ini(path, text)

    def at(section: str, key: str | None = None) -> str:
        return f"{path}:{lines.get((section, key), lines.get((section, None), 1))}"

    for section in BASE_SECTIONS:
        if section not in doc:
            raise ConfigError(f"{path}:1: missing [{section}] section")
    variants = [section for section in doc if section not in BASE_SECTIONS]
    for section in variants:
        if not section.startswith("variant:"):
            raise ConfigError(f"{at(section)}: unknown section [{section}]")
        if section == "variant:" or "/" in section or "\\" in section:  # the name is part of a CSV file name
            raise ConfigError(f"{at(section)}: a variant name must be non-empty, without '/' or '\\': [{section}]")
    campaigns = [_campaign("", doc, BASE_SECTIONS, at, seed_override)]
    for section in variants:
        campaigns.append(_campaign(section.split(":", 1)[1], doc, (*BASE_SECTIONS, section), at, seed_override))
    return campaigns


# ---------------------------------------------------------------------------
# sweep


def _theory_cells(config: ExperimentConfig, m: int, n: int) -> list[str]:
    """The closed-form cells of one grid point, in the order of the CSV's theory_* to log_theory_* columns."""
    c = config.constellation
    p = theory.SystemParams.from_system(c, config.sigma2, m=m, n=n)
    logs = (theory.ml_lower_bound_log(p), theory.ml_union_bound_log(p), *theory.zf_vep_bounds_log(p))
    family = theory.SystemParams.from_system(c, config.sigma2, delta=config.delta or 0.0)  # fixed n: delta 0
    return [
        *(_prob(theory.prob_from_log(log_p)) for log_p in logs),
        _fmt(theory.antenna_efficiency_ml(p)),
        _fmt(theory.antenna_efficiency_zf(family)),
        *(_prob(log_p) for log_p in logs),
    ]


def _csv_rows(result: SweepResult):
    for point_idx, (m, n) in enumerate(result.config.grid_points()):
        cells = _theory_cells(result.config, m, n)
        for det in result.config.detectors:
            pt: PointStats = result.curves[det].points[point_idx]
            yield [
                str(m),
                str(n),
                det,
                str(pt.trials),
                str(pt.errors),
                _prob(pt.vep_hat),
                _prob(pt.ci_low),
                _prob(pt.ci_high),
                _prob(pt.sep_hat),
                *cells,
            ]


@contextmanager
def _replacing(path: Path):
    """Write a temporary file beside ``path``: it replaces ``path`` on success, is removed on failure."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _campaign_csv_path(out: Path, name: str) -> Path:
    if not name:
        return out
    return out.with_name(f"{out.stem}.{name}{out.suffix}")


def _run_record(threads: int) -> dict:
    """What a sweep ran on: its processes, BLAS threading, malloc policy, versions and machine."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # an older numpy's show_config takes no mode and only prints
        blas = {}
    uname = os.uname()
    return {
        "threads": threads,
        "processes": pool_processes(threads),
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "malloc": MALLOC_POLICY,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "sysname": uname.sysname,
        "release": uname.release,
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
    }


def cmd_sweep(config_path: str, out_path: str, seed: int | None = None, threads: int = 1) -> int:
    campaigns = load_config(config_path, seed_override=seed)
    out = Path(out_path)
    manifest_path = out.with_suffix(".manifest.json")
    paths = [*(_campaign_csv_path(out, camp.name) for camp in campaigns), manifest_path]
    for i, path in enumerate(paths):
        if path.is_dir():
            raise ConfigError(f"--out: {path} is a directory")
        if path in paths[:i]:  # a variant named "manifest" writes its CSV where the manifest goes
            raise ConfigError(f"--out: two outputs would be written to {path}")
    try:  # before any sweep, so an --out under an existing file costs no work
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out: cannot create directory {out.parent}: {exc.strerror}") from exc
    manifest: dict = {
        "version": __version__,
        "config_file": str(config_path),
        "run": _run_record(threads),
        "campaigns": [],
    }
    t0 = time.perf_counter()
    for camp in campaigns:
        result = sweep(camp.config, workers=threads)
        csv_path = _campaign_csv_path(out, camp.name)
        with _replacing(csv_path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(_csv_rows(result))
        manifest["campaigns"].append(
            {
                "name": camp.name,
                "csv": csv_path.name,
                "master_seed": camp.config.master_seed,
                "config": camp.echo,
                "duration_s": result.duration_s,
                "per_point_s": result.per_point_s,
            }
        )
        print(f"wrote {csv_path} ({len(result.config.m_grid)} grid points, "
              f"{result.duration_s:.2f}s)")
    manifest["duration_s"] = time.perf_counter() - t0
    manifest["master_seed"] = campaigns[0].config.master_seed
    with _replacing(manifest_path) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# theory


def cmd_theory(
    kind: str,
    M: int | None,
    snr_db: float,
    delta: float | None = None,
    m: int | None = None,
    n: int | None = None,
    symbols: str | None = None,
) -> int:
    try:
        c = _build_constellation(kind, M, symbols)
    except ConfigValueError as exc:
        raise ConfigError(f"--{exc.key}: {exc}") from exc
    try:
        sigma2 = sigma2_from_snr(snr_db, c)
    except ValueError as exc:
        raise ConfigError(f"--snr-db: {exc}") from exc
    if n is not None and delta is not None:
        raise ConfigError("give exactly one of --n or --delta")
    if m is not None and n is None:
        if delta is None:
            raise ConfigError("--m needs --n or --delta to fix the user count")
        n = users_for_ratio(delta, m)
    try:
        params = theory.SystemParams.from_system(c, sigma2, m=m, n=n, delta=None if m else delta)
    except ValueError as exc:
        raise ConfigError(f"theory flags: {exc}") from exc

    rows: list[tuple[str, str]] = []
    rows.append(("constellation", f"{c.kind.value.upper()} M={c.M}"))
    rows.append(("d_min", _fmt(c.d_min)))
    rows.append(("avg_energy", _fmt(c.avg_energy)))
    rows.append(("sigma2", _fmt(sigma2)))
    rows.append(("rho", _fmt(params.rho)))
    f_ml = theory.antenna_efficiency_ml(params)
    rows.append(("f_ml_nats_per_antenna", _fmt(f_ml)))
    rows.append(("f_ml_db_per_antenna", _fmt(theory.efficiency_db_per_antenna(f_ml))))
    f_zf = theory.antenna_efficiency_zf(params)
    rows.append(("delta", _fmt(params.delta)))
    rows.append(("f_zf_nats_per_antenna", _fmt(f_zf)))
    rows.append(("f_zf_db_per_antenna", _fmt(theory.efficiency_db_per_antenna(f_zf))))
    thresh = theory.large_n_threshold(params.rho, params.M)
    rows.append(("large_n_threshold", _fmt(thresh)))
    if m is not None:
        rows.append(("m", str(m)))
        rows.append(("n", str(n)))
        ml_lower, ml_union = theory.ml_lower_bound_log(params), theory.ml_union_bound_log(params)
        for name, log_p in (("ml_lower_bound", ml_lower), ("ml_union_bound", ml_union)):
            rows.append((name, _prob(theory.prob_from_log(log_p))))
            rows.append((f"{name}_log", _fmt(log_p)))
        big_n = theory.large_n_union_bound_log(params)
        if big_n is None:
            rows.append(("large_n_union_bound", "not-applicable (n below threshold)"))
        else:
            rows.append(("large_n_union_bound", _prob(theory.prob_from_log(big_n))))
            rows.append(("large_n_union_bound_log", _fmt(big_n)))
        zf_bounds = {"sep": theory.zf_sep_bounds_log(params), "vep": theory.zf_vep_bounds_log(params)}
        for name, (log_lo, log_hi) in zf_bounds.items():
            rows.append((f"zf_{name}_lower", _prob(theory.prob_from_log(log_lo))))
            rows.append((f"zf_{name}_upper", _prob(theory.prob_from_log(log_hi))))
    else:
        rows.append(("bounds", "give --m (with --n or --delta) for bound values"))

    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _finite(text: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A CSV cell as a finite float in [lo, hi]."""
    value = float(text)
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ValueError(f"{text!r} is not a finite number in [{lo}, {hi}]")
    return value


def _read_curves(csv_path: str) -> tuple[dict[str, VepCurve], dict[str, float]]:
    curves: dict[str, VepCurve] = {}
    refs: dict[str, float] = {}
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        read = ("m", "n", "detector", "trials", "errors", "vep", "ci_low", "ci_high", "sep", "f_ml_ref", "f_zf_ref")
        missing = [col for col in read if col not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{csv_path}:1: not a sweep results CSV (missing columns: {', '.join(missing)})")
        for row in reader:
            det = row["detector"]
            curve = curves.setdefault(det, VepCurve(detector=det))
            try:
                trials, errors = int(row["trials"]), int(row["errors"])
                estimate_vep(errors, trials)  # refuses trials < 1 and errors outside [0, trials]
                point = PointStats(
                    m=int(row["m"]),
                    n=int(row["n"]),
                    trials=trials,
                    errors=errors,
                    symbol_errors_total=0,
                    user1_errors=0,
                    vep_hat=_finite(row["vep"], 0.0, 1.0),
                    ci_low=_finite(row["ci_low"], 0.0, 1.0),
                    ci_high=_finite(row["ci_high"], 0.0, 1.0),
                    sep_hat=_finite(row["sep"], 0.0, 1.0),
                )
                refs.setdefault("ml", _finite(row["f_ml_ref"]))
                refs.setdefault("zf", _finite(row["f_zf_ref"]))
            except (TypeError, ValueError) as exc:
                # a short row leaves None in the columns it lacks
                raise ConfigError(f"{csv_path}:{reader.line_num}: bad value in a result row ({exc})") from exc
            curve.points.append(point)
    return curves, refs


def cmd_fit(csv_path: str, min_errors: int = 50) -> int:
    curves, refs = _read_curves(csv_path)
    if not curves:
        print("insufficient data: no result rows found", file=sys.stderr)
        return EXIT_RUNTIME
    fitted = 0
    for det, curve in curves.items():
        f_ref = refs["zf"] if det == "zf" else refs["ml"]
        try:
            fit = fit_slope(curve, min_errors=min_errors)
        except ValueError as exc:
            print(f"{det}: insufficient data ({exc})")
            continue
        fitted += 1
        ratio = fit.f_hat / f_ref if f_ref else float("nan")
        print(
            f"{det}: f_hat={_fmt(fit.f_hat)} nats/antenna  stderr={_fmt(fit.stderr)}  "
            f"r2={fit.r_squared:.6f}  points={list(fit.points_used)}  "
            f"f_theory={_fmt(f_ref)}  ratio={_fmt(ratio)}"
        )
    if fitted == 0:
        print("insufficient data: no detector had enough qualifying points", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimodet", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured antenna sweep")
    p_sweep.add_argument("--config", required=True, help="experiment file (INI)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sweep.add_argument("--threads", type=positive_int, default=1, help=(
        "processes that compute, this one included, each with one BLAS thread unless OPENBLAS_NUM_THREADS, "
        "OMP_NUM_THREADS or MKL_NUM_THREADS is set (neither changes results)"
    ))

    p_theory = sub.add_parser("theory", help="print closed-form quantities")
    p_theory.add_argument("--kind", required=True, choices=["psk", "qam", "custom"])
    p_theory.add_argument("--M", type=int, default=None, help="constellation size (psk/qam)")
    p_theory.add_argument("--symbols", default=None, help='custom symbols: "re,im; re,im; ..."')
    p_theory.add_argument("--snr-db", type=float, required=True)
    p_theory.add_argument("--delta", type=float, default=None)
    p_theory.add_argument("--m", type=int, default=None)
    p_theory.add_argument("--n", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit antenna efficiency from a sweep CSV")
    p_fit.add_argument("--csv", required=True, help="CSV written by the sweep subcommand")
    p_fit.add_argument("--min-errors", type=positive_int, default=50)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, seed=args.seed, threads=args.threads)
        if args.command == "theory":
            return cmd_theory(
                args.kind,
                args.M,
                args.snr_db,
                delta=args.delta,
                m=args.m,
                n=args.n,
                symbols=args.symbols,
            )
        if args.command == "fit":
            return cmd_fit(args.csv, min_errors=args.min_errors)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # RuntimeError: a pool process died; MemoryError: a grid point too large to hold
    except (ValueError, OSError, RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    # every output file is closed by now: skip the interpreter's teardown (23 ms
    # of CPU after `import mimodet.cli` alone, 2-core VM), but not buffered output
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)
