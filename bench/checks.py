"""Correctness gate for sweep CSVs: structure, Wilson intervals and bounds.

Every check is computed here from the workload definition alone, with its
own copy of the closed forms, so a defect in the program's theory or
interval code shows as a failed check instead of being compared with itself.
Each check is one (label, passed) pair; ``failed_frac`` is the share that
did not pass.
"""

from __future__ import annotations

import csv
import io
import math

from workloads import TRIAL_BLOCK, Workload

CSV_COLUMNS = [
    "m", "n", "detector", "trials", "errors", "vep", "ci_low", "ci_high", "sep",
    "theory_ml_lower", "theory_ml_union", "theory_zf_lower", "theory_zf_upper",
    "f_ml_ref", "f_zf_ref",
    "log_theory_ml_lower", "log_theory_ml_union", "log_theory_zf_lower", "log_theory_zf_upper",
]

WILSON_Z = 1.96

#: Relative tolerance for values the CSV prints with 10 significant digits.
PRINT_RTOL = 1e-8


def wilson(p: float, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a proportion p observed over ``trials``."""
    z2n = WILSON_Z * WILSON_Z / trials
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = WILSON_Z / (1.0 + z2n) * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    return max(0.0, center - half), min(1.0, center + half)


def rho(w: Workload) -> float:
    """Effective SNR d_min^2 / (4 sigma^2) of a unit-energy constellation."""
    if w.kind == "qam":
        d_min = 2.0 / math.sqrt(2.0 * (w.M - 1) / 3.0)
    else:
        d_min = 2.0 * math.sin(math.pi / w.M)
    sigma2 = 10.0 ** (-w.snr_db / 10.0)
    return d_min * d_min / (4.0 * sigma2)


def log_bounds(w: Workload, m: int, n: int) -> dict[str, float]:
    """Natural-log bounds for one grid point, keyed like the CSV columns."""
    r, M = rho(w), w.M
    terms = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(M - 1) - m * math.log1p(k * r)
        for k in range(1, n + 1)
    ]
    top = max(terms)
    a = m - n + 1
    return {
        "log_theory_ml_lower": -0.5 * math.log(math.pi * (m + 0.5)) - math.log(M) - m * math.log1p(r),
        "log_theory_ml_union": top + math.log(sum(math.exp(t - top) for t in terms)) - math.log(2.0),
        "log_theory_zf_lower": -0.5 * math.log(math.pi * (m - n + 1.5)) - math.log(M) - a * math.log1p(r),
        "log_theory_zf_upper": math.log((M - 1) / 2.0) - a * math.log1p(r) + math.log(n),
    }


def _close(a: float, b: float, rtol: float = PRINT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_csv(text: str, w: Workload) -> list[tuple[str, bool]]:
    """All checks on one sweep CSV of workload ``w``; a field that does not parse fails one."""
    checks: list[tuple[str, bool]] = []
    try:
        _check_rows(text, w, lambda label, ok: checks.append((label, bool(ok))))
    except (ValueError, ZeroDivisionError) as exc:
        checks.append((f"CSV fields parse: {exc}", False))
    return checks


def _check_rows(text: str, w: Workload, check) -> None:
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = list(reader)
    check("header", bool(rows) and rows[0] == CSV_COLUMNS)
    body = [dict(zip(CSV_COLUMNS, row)) for row in rows[1:] if len(row) == len(CSV_COLUMNS)]
    expected = [(m, n, det) for m, n in w.grid_points() for det in w.detectors]
    check("row keys", [(int(r["m"]), int(r["n"]), r["detector"]) for r in body] == expected)
    if len(body) != len(expected):
        return

    f_ml = math.log1p(rho(w))
    f_zf = (1.0 - (w.delta or 0.0)) * f_ml
    for i, (m, n) in enumerate(w.grid_points()):
        point = body[i * len(w.detectors) : (i + 1) * len(w.detectors)]
        trials = {int(r["trials"]) for r in point}
        check(f"m={m} one trial count", len(trials) == 1)
        t = trials.pop()
        stopped = (
            w.target_errors is not None
            and t < w.trials
            and t % TRIAL_BLOCK == 0
            and all(int(r["errors"]) >= w.target_errors for r in point)
        )
        check(f"m={m} trials at cap or stop rule holds", t == w.trials or stopped)
        bounds = log_bounds(w, m, n)
        for r in point:
            at = f"m={m} {r['detector']}"
            errors = int(r["errors"])
            vep, lo, hi = float(r["vep"]), float(r["ci_low"]), float(r["ci_high"])
            counts_ok = 0 <= errors <= t
            check(f"{at} 0 <= errors <= trials", counts_ok)
            check(f"{at} vep = errors/trials", _close(vep, errors / t))
            check(f"{at} ci_low <= vep <= ci_high", lo <= vep <= hi)
            w_lo, w_hi = wilson(errors / t, t) if counts_ok else (math.nan, math.nan)
            check(f"{at} Wilson interval", abs(lo - w_lo) <= 1e-9 + PRINT_RTOL * w_lo and abs(hi - w_hi) <= PRINT_RTOL)
            for col, value in bounds.items():
                check(f"{at} {col}", _close(float(r[col]), value))
                linear = min(1.0, math.exp(min(value, 0.0)))
                check(f"{at} {col[4:]}", _close(float(r[col[4:]]), linear) or linear < 1e-300)
            check(f"{at} f_ml_ref", _close(float(r["f_ml_ref"]), f_ml, 1e-10))
            check(f"{at} f_zf_ref", _close(float(r["f_zf_ref"]), f_zf, 1e-10))
            sep = float(r["sep"])
            check(f"{at} 0 <= sep <= 1", 0.0 <= sep <= 1.0)
            if r["detector"] == "zf":
                # the per-user SEP sandwich is the zf VEP sandwich without the factor n
                sep_lo, sep_hi = wilson(sep, t) if 0.0 <= sep <= 1.0 else (math.nan, math.nan)
                lower = math.exp(bounds["log_theory_zf_lower"])
                upper = math.exp(bounds["log_theory_zf_upper"]) / n
                check(f"{at} sep inside ZF SEP sandwich", sep_hi >= lower and sep_lo <= upper)
            else:
                lower = math.exp(bounds["log_theory_ml_lower"])
                union = min(1.0, math.exp(min(bounds["log_theory_ml_union"], 0.0)))
                check(f"{at} vep inside ML lower/union bounds", hi >= lower and lo <= union)


def failed(checks: list[tuple[str, bool]]) -> list[str]:
    return [label for label, ok in checks if not ok]
