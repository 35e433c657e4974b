"""Benchmark workloads: each one is a `mimodet sweep` config made from a seed.

A workload fixes everything about the sweep except ``master_seed``, which is
the benchmark's ``--seed``.  Config text is a pure function of
(workload, seed); the program under test receives only that text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 20260809

#: Trials per work block in `montecarlo`; the adaptive stop and the pool's
#: speculative lookahead both act at these boundaries.
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # constellation family: "qam" or "psk"
    M: int
    detectors: tuple[str, ...]
    snr_db: float
    m_grid: tuple[int, ...]
    trials: int
    threads: int
    delta: float | None = None
    n: int | None = None
    target_errors: int | None = None

    def users_for(self, m: int) -> int:
        if self.n is not None:
            return self.n
        return int(math.floor(self.delta * m + 0.5))

    def grid_points(self) -> list[tuple[int, int]]:
        return [(m, self.users_for(m)) for m in self.m_grid]

    def config_text(self, seed: int) -> str:
        """INI config of this workload with ``master_seed = seed``."""
        exp = [
            f"detectors = {', '.join(self.detectors)}",
            f"snr_db = {self.snr_db!r}",
            f"delta = {self.delta!r}" if self.delta is not None else f"n = {self.n}",
            f"m_grid = {', '.join(str(m) for m in self.m_grid)}",
            f"trials = {self.trials}",
            f"master_seed = {int(seed)}",
        ]
        if self.target_errors is not None:
            exp.append(f"target_errors = {self.target_errors}")
        lines = ["[constellation]", f"kind = {self.kind}", f"M = {self.M}", "", "[experiment]", *exp]
        return "\n".join(lines) + "\n"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # C1 / fig1-3 traffic: per-trial Philox set-up, sampling and tiny
        # LAPACK QR/solves, where BLAS threading bites.  ML is bypassed.
        Workload(
            name="zf-delta3",
            why="ZF at delta=1/3 (C1/fig traffic): per-trial stream set-up, sampling and small QR solves; bypasses ML",
            kind="qam",
            M=16,
            detectors=("zf",),
            snr_db=0.0,
            delta=1.0 / 3.0,
            m_grid=(24, 36, 48),
            trials=1536,
            threads=1,
        ),
        # C2 traffic: dense candidate scoring over 4^6..4^8 candidates and
        # the enumeration cache; sampling is a small share.  ZF stays out:
        # with ZF on the same instances, the median exhaustive call took
        # 6.6 ms instead of 0.84 ms and a sweep 19 s instead of 3.3 s on a
        # 2-core VM under the inherited BLAS threading.
        Workload(
            name="ml-enum",
            why="exhaustive ML over 4^6..4^8 QPSK candidates (C2 traffic): dense candidate scoring; bypasses ZF and sphere",
            kind="psk",
            M=4,
            detectors=("ml-exhaustive",),
            snr_db=-6.0,
            delta=0.25,
            m_grid=(24, 28, 32),
            trials=512,
            threads=1,
        ),
        # fig1 fixed-n4 traffic: branchy sphere search on tiny matrices, and
        # the only workload through pool dispatch, lookahead and adaptive stop.
        # ZF is left out: with it, pooled sweeps of one config took 4.8 s to
        # 11.7 s from run to run on a 2-core VM under the inherited OpenBLAS
        # threading (1.2 s with one BLAS thread), too unsteady to bound.  With
        # target_errors = 80 the points stop after 256 and 512 trials and
        # m=48 runs to the cap, for nearly every seed.
        Workload(
            name="sphere-pool",
            why="sphere ML at n=4 on 2 workers with adaptive stop (fig1 fixed-n4 traffic): pool dispatch, lookahead and tree search",
            kind="qam",
            M=16,
            detectors=("ml-sphere",),
            snr_db=0.0,
            n=4,
            m_grid=(12, 24, 48),
            trials=2048,
            target_errors=80,
            threads=2,
        ),
    )
}


def config_text(workload: str, seed: int) -> str:
    return WORKLOADS[workload].config_text(seed)
