"""Constellation sets: construction, minimum distance, nearest-symbol mapping.

All detectors and closed-form bounds in this package are driven by two
constellation quantities: the minimum pairwise distance d_min and the average
symbol energy.  Both are computed exactly at construction time and cached on
the (immutable) Constellation object.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np


def as_integer(value, name: str) -> int:
    """``value`` as a Python int; a bool, a float or a numpy bool raises TypeError, never truncated or read as 0/1."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return operator.index(value)


class ConstellationKind(enum.Enum):
    PSK = "psk"
    QAM = "qam"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Constellation:
    """An ordered set of complex constellation points.

    ``d_min`` (the exact minimum |s - s'| over distinct symbol pairs) and
    ``avg_energy`` are always recomputed from the symbol list, so custom
    (possibly unnormalized) sets report their true geometry.
    Instances are immutable and safe to share across worker processes.
    """

    symbols: np.ndarray
    kind: ConstellationKind = ConstellationKind.CUSTOM
    M: int = field(init=False)
    d_min: float = field(init=False)
    avg_energy: float = field(init=False)

    def __post_init__(self) -> None:
        sym = np.asarray(self.symbols, dtype=np.complex128).ravel()
        if sym.size < 2:
            raise ValueError(f"constellation needs at least 2 symbols, got {sym.size}")
        if not np.all(np.isfinite(sym.view(np.float64))):
            raise ValueError("constellation symbols must be finite")
        dist = np.abs(sym[:, None] - sym[None, :])
        np.fill_diagonal(dist, np.inf)
        d = float(dist.min())
        if d == 0.0:
            raise ValueError("constellation symbols must be pairwise distinct")
        with np.errstate(over="ignore"):  # an energy that overflows is refused below
            energy = float(np.mean(np.abs(sym) ** 2))
        if not 0.0 < energy < np.inf:
            raise ValueError(f"constellation average energy must be finite and positive, got {energy}")
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "M", int(sym.size))
        object.__setattr__(self, "d_min", d)
        object.__setattr__(self, "avg_energy", energy)

    def cache_token(self) -> tuple:
        """Hashable identity behind equality and hashing."""
        return (self.kind.value, self.M, self.symbols.tobytes())

    def __eq__(self, other) -> bool:
        return isinstance(other, Constellation) and self.cache_token() == other.cache_token()

    def __hash__(self) -> int:
        return hash(self.cache_token())


def make_constellation(kind: ConstellationKind | str, M: int) -> Constellation:
    """Build a unit-average-energy M-PSK or square M-QAM constellation.

    PSK places symbols at angles 2*pi*k/M, k = 0..M-1 (no phase rotation;
    results are rotation invariant, one convention is fixed for determinism).
    QAM uses the square {+-1, +-3, ...} grid scaled to unit average energy and
    requires M to be an even power of two (4, 16, 64, ...).
    """
    if isinstance(kind, str):
        kind = ConstellationKind(kind.lower())
    M = as_integer(M, "M")
    if kind is ConstellationKind.PSK:
        if M < 2:
            raise ValueError(f"PSK needs M >= 2, got {M}")
        angles = 2.0 * np.pi * np.arange(M) / M
        symbols = np.exp(1j * angles)
    elif kind is ConstellationKind.QAM:
        side = round(np.sqrt(M))
        if M < 4 or side * side != M or (side & (side - 1)) != 0:
            raise ValueError(f"QAM needs M an even power of two (4, 16, 64, ...), got {M}")
        levels = np.arange(-(side - 1), side, 2, dtype=np.float64)
        re, im = np.meshgrid(levels, levels, indexing="ij")
        grid = (re + 1j * im).ravel()
        symbols = grid / np.sqrt(np.mean(np.abs(grid) ** 2))
    else:
        raise ValueError("use Constellation(symbols) directly for custom sets")
    return Constellation(symbols=symbols, kind=kind)


def nearest_symbols(c: Constellation, z: np.ndarray) -> np.ndarray:
    """Entrywise nearest-symbol indices for an array (or scalar) of points.

    Ties break to the lowest symbol index.
    """
    z = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(z).all():
        raise ValueError("nearest_symbols needs finite points")
    # argmin returns the first (lowest-index) minimizer
    return np.argmin(np.abs(z[..., None] - c.symbols), axis=-1)
