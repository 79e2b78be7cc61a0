"""Problem instance for a unit-width well with an interior contact potential.

Units are fixed once for the whole package: hbar^2/(2m) = 1 and L = 1.
With coupling f = Lambda/L this makes lambda = 2/f, positive energies
E = (kL)^2, negative energies E = -(kappa L)^2, and the free-space binding
energy E_B = 1/f^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PositionOutOfRange

MIN_COUPLING = 1e-154  # the smallest |f| whose binding energy scale 1/f^2 is finite


def check_coupling(f: float) -> None:
    """Raise ``ValueError`` naming f unless |f| >= ``MIN_COUPLING``; f = +-inf passes, 0 and NaN do not."""
    if not abs(f) >= MIN_COUPLING:
        if f == 0.0 or math.isnan(f):
            raise ValueError("coupling f must be a nonzero real")
        raise ValueError(f"coupling f={f!r} is below {MIN_COUPLING:g} in magnitude, where -1/f^2 overflows")


@dataclass(frozen=True)
class RationalPosition:
    """Reduced fraction p/n strictly inside (0, 1)."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.p < 1 or self.p >= self.n:
            raise PositionOutOfRange(f"{self.p}/{self.n} is not strictly inside (0, 1)")
        if math.gcd(self.p, self.n) != 1:
            raise ValueError(f"{self.p}/{self.n} is not reduced")

    @property
    def value(self) -> float:
        return self.p / self.n


def reduce_position(p: int, n: int) -> RationalPosition:
    """Reduce p/n to lowest terms, rejecting positions on or past a wall."""
    if n < 1 or p < 1 or p >= n:
        raise PositionOutOfRange(f"{p}/{n} puts the delta on or outside a wall")
    g = math.gcd(p, n)
    return RationalPosition(p // g, n // g)


@dataclass(frozen=True)
class DimensionlessConfig:
    """Position rho = l/L and coupling f = Lambda/L of one problem instance.

    ``rational`` is set only when the caller declares the position exactly
    rational; a bare float is always treated as the irrational case.  This is
    an input declaration, not a detection: floats cannot be classified.
    f = +inf is accepted as the zero-coupling sentinel (free well) used by
    the spectral cross-check; f = 0 and |f| < ``MIN_COUPLING`` are rejected.
    """

    rho: float
    f: float
    rational: RationalPosition | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise PositionOutOfRange(f"rho={self.rho} must lie strictly inside (0, 1)")
        check_coupling(self.f)
        if self.rational is not None and self.rational.value != self.rho:
            raise ValueError("declared rational position disagrees with rho")

    @classmethod
    def exact(cls, p: int, n: int, f: float) -> "DimensionlessConfig":
        pos = reduce_position(p, n)
        return cls(rho=pos.value, f=f, rational=pos)

    @classmethod
    def generic(cls, rho: float, f: float) -> "DimensionlessConfig":
        return cls(rho=float(rho), f=f)

    @property
    def is_exact(self) -> bool:
        return self.rational is not None

    @property
    def lam(self) -> float:
        """Delta strength lambda = 2/f in the fixed unit convention."""
        return 2.0 / self.f

    @property
    def binding_energy(self) -> float:
        """Free-space binding-energy scale E_B = 1/f^2."""
        return 1.0 / (self.f * self.f)

