"""Piecewise eigenfunctions: construction, evaluation, closed-form integrals.

Each wave is two segments meeting at the junction x = rho:

    left  (0 <= x <= rho):      amp_left  * F(k, x, rho)
    right (rho <= x <= 1):      amp_right * F(k, 1 - x, 1 - rho)

with F = sin(k x) for the oscillatory and nodal kinds.  The evanescent kind
is junction-normalised: F = S(kappa, x, T) = sinh(kappa x) / sinh(kappa T),
taken as e^{kappa (x - T)} expm1(-2 kappa x) / expm1(-2 kappa T) and as x / T
at kappa = 0, and both amplitudes hold the junction value.  S lies in [0, 1]
and is exactly 1 at the junction, so no value, slope or integral grows like
e^kappa, and continuity holds exactly at any kappa L (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, sec. 1.14).  The zero-energy state
at the binding threshold is the kappa = 0 member of the family: the tent
sqrt(3) x / rho, sqrt(3) (1 - x) / (1 - rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentState
from .model import DimensionlessConfig
from .spectrum import (
    NODAL,
    ORDINARY_NEGATIVE,
    ORDINARY_POSITIVE,
    _RESIDUAL_TOL,
    EigenState,
    coupling,
    decoupled,
    dispersion_residual,
    rhs_negative,
)

OSCILLATORY = "oscillatory"
EVANESCENT = "evanescent"
NODAL_WAVE = "nodal"


# (x - sin x) / x^3 = sum_{n >= 1} (-1)^(n+1) x^(2n - 2) / (2n + 1)!, highest power first; below |x| = 2 the
# terms fall by |x|^2 / ((2n + 2)(2n + 3)), so 14 of them reach rounding.
_SIN_DEFECT_SERIES = [(-1) ** (n + 1) / math.factorial(2 * n + 1) for n in range(1, 15)][::-1]


def _sin_defect(x2: float) -> float:
    """(x - sin x) / x^3 from its series at x^2 = x2, |x2| < 4; at x2 = -y^2 it is (sinh y - y) / y^3."""
    acc = 0.0
    for c in _SIN_DEFECT_SERIES:
        acc = acc * x2 + c
    return acc


def _phi(s: float) -> float:
    """phi(s) = coth(s) / (2 s) - 1 / (2 sinh(s)^2), 1/3 at s = 0.

    The integral of S(kappa, u, T)^2 over [0, T] is T phi(kappa T).  Below
    s = 1 it is 2 D (s / sinh s)^2, with D = (sinh 2s - 2s) / (2s)^3 the
    series ``_int_sin2`` sums, taken at imaginary x = 2is, where every term
    is positive.  Above, the closed form in e^(-2s)
    (1 - e^(-4s) - 4 s e^(-2s)) / (2 s (1 - e^(-2s))^2).  So both segment
    norms leave the series at |2kT| = 2, and each side is within a few ulp.
    """
    if s < 1.0:
        r = s / math.sinh(s) if s else 1.0
        return 2.0 * _sin_defect(-4.0 * s * s) * r * r
    q = -math.expm1(-2.0 * s)
    return (-math.expm1(-4.0 * s) - 4.0 * s * math.exp(-2.0 * s)) / (2.0 * s * q * q)


def _kcoth(k: float, T: float) -> float:
    """k coth(k T), the log-derivative of S(k, x, T) at x = T; 1 / T at k = 0."""
    return k / math.tanh(k * T) if k else 1.0 / T


def _ratio(k: float, x: float, T: float) -> float:
    """S(k, x, T) = sinh(k x) / sinh(k T) for 0 <= x <= T; x / T at k = 0, and exactly 1 at x = T."""
    if not k:
        return x / T
    return math.exp(k * (x - T)) * math.expm1(-2.0 * k * x) / math.expm1(-2.0 * k * T)


def _int_sin2(k: float, T: float) -> float:
    """Integral of sin(k u)^2 over [0, T], (x - sin x) / (4 k) at x = 2 k T.

    Below x = 2, where the closed form T/2 - sin(x) / (4k) cancels (the first level just above the
    binding threshold, a segment next to a wall), the series of (x - sin x) / x^3 replaces it, within 4 ulp.
    """
    x = 2.0 * k * T
    if x < 2.0:
        x2 = x * x
        return 0.5 * T * x2 * _sin_defect(x2)
    return 0.5 * T - math.sin(x) / (4.0 * k)


@dataclass(frozen=True)
class PiecewiseWave:
    """Normalized two-segment eigenfunction; the module docstring gives the segment forms."""

    kind: str
    k: float
    rho: float
    amp_left: float
    amp_right: float


def _nodal_wave(k: float, m: int, rho: float) -> PiecewiseWave:
    """sqrt(2) sin(k x) at k = m pi, whose right segment carries the parity sign (-1)^(m+1)."""
    amp = math.sqrt(2.0)
    return PiecewiseWave(NODAL_WAVE, k, rho, amp, amp if m % 2 == 1 else -amp)


def build_wave(state: EigenState, config: DimensionlessConfig) -> PiecewiseWave:
    """Construct the normalized wave for a certified eigenstate; raises if the state fails its certificate.

    The certificate is the solver's: the residual at the signed root x (kL,
    or -kappa L for the bound state) may be at most
    ``spectrum._RESIDUAL_TOL`` max(1, |f| x).

    Sign convention: the slope at the left wall is positive, fixing the
    overall phase the dispersion relation leaves free.
    """
    rho = config.rho
    if state.kind in (NODAL, ORDINARY_POSITIVE):
        k = state.k
        if k == 0.0:
            raise InconsistentState("the zero-energy state is the ordinary negative one at kappaL = 0")
        m = round(k / math.pi)
        u = float(coupling(config, m)) if k == m * math.pi else None  # the weight of the level k sits on, if any
        if state.kind == NODAL and u != 0.0:
            raise InconsistentState("nodal state is not a level of zero weight of this configuration")
        if state.kind == ORDINARY_POSITIVE:
            with np.errstate(over="ignore"):  # past |f| ~ 1e300 the slope dispersion_residual discards overflows
                if abs(float(dispersion_residual(k, config))) > _RESIDUAL_TOL * max(1.0, abs(config.f) * k):
                    raise InconsistentState(f"residual certificate fails at kL={k}")
        if u is not None and decoupled(u, config.f, m):  # float u: past |f| ~ 1e300 its floor is inf, with no warning
            # the ordinary amplitudes below are of the size of the weight, which is at the rounding floor here
            return _nodal_wave(k, m, rho)
        raw_l = math.sin(k * (1.0 - rho))
        raw_r = math.sin(k * rho)
        n2 = raw_l * raw_l * _int_sin2(k, rho) + raw_r * raw_r * _int_sin2(k, 1.0 - rho)
        norm = math.sqrt(n2)
        amp_l, amp_r = raw_l / norm, raw_r / norm
        if amp_l < 0.0:
            amp_l, amp_r = -amp_l, -amp_r
        return PiecewiseWave(OSCILLATORY, k, rho, amp_l, amp_r)

    if state.kind == ORDINARY_NEGATIVE:
        kap = state.k
        if abs(config.f * kap - rhs_negative(kap, config.rho)) > _RESIDUAL_TOL:  # max(1, |f| x) = 1 at x = -kap
            raise InconsistentState(f"residual certificate fails at kappaL={kap}")
        junction = 1.0 / math.sqrt(rho * _phi(kap * rho) + (1.0 - rho) * _phi(kap * (1.0 - rho)))
        return PiecewiseWave(EVANESCENT, kap, rho, junction, junction)

    raise InconsistentState(f"unknown state kind {state.kind!r}")


def evaluate(wave: PiecewiseWave, x: float) -> float:
    """Wave value at x in [0, 1]; exactly zero at both walls."""
    if not 0.0 < x < 1.0:
        if x == 0.0 or x == 1.0:
            return 0.0
        raise DomainError(f"x={x} outside the unit well")
    if wave.kind == EVANESCENT:
        if x <= wave.rho:
            return wave.amp_left * _ratio(wave.k, x, wave.rho)
        return wave.amp_right * _ratio(wave.k, 1.0 - x, 1.0 - wave.rho)
    if x <= wave.rho:
        return wave.amp_left * math.sin(wave.k * x)
    return wave.amp_right * math.sin(wave.k * (1.0 - x))


def matching_defect(wave: PiecewiseWave, config: DimensionlessConfig) -> tuple[float, float]:
    """(continuity defect, slope-jump defect) at the junction.

    The jump condition in these units is psi'_+ - psi'_- + (2/f) psi = 0.
    """
    k, a, b, rho = wave.k, wave.amp_left, wave.amp_right, wave.rho
    if wave.kind == EVANESCENT:  # S(k, T, T) = 1: each side's junction value is its amplitude
        vl, vr, dl, dr = a, b, a * _kcoth(k, rho), -b * _kcoth(k, 1.0 - rho)
    else:
        vl, vr = a * math.sin(k * rho), b * math.sin(k * (1.0 - rho))
        dl, dr = a * k * math.cos(k * rho), -b * k * math.cos(k * (1.0 - rho))
    return abs(vr - vl), abs(dr - dl + config.lam * vl)


def gram_matrix(waves: list[PiecewiseWave]) -> np.ndarray:
    """Matrix of the integrals of w_i w_j over the well, from the closed forms broadcast over all pairs.

    Both segments are taken at once, T = (rho, 1 - rho) on the leading axis:
    the sin sin form for the oscillatory and nodal waves, the sin S form in
    the row and column of the evanescent wave, and the squared forms where
    the two k are equal.  One configuration has at most one evanescent wave,
    so there is no S S form: two of them raise ValueError.
    """
    ev = [i for i, w in enumerate(waves) if w.kind == EVANESCENT]
    if len(ev) > 1:
        raise ValueError(f"{len(ev)} evanescent waves; one configuration has at most one")
    if not waves:
        return np.empty((0, 0))
    segments = (waves[0].rho, 1.0 - waves[0].rho)
    T = np.array(segments)[:, None]  # one row per segment
    k = np.array([w.k for w in waves])
    amp = np.array([[w.amp_left for w in waves], [w.amp_right for w in waves]])
    square = np.array([[u * _phi(w.k * u) if w.kind == EVANESCENT else _int_sin2(w.k, u) for w in waves] for u in segments])
    a, t = k[:, None], T[:, :, None]
    d, s = a - k, a + k
    # the diagonal's 0/0 gives way to the squared form below; past kappa ~ 1e154, k^2 + kappa^2 is inf, as on floats
    with np.errstate(invalid="ignore", over="ignore"):
        seg = 0.5 * (np.sin(d * t) / d - np.sin(s * t) / s)
        for e in ev:
            kcoth = np.array([[_kcoth(waves[e].k, u)] for u in segments])
            kT = k * T
            seg[:, e, :] = seg[:, :, e] = (kcoth * np.sin(kT) - k * np.cos(kT)) / (k * k + k[e] * k[e])
    seg = np.where(a == k, square[:, None, :], seg)
    p = amp[:, :, None] * amp[:, None, :] * seg
    return p[0] + p[1]
