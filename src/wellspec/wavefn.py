"""Piecewise eigenfunctions: construction, evaluation, closed-form integrals.

Each wave is two segments meeting at the junction x = rho:

    left  (0 <= x <= rho):      amp_left  * F(k * x)
    right (rho <= x <= 1):      amp_right * F(k * (1 - x))

with F = sin for oscillatory/nodal kinds and F = sinh for the evanescent
kind.  Evanescent amplitudes are kept in log form internally so evaluation
stays finite for decay constants up to ~1e4.
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
    EigenState,
    coupling,
    decoupled,
    dispersion_residual,
    negative_residual,
)

OSCILLATORY = "oscillatory"
EVANESCENT = "evanescent"
NODAL_WAVE = "nodal"

_LOG2 = math.log(2.0)


def _logsinh(t: float) -> float:
    if t <= 0.0:
        return -math.inf
    if t < 1e-8:
        return math.log(t)
    return t + math.log1p(-math.exp(-2.0 * t)) - _LOG2


def _logcosh(t: float) -> float:
    return t + math.log1p(math.exp(-2.0 * t)) - _LOG2


def _int_sin2(k: float, T: float) -> float:
    """Integral of sin(k u)^2 over [0, T]."""
    return 0.5 * T - math.sin(2.0 * k * T) / (4.0 * k)


def _log_int_sinh2(kappa: float, T: float) -> float:
    """log of the integral of sinh(kappa u)^2 over [0, T], overflow-free."""
    s = 2.0 * kappa * T
    if s < 0.1:
        return math.log(s**3 / 6.0 * (1.0 + s * s / 20.0 + s**4 / 840.0)) - math.log(4.0 * kappa)
    if s < 700.0:
        return math.log(math.sinh(s) - s) - math.log(4.0 * kappa)
    ls = _logsinh(s)
    return ls + math.log1p(-math.exp(math.log(s) - ls)) - math.log(4.0 * kappa)


def _int_sin_sin(a: float, b: float, T: float) -> float:
    """Integral of sin(a u) sin(b u) over [0, T]."""
    if a == b:
        return _int_sin2(a, T)
    d, s = a - b, a + b
    return 0.5 * (math.sin(d * T) / d - math.sin(s * T) / s)


@dataclass(frozen=True)
class PiecewiseWave:
    """Normalized two-segment eigenfunction.

    ``norm`` is the constant the raw segment amplitudes were divided by.
    For the evanescent kind the public amplitudes may under/overflow at
    extreme decay; ``log_left``/``log_right`` are the authoritative
    representation used by evaluation (both segments are positive there).
    """

    kind: str
    k: float
    rho: float
    amp_left: float
    amp_right: float
    norm: float
    log_left: float = math.nan
    log_right: float = math.nan


def _nodal_wave(k: float, m: int, rho: float) -> PiecewiseWave:
    """sqrt(2) sin(k x) at k = m pi, whose right segment carries the parity sign (-1)^(m+1)."""
    amp = math.sqrt(2.0)
    return PiecewiseWave(NODAL_WAVE, k, rho, amp, amp if m % 2 == 1 else -amp, 1.0)


def build_wave(
    state: EigenState, config: DimensionlessConfig, check: bool = True, tol: float = 1e-8
) -> PiecewiseWave:
    """Construct the normalized wave for a certified eigenstate.

    Sign convention: the slope at the left wall is positive, fixing the
    overall phase the dispersion relation leaves free.
    """
    rho = config.rho
    if state.kind == NODAL:
        if check and (not config.is_exact or state.n != config.rational.n):
            raise InconsistentState("nodal state does not belong to this configuration")
        return _nodal_wave(state.k, state.n * state.j, rho)

    if state.kind == ORDINARY_POSITIVE:
        k = state.k
        if k == 0.0:
            raise InconsistentState("the marginal zero-energy state has no trigonometric form")
        if check and abs(float(dispersion_residual(k, config))) > tol * max(1.0, abs(config.f) * k):
            raise InconsistentState(f"residual certificate fails at kL={k}")
        m = round(k / math.pi)
        if k == m * math.pi and decoupled(coupling(config, m), config.f, m):
            # the ordinary amplitudes below are of the size of the weight, which is at the rounding floor here
            return _nodal_wave(k, m, rho)
        raw_l = math.sin(k * (1.0 - rho))
        raw_r = math.sin(k * rho)
        n2 = raw_l * raw_l * _int_sin2(k, rho) + raw_r * raw_r * _int_sin2(k, 1.0 - rho)
        norm = math.sqrt(n2)
        amp_l, amp_r = raw_l / norm, raw_r / norm
        if amp_l < 0.0:
            amp_l, amp_r = -amp_l, -amp_r
        return PiecewiseWave(OSCILLATORY, k, rho, amp_l, amp_r, norm)

    if state.kind == ORDINARY_NEGATIVE:
        kap = state.k
        if check and abs(negative_residual(kap, config)) > tol:
            raise InconsistentState(f"residual certificate fails at kappaL={kap}")
        ll_raw = _logsinh(kap * (1.0 - rho))
        lr_raw = _logsinh(kap * rho)
        la = 2.0 * ll_raw + _log_int_sinh2(kap, rho)
        lb = 2.0 * lr_raw + _log_int_sinh2(kap, 1.0 - rho)
        logn2 = max(la, lb) + math.log1p(math.exp(-abs(la - lb)))
        log_l = ll_raw - 0.5 * logn2
        log_r = lr_raw - 0.5 * logn2
        norm = math.exp(0.5 * logn2) if logn2 < 1400.0 else math.inf
        return PiecewiseWave(
            EVANESCENT,
            kap,
            rho,
            math.exp(log_l),
            math.exp(log_r),
            norm,
            log_left=log_l,
            log_right=log_r,
        )

    raise InconsistentState(f"unknown state kind {state.kind!r}")


def _left_value(w: PiecewiseWave, x: float) -> float:
    if w.kind == EVANESCENT:
        t = w.k * x
        if t <= 0.0:
            return 0.0
        return math.exp(w.log_left + _logsinh(t))
    return w.amp_left * math.sin(w.k * x)


def _right_value(w: PiecewiseWave, x: float) -> float:
    if w.kind == EVANESCENT:
        t = w.k * (1.0 - x)
        if t <= 0.0:
            return 0.0
        return math.exp(w.log_right + _logsinh(t))
    return w.amp_right * math.sin(w.k * (1.0 - x))


def evaluate(wave: PiecewiseWave, x: float) -> float:
    """Wave value at x in [0, 1]; exactly zero at both walls."""
    if not 0.0 < x < 1.0:
        if x == 0.0 or x == 1.0:
            return 0.0
        raise DomainError(f"x={x} outside the unit well")
    if wave.kind == EVANESCENT:
        return _left_value(wave, x) if x <= wave.rho else _right_value(wave, x)
    if x <= wave.rho:
        return wave.amp_left * math.sin(wave.k * x)
    return wave.amp_right * math.sin(wave.k * (1.0 - x))


def _left_slope_at_junction(w: PiecewiseWave) -> float:
    if w.kind == EVANESCENT:
        return w.k * math.exp(w.log_left + _logcosh(w.k * w.rho))
    return w.amp_left * w.k * math.cos(w.k * w.rho)


def _right_slope_at_junction(w: PiecewiseWave) -> float:
    if w.kind == EVANESCENT:
        return -w.k * math.exp(w.log_right + _logcosh(w.k * (1.0 - w.rho)))
    return -w.amp_right * w.k * math.cos(w.k * (1.0 - w.rho))


def matching_defect(wave: PiecewiseWave, config: DimensionlessConfig) -> tuple[float, float]:
    """(continuity defect, slope-jump defect) at the junction.

    The jump condition in these units is psi'_+ - psi'_- + (2/f) psi = 0.
    """
    vl = _left_value(wave, wave.rho)
    vr = _right_value(wave, wave.rho)
    continuity = abs(vr - vl)
    jump = abs(_right_slope_at_junction(wave) - _left_slope_at_junction(wave) + config.lam * vl)
    return continuity, jump


def _trig_trig_product(w1: PiecewiseWave, w2: PiecewiseWave) -> float:
    rho = w1.rho
    return w1.amp_left * w2.amp_left * _int_sin_sin(w1.k, w2.k, rho) + w1.amp_right * w2.amp_right * _int_sin_sin(
        w1.k, w2.k, 1.0 - rho
    )


def _trig_evan_segment(a: float, b: float, T: float, amp_trig: float, log_ev: float) -> float:
    # integral of sin(a u) sinh(b u) split into e^{bT} and e^{-bT} parts so the
    # log-amplitude of the evanescent factor can absorb the growth
    denom = 2.0 * (a * a + b * b)
    p = (b * math.sin(a * T) - a * math.cos(a * T)) / denom
    q = (b * math.sin(a * T) + a * math.cos(a * T)) / denom
    return amp_trig * (math.exp(log_ev + b * T) * p + math.exp(log_ev - b * T) * q)


def _trig_evan_product(wt: PiecewiseWave, we: PiecewiseWave) -> float:
    rho = wt.rho
    left = _trig_evan_segment(wt.k, we.k, rho, wt.amp_left, we.log_left)
    right = _trig_evan_segment(wt.k, we.k, 1.0 - rho, wt.amp_right, we.log_right)
    return left + right


def _evan_evan_segment(a: float, b: float, T: float, l1: float, l2: float) -> float:
    if a == b:
        return math.exp(l1 + l2 + _log_int_sinh2(a, T))
    s = a + b
    d = abs(a - b)
    t1 = math.exp(l1 + l2 + _logsinh(s * T)) / (2.0 * s)
    t2 = math.exp(l1 + l2 + _logsinh(d * T)) / (2.0 * d) if d > 0.0 else math.exp(l1 + l2) * T * 0.5
    return t1 - t2


def inner_product(w1: PiecewiseWave, w2: PiecewiseWave) -> float:
    """Exact closed-form integral of w1*w2 over the well; no quadrature."""
    e1 = w1.kind == EVANESCENT
    e2 = w2.kind == EVANESCENT
    if not e1 and not e2:
        return _trig_trig_product(w1, w2)
    if e1 and e2:
        rho = w1.rho
        left = _evan_evan_segment(w1.k, w2.k, rho, w1.log_left, w2.log_left)
        right = _evan_evan_segment(w1.k, w2.k, 1.0 - rho, w1.log_right, w2.log_right)
        return left + right
    if e1:
        return _trig_evan_product(w2, w1)
    return _trig_evan_product(w1, w2)


def gram_matrix(waves: list[PiecewiseWave]):
    """Symmetric matrix of pairwise inner products."""
    n = len(waves)
    g = np.empty((n, n))
    for i in range(n):
        for jj in range(i, n):
            v = inner_product(waves[i], waves[jj])
            g[i, jj] = v
            g[jj, i] = v
    return g
