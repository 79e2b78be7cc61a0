"""Spectrum solvers: dispersion relations, nodal enumeration, asymptotics.

Positive-energy roots come from the entire-function residual

    g(kL) = f * kL * sin(kL) - 2 * sin(kL*rho) * sin(kL*(1-rho)),

which is pole-free, and whose roots interlace the free-well levels m*pi, so
every level below a ceiling has its own certified bracket.  The pole-ridden
ratio form is kept only for emitting dispersion-curve data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import PositionOutOfRange, SolverFailure
from .model import DimensionlessConfig, RationalPosition

NODAL = "nodal"
ORDINARY_POSITIVE = "ordinary_positive"
ORDINARY_NEGATIVE = "ordinary_negative"

DEFAULT_K_MAX = 20.0 * math.pi

_EPS = 2.220446049250313e-16
_RESIDUAL_TOL = 1e-10  # a root's |g| may be at most this times max(1, |f| kL)
_MAX_BISECT = 240  # cap on the passes of one solve


class EigenState(NamedTuple):
    """One spectrum entry.

    ``k`` is kL for the positive kinds and kappa*L for the negative kind.
    ``residual`` is the absolute dispersion residual at the accepted root;
    nodal states carry 0.0 because their residual vanishes identically.
    """

    kind: str
    k: float
    energy: float
    residual: float
    n: int | None = None
    j: int | None = None


@dataclass(frozen=True)
class Spectrum:
    config: DimensionlessConfig
    entries: list[EigenState]
    k_max: float

    @property
    def energies(self) -> list[float]:
        return [s.energy for s in self.entries]


def dispersion_residual(kL, config: DimensionlessConfig):
    """g(kL); zero exactly at nodal and ordinary positive-energy roots."""
    rho = config.rho
    return config.f * kL * np.sin(kL) - 2.0 * np.sin(kL * rho) * np.sin(kL * (1.0 - rho))


def rhs_positive(kL, rho: float, pole_eps: float = 1e-9):
    """Ratio form 2 sin(kL rho) sin(kL (1-rho)) / sin(kL), at one kL or an array of them.

    NaN marks a genuine pole, where sin(kL) vanishes without the numerator;
    removable singularities (shared zeros) are filled with the l'Hopital limit.
    """
    kL = np.asarray(kL, dtype=float)
    s = np.sin(kL)
    num = 2.0 * np.sin(kL * rho) * np.sin(kL * (1.0 - rho))
    dnum = 2.0 * (
        rho * np.cos(kL * rho) * np.sin(kL * (1.0 - rho)) + (1.0 - rho) * np.sin(kL * rho) * np.cos(kL * (1.0 - rho))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(np.abs(s) < pole_eps, np.where(np.abs(num) < pole_eps, dnum / np.cos(kL), np.nan), num / s)
    return out if out.ndim else float(out)


def _rhs_negative_and_slope(kappaL, rho) -> tuple[np.ndarray, np.ndarray]:
    """``rhs_negative`` and its slope in kappaL, for t > 0, over arrays of t and rho that broadcast together.

    Factoring e^t out of each sinh gives R = a b / c, with a = 1 - e^(-2 t rho),
    b = 1 - e^(-2 t (1 - rho)) and c = 1 - e^(-2 t), each taken by expm1: no
    term cancels, next to a wall or at small t, and none overflows at any t
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 1.14).
    The slope is taken from the exponentials themselves, which keeps it
    accurate where it is subnormal.
    """
    t, rho = np.asarray(kappaL, dtype=float), np.asarray(rho, dtype=float)
    x, y = 2.0 * t * rho, 2.0 * t * (1.0 - rho)
    a, b, c = -np.expm1(-x), -np.expm1(-y), -np.expm1(-2.0 * t)
    value = a * b / c
    slope = (2.0 * rho * np.exp(-x) * b + 2.0 * (1.0 - rho) * np.exp(-y) * a - 2.0 * np.exp(-2.0 * t) * value) / c
    return value, slope


def rhs_negative(kappaL: float, rho: float) -> float:
    """2 sinh(kL rho) sinh(kL (1-rho)) / sinh(kL), monotone increasing from 0 to 1; 0 for kL <= 0.

    One expm1 formula, accurate to a few ulp for any kL and rho (see
    ``_rhs_negative_and_slope``).
    """
    t = float(kappaL)
    if t <= 0.0:
        return 0.0
    return float(_rhs_negative_and_slope(t, rho)[0])


def negative_residual(kappaL: float, config: DimensionlessConfig) -> float:
    """Scaled negative-energy residual f*kappaL - rhs_negative; zero at the bound root."""
    return config.f * kappaL - rhs_negative(kappaL, config.rho)


def solve_brackets(fn, lo, hi, lo_sign, max_iter: int = _MAX_BISECT) -> np.ndarray:
    """The root of ``fn`` on every bracket (lo[i], hi[i]), solved at once by safeguarded Newton.

    ``fn(x, idx)`` returns the values and the slopes at the points ``x`` of the
    brackets numbered ``idx`` (ascending, possibly repeated).  ``lo_sign`` (a
    scalar or one entry per bracket) is the sign of ``fn`` just inside lo[i];
    ``fn`` has the opposite sign just inside hi[i].  The given endpoints are
    never evaluated, so a bracket may end on a pole, or on a rounded multiple
    of pi where ``fn`` rounds to the wrong sign.

    Each pass evaluates every open bracket at its iterate and narrows the
    bracket by the sign; an exact zero closes it.  The next iterate is the
    Newton point when it lies inside the bracket and its step is at most half
    the step before last (the safeguard of Numerical Recipes' ``rtsafe``).
    Otherwise the iterate moves from the end it just set toward the other
    end: by twice the step right after a Newton step, so that a stall at the
    rounding floor straddles the root, and to the midpoint after that.

    With tol = 4 eps max(1, |x|), a bracket is done once its width or its
    Newton step is within tol; the root is then the midpoint, or the Newton
    point clipped to the bracket.  A Newton root must show a sign change, or
    a zero, across root -+ tol.  A bracket that fails this certificate is
    bisected from the ends its iterates set, stepping out from the failed
    side by doubling distances first, so bisection stays the safeguard.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign0 = np.broadcast_to(np.asarray(lo_sign, dtype=float), lo.shape)
    out = np.empty(lo.size)
    idx, sign = np.arange(lo.size), sign0
    x = 0.5 * (lo + hi)
    last = before = hi - lo  # sizes of the last two steps
    found = []  # (idx, root, lo, hi) of the Newton roots
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if not idx.size:
                break
            v, dv = fn(x, idx)
            vs = v * sign
            lo = np.where(vs >= 0.0, x, lo)
            hi = np.where(vs > 0.0, hi, x)
            step = -v / dv
            size = np.abs(step)
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
            xn = x + step
            done = (size <= tol) | (hi - lo <= tol)
            if done.any():
                l, h, t = lo[done], hi[done], tol[done]
                found.append((idx[done], np.where(h - l <= t, 0.5 * (l + h), np.clip(xn[done], l, h)), l, h))
                keep = ~done
                idx, sign, x, lo, hi, xn, size, vs, last, before = (
                    a[keep] for a in (idx, sign, x, lo, hi, xn, size, vs, last, before)
                )
            take = (size <= 0.5 * before) & (xn > lo) & (xn < hi)
            half = 0.5 * (hi - lo)
            move = np.fmin(2.0 * np.fmax(size, last), half)  # fmax: a NaN step counts as none
            x = np.where(take, xn, x + np.where(vs > 0.0, move, -move))
            before, last = last, np.where(take, size, half)
        else:
            found.append((idx, 0.5 * (lo + hi), lo, hi))  # unconverged: left to the certificate
    if not found:
        return out
    idx, root, lo, hi = (np.concatenate(a) for a in zip(*found))
    order = np.argsort(idx)
    idx, root, lo, hi = idx[order], root[order], lo[order], hi[order]
    out[idx] = root

    # the certificate evaluates root -+ tol where it lies inside the narrowed bracket
    tol = 4.0 * _EPS * np.maximum(1.0, np.abs(root))
    pts = np.stack((root - tol, root + tol), axis=1)
    inside = np.stack((pts[:, 0] > lo, pts[:, 1] < hi), axis=1)
    at = np.repeat(idx, 2)[inside.ravel()]
    side = np.zeros(pts.shape)
    side[inside] = fn(pts[inside], at)[0] * sign0[at]
    down = ~(side[:, 0] >= 0.0)  # root - tol lies past the root (or fn is NaN there)
    up = ~down & ~(side[:, 1] <= 0.0)  # root + tol lies short of it
    failed = down | up
    if not failed.any():
        return out
    hi = np.where(down, pts[:, 0], hi)[failed]
    lo = np.where(up, pts[:, 1], lo)[failed]
    idx, down, reach, sign = idx[failed], down[failed], 2.0 * tol[failed], sign0[idx[failed]]
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        narrow = hi - lo <= 4.0 * _EPS * np.maximum(1.0, np.abs(mid))
        if narrow.any():
            out[idx[narrow]] = mid[narrow]
            keep = ~narrow
            idx, sign, lo, hi, mid, down, reach = (a[keep] for a in (idx, sign, lo, hi, mid, down, reach))
        if not idx.size:
            break
        x = np.where(down, np.maximum(hi - reach, mid), np.minimum(lo + reach, mid))
        vs = fn(x, idx)[0] * sign
        lo = np.where(vs >= 0.0, x, lo)
        hi = np.where(vs > 0.0, hi, x)
        reach = 2.0 * reach
    else:
        out[idx] = 0.5 * (lo + hi)
    return out


def _residual_and_slope(kL, rho, f):
    """g(kL) and its slope g'(kL); rho and f may be arrays.

    The slope differentiates 2 sin(kL rho) sin(kL (1 - rho)) = cos(kL mu) - cos(kL),
    mu = 1 - 2 rho, which takes two more sines and cosines where the product
    form would take three.
    """
    s, sa, sb = np.sin(kL), np.sin(kL * rho), np.sin(kL * (1.0 - rho))
    mu = 1.0 - 2.0 * rho
    return f * kL * s - 2.0 * sa * sb, f * (s + kL * np.cos(kL)) - s + mu * np.sin(kL * mu)


def _deflated_residual(d, center, config: DimensionlessConfig):
    """G(d) = (-1)^c g(c pi + d) / d at a decoupled level c pi, and G'(d).

    With c rho = j + e, j the nearest integer (e = 0 at a nodal multiple),
    g(c pi + d) = (-1)^c [f (c pi + d) sin d - 2 sin a sin b], a = d rho + pi e,
    b = d (1 - rho) - pi e.  Dividing out the zero within rounding at d = 0
    leaves G(0) = f c pi - 2 pi e (1 - 2 rho), of the sign of f once
    |f| c > 1.4e-8, and G(-pi) > 0 > G(pi), so the companion root lies on the
    side of d given by the sign of f.
    Writing P(d) = d G(d) for the bracketed form, G' = (P' - G) / d.
    Works on scalars and arrays alike.
    """
    rho, f = config.rho, config.f
    e = 0.0 if config.is_exact else math.pi * (center * rho - np.round(center * rho))
    k = center * math.pi + d
    a, b = d * rho + e, d * (1.0 - rho) - e
    sd, sa, sb = np.sin(d), np.sin(a), np.sin(b)
    value = f * k * sd / d - 2.0 * sa * sb / d
    dp = f * (sd + k * np.cos(d)) - 2.0 * (rho * np.cos(a) * sb + (1.0 - rho) * sa * np.cos(b))
    return value, (dp - value) / d


def _threshold_coupling(rho: float) -> float:
    """Binding threshold 2*rho*(1-rho); a negative root exists iff 0 < f below it."""
    return 2.0 * rho * (1.0 - rho)


def _quartic_coeff(rho: float, f: float) -> float:
    """Coefficient c4 in g(t) = (f - fc) t^2 - c4 t^4 + O(t^6) near t = 0."""
    return f / 6.0 - rho * (1.0 - rho) * (rho * rho + (1.0 - rho) * (1.0 - rho)) / 3.0


def _series_root(rho, f):
    """The root sqrt(|f - fc| / c4) of g's series (f - fc) t^2 - c4 t^4 where it is used; NaN elsewhere.

    Within 1e-10 below the threshold fc it is the bound root, and within
    1e-10 above it the lowest positive root: g and the bound form are below
    their rounding error there, so the series root is sharper.  Further above
    fc, while it lies below 0.5, it narrows the bracket of that root.  Takes
    scalars and arrays alike.
    """
    fc, c4 = _threshold_coupling(rho), _quartic_coeff(rho, f)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where c4 <= 0, and at f = inf
        t = np.sqrt(np.abs(f - fc) / c4)
    below = (f > 0.0) & (f < fc) & (fc - f <= 1e-10)
    return np.where((c4 > 0.0) & (below | (f > fc) & (t < 0.5)), t, np.nan)


def _table_residual(rho, f, bound: int, interlacing: int, centers=None, config: DimensionlessConfig | None = None):
    """The ``fn(x, idx)`` of ``solve_brackets`` for a table of brackets, each solved in the form its number picks.

    Brackets [0, bound) hold the bound form f t - rhs_negative(t), the next
    ``interlacing`` hold g, and the rest the deflated form G(d) beside the
    decoupled levels centers[i] pi of ``config``.  ``rho`` and ``f`` are
    scalars, or arrays with one entry per bracket of the first two forms.
    """
    end = bound + interlacing
    cuts = np.array((bound, end))
    pick = (lambda a, j: a[j]) if np.ndim(f) else (lambda a, j: a)
    g = lambda x, idx: _residual_and_slope(x, pick(rho, idx), pick(f, idx))
    if not bound and (centers is None or not centers.size):
        return g

    def fn(x, idx):
        # idx is ascending, so the brackets of each form come in one run
        n, m = idx.searchsorted(cuts)
        if n == 0 and m == x.size:  # g alone, as in the passes after the other forms are solved
            return g(x, idx)
        out, slope = np.empty(x.size), np.empty(x.size)
        if n:
            j = idx[:n]
            rhs, drhs = _rhs_negative_and_slope(x[:n], pick(rho, j))
            out[:n], slope[:n] = pick(f, j) * x[:n] - rhs, pick(f, j) - drhs
        if m > n:
            out[n:m], slope[n:m] = g(x[n:m], idx[n:m])
        if m < x.size:
            out[m:], slope[m:] = _deflated_residual(x[m:], centers[idx[m:] - end], config)
        return out, slope

    return fn


def _certify(roots: np.ndarray, config: DimensionlessConfig) -> np.ndarray:
    """Absolute residuals of g at the roots; raises if any exceeds the scaled tolerance."""
    res = np.abs(dispersion_residual(roots, config))
    bad = np.nonzero(res > _RESIDUAL_TOL * np.maximum(1.0, abs(config.f) * roots))[0]
    if bad.size:
        root = float(roots[bad[0]])
        raise SolverFailure(f"root polish left residual {res[bad[0]]:.3e} at kL={root}", (root, root))
    return res


def coupling(config: DimensionlessConfig, m):
    """Weight sin(m pi rho) of the free-well level m pi, for integer m; exactly 0 at the nodal multiples."""
    if config.is_exact:
        p, n = config.rational.p, config.rational.n
        r = (m * p) % (2 * n)  # in integers, so the nodal zeros are exact
        return np.where(r % n == 0, 0.0, np.sin(np.pi * r / n))
    return np.sin(m * np.pi * config.rho)


def decoupled(u, f, m):
    """True where the level m pi of weight u is decoupled: g(m pi) = 2 (-1)^m u^2 is below rounding.

    The floor (|f| m pi + 2) eps is the deflation criterion of Gu and
    Eisenstat for rank-one updates.  Takes scalars and arrays alike.
    """
    return u * u <= (abs(f) * m * math.pi + 2.0) * _EPS


def enumerate_nodal(pos: RationalPosition, k_max: float) -> list[EigenState]:
    """Nodal states kL = j*n*pi up to the ceiling; empty when n*pi exceeds it."""
    out = []
    j = 1
    while j * pos.n * math.pi <= k_max:
        k = j * pos.n * math.pi
        out.append(EigenState(NODAL, k, k * k, 0.0, n=pos.n, j=j))
        j += 1
    return out


def ground_states(rho, f) -> np.ndarray:
    """Ground-state energies of the generic configurations (rho[i], f[i]), solved together.

    ``rho`` and ``f`` broadcast together; the energies come back in their
    shape.  Each point gets the lowest bracket of ``full_spectrum``:

    * 0 < f < fc (fc = 2 rho (1 - rho)): the bound root of f t - rhs_negative(t)
      on (1e-9, 4 max(1, 1/f)), lower sign -1;
    * f == fc: the marginal zero;
    * f > fc: g on (0, pi), lower sign +1, or on the narrowed bracket
      (t/4, min(4 t, 0.9 pi)) of a ``_series_root`` t;
    * f < 0: g on (pi, 2 pi), lower sign -1, also where 2 pi is decoupled
      and ``full_spectrum`` takes the deflated form;
    * within 1e-10 of fc: the ``_series_root`` itself;
    * level 1 ``decoupled`` and no root below it: the level pi itself.

    Every bracket is solved by one ``solve_brackets`` call, and every root
    carries the residual certificate of its form.
    """
    rho, f = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(f, dtype=float))
    shape = rho.shape
    rho, f = rho.ravel(), f.ravel()
    outside = ~((rho > 0.0) & (rho < 1.0))
    if outside.any():
        raise PositionOutOfRange(f"rho={rho[outside][0]} must lie strictly inside (0, 1)")
    if np.any((f == 0.0) | np.isnan(f)):
        raise ValueError("coupling f must be a nonzero real")
    fc = _threshold_coupling(rho)
    t_est = _series_root(rho, f)
    series = ~np.isnan(t_est)
    closed = series & (np.abs(f - fc) <= 1e-10)
    at_pi = decoupled(np.sin(np.pi * rho), f, 1) & ((f > fc) & ~series | (f < 0.0))
    b = np.flatnonzero((f > 0.0) & (f < fc) & ~series)
    s = np.flatnonzero((f > fc) & series & ~closed)
    u = np.flatnonzero((f > fc) & ~series & ~at_pi)
    r = np.flatnonzero((f < 0.0) & ~at_pi)

    points = np.concatenate((b, s, u, r))
    lo = np.concatenate((np.full(b.size, 1e-9), 0.25 * t_est[s], np.zeros(u.size), np.full(r.size, math.pi)))
    hi = np.concatenate(
        (4.0 * np.maximum(1.0, 1.0 / f[b]), np.minimum(4.0 * t_est[s], 0.9 * math.pi),
         np.full(u.size, math.pi), np.full(r.size, 2.0 * math.pi))
    )
    sign = np.concatenate((np.full(b.size, -1.0), np.ones(s.size + u.size), np.full(r.size, -1.0)))
    residual = _table_residual(rho[points], f[points], b.size, points.size - b.size)
    roots = solve_brackets(residual, lo, hi, sign)

    t = roots[: b.size]
    res = np.abs(residual(t, np.arange(b.size))[0])
    bad = np.flatnonzero(res > _RESIDUAL_TOL)
    if bad.size:
        i = bad[0]
        raise SolverFailure(f"negative root residual {res[i]:.3e}", (lo[i], hi[i]))
    c = np.flatnonzero(closed & (f > fc))
    pos = np.concatenate((points[b.size :], c))
    k = np.concatenate((roots[b.size :], t_est[c]))
    res = np.abs(_residual_and_slope(k, rho[pos], f[pos])[0])
    bad = np.flatnonzero(res > _RESIDUAL_TOL * np.maximum(1.0, np.abs(f[pos]) * k))
    if bad.size:
        root = float(k[bad[0]])
        raise SolverFailure(f"root polish left residual {res[bad[0]]:.3e} at kL={root}", (root, root))

    energy = np.zeros(rho.size)  # the marginal zero stays where f == fc
    energy[b] = -t * t
    near = closed & (f < fc)
    energy[near] = -t_est[near] * t_est[near]
    energy[pos] = k * k
    energy[at_pi] = math.pi * math.pi
    return energy.reshape(shape)


def full_spectrum(config: DimensionlessConfig, k_max: float = DEFAULT_K_MAX) -> Spectrum:
    """Every level in (-inf, k_max^2], energy-sorted, from one table of brackets and one solve.

    g is the secular function of a diagonal-plus-rank-one operator, and
    g(m pi) = 2 (-1)^m sin^2(m pi rho), so its roots interlace the free-well
    levels m pi.  The table holds one bracket per root:

    * each interval (m pi, (m+1) pi), m >= 1, holds exactly one root of g,
      with g of sign (-1)^m just above m pi;
    * (0, pi) holds one only above the binding threshold fc = 2 rho (1 - rho),
      narrowed to (t/4, min(4 t, 0.9 pi)) about a ``_series_root`` t, as g is
      below its rounding error on most of (0, pi) near the threshold;
    * below the threshold, 0 < f < fc, the bound root of f t - rhs_negative(t)
      lies in (1e-9, 4 max(1, 1/f)), where the form has lower sign -1;
    * a ``decoupled`` level is a root at m pi itself, reported here unless it
      is a nodal state from ``enumerate_nodal``.  The intervals beside a run
      of them merge into one bracket holding one companion, past the run's end
      on the side of the sign of f, solved in the deflated form
      ``_deflated_residual``; a run from level 1 gets one only if (0, pi)
      holds a level.

    Within 1e-10 of the threshold the root nearest zero energy is the series
    root itself.  ``solve_brackets`` solves the whole table in one call, with
    endpoint signs from this count rather than from g at a rounded multiple
    of pi, and each root is certified in its own form.  The interval holding
    k_max is solved whole and its root kept when it lies below k_max, which is
    the rule sign g(k_max) != (-1)^M for the partial interval (M pi, k_max].
    """
    if not k_max >= 0.0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    rho, f = config.rho, config.f
    fc = _threshold_coupling(rho)
    t_est = float(_series_root(rho, f)) if f > 0.0 else math.nan  # no series root for f < 0
    series = not math.isnan(t_est)
    closed = series and abs(f - fc) <= 1e-10  # the series root is then the root itself
    bound = int(0.0 < f < fc and not series)  # brackets of the bound form: 0 or 1
    above = f > fc
    narrowed = above and series and not closed
    top = int(k_max // math.pi)  # index of the interval holding k_max
    levels = np.arange(1, top + 2)
    dec = decoupled(coupling(config, levels), f, levels)
    coupled = np.concatenate(([True], ~dec))  # by level, from the origin
    m = np.arange(0 if above and not series else 1, top + 1)
    m = m[coupled[m] & coupled[m + 1]]  # intervals beside no decoupled level
    # a run's last level for f > 0, its first for f < 0
    edge = dec & ~(np.concatenate((dec[1:], [False])) if f > 0.0 else np.concatenate(([False], dec[:-1])))
    centers = levels[edge].astype(float)
    if dec[0] and not above:
        centers = centers[1:]  # the run from level 1 has no companion

    side = (0.0, math.pi) if f > 0.0 else (-math.pi, 0.0)
    lo = np.concatenate(([1e-9] * bound, [0.25 * t_est] * narrowed, m * math.pi, np.full(centers.size, side[0])))
    hi = np.concatenate(
        ([4.0 * max(1.0, 1.0 / f)] * bound, [min(4.0 * t_est, 0.9 * math.pi)] * narrowed,
         (m + 1) * math.pi, np.full(centers.size, side[1]))
    )
    sign = np.concatenate(([-1.0] * bound, [1.0] * narrowed, 1.0 - 2.0 * (m % 2), np.ones(centers.size)))
    end = lo.size - centers.size
    table = _table_residual(rho, f, bound, end - bound, centers, config)
    roots = solve_brackets(table, lo, hi, sign)

    pos = roots[bound:end]
    if above and closed:
        pos = np.concatenate(([t_est], pos))
    shown = levels[dec]
    if config.is_exact:
        shown = shown[shown % config.rational.n != 0]  # the rest are enumerate_nodal's
    if centers.size or shown.size:
        pos = np.sort(np.concatenate((pos, centers * math.pi + roots[end:], shown * math.pi)))
    pos = pos[pos <= k_max]
    res = _certify(pos, config)
    # tuple.__new__ builds the entries without the named tuple's Python-level __new__
    rows = zip(repeat(ORDINARY_POSITIVE), pos.tolist(), (pos * pos).tolist(), res.tolist(), repeat(None), repeat(None))
    entries = list(map(tuple.__new__, repeat(EigenState), rows))
    if 0.0 < f < fc:
        t = float(roots[0]) if bound else t_est
        res = abs(negative_residual(t, config))
        if res > _RESIDUAL_TOL:
            raise SolverFailure(f"negative root residual {res:.3e}", (t, t))
        entries.insert(0, EigenState(ORDINARY_NEGATIVE, t, -t * t, res))
    if config.is_exact:  # the nodal levels interleave with the rest; otherwise the entries are in order
        entries.extend(enumerate_nodal(config.rational, k_max))
        entries.sort(key=attrgetter("energy"))
    return Spectrum(config, entries, k_max)


def weak_coupling_estimate(N: int, config: DimensionlessConfig) -> float:
    """Leading weak-coupling root N pi - 2 sin^2(N pi rho)/(N pi f)."""
    s = math.sin(N * math.pi * config.rho)
    return N * math.pi - 2.0 * s * s / (N * math.pi * config.f)


def strong_coupling_estimates(config: DimensionlessConfig, count: int) -> list[float]:
    """Split-well ladders n1*pi/rho and n2*pi/(1-rho), coincidences removed.

    A coincidence (both families at once) has a vanishing wave function; for
    exact positions it is detected in integer arithmetic, otherwise at 1e-9
    in kL/pi.
    """
    rho = config.rho
    out: list[float] = []
    n1, n2 = 1, 1
    exact = config.is_exact
    if exact:
        p, n = config.rational.p, config.rational.n
    while len(out) < count and (n1 + n2) < 100 * (count + 2):
        a = n1 * math.pi / rho
        b = n2 * math.pi / (1.0 - rho)
        if exact:
            coincide = n1 * (n - p) == n2 * p
        else:
            coincide = abs(a - b) < 1e-9 * math.pi
        if coincide:
            n1 += 1
            n2 += 1
        elif a < b:
            out.append(a)
            n1 += 1
        else:
            out.append(b)
            n2 += 1
    return out[:count]


def zero_energy_positions(f: float) -> list[float]:
    """Positions where the ground-state energy crosses zero, for 0 < f <= 1/2."""
    if not 0.0 < f <= 0.5:
        return []
    if f == 0.5:
        return [0.5]
    d = math.sqrt(1.0 - 2.0 * f)
    return [0.5 * (1.0 - d), 0.5 * (1.0 + d)]


def near_wall_energy(N: int, eps: float, f: float) -> float:
    """Parabolic near-wall level (N pi)^2 (1 - 4 eps^2 / f)."""
    return (N * math.pi) ** 2 * (1.0 - 4.0 * eps * eps / f)
