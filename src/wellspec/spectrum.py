"""Spectrum solvers: dispersion relations, asymptotics.

Every level is one signed root x: kL at energy (kL)^2 for x > 0, and
-kappa L at energy -(kappa L)^2 for x < 0.  Its residual, written once in
``_signed_residual``, is the entire function

    g(kL) = f * kL * sin(kL) - 2 * sin(kL*rho) * sin(kL*(1-rho))

at x >= 0, and the bound form f kappaL - rhs_negative(kappaL) below zero.
g is pole-free, and its roots interlace the free-well levels m*pi, so
every level below a ceiling has its own certified bracket.  The solver and
its certificate read that one function.  The pole-ridden ratio form is kept
only for emitting dispersion-curve data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import PositionOutOfRange, SolverFailure
from .model import MIN_COUPLING, DimensionlessConfig, check_coupling

NODAL = "nodal"
ORDINARY_POSITIVE = "ordinary_positive"
ORDINARY_NEGATIVE = "ordinary_negative"
_KINDS = np.array([ORDINARY_POSITIVE, ORDINARY_NEGATIVE, NODAL], dtype=object)  # by (x <= 0) + 2 (weight == 0)

DEFAULT_K_MAX = 20.0 * math.pi

_EPS = 2.220446049250313e-16
_RESIDUAL_TOL = 1e-10  # a root's |g| may be at most this times max(1, |f| kL)
_MAX_PASSES = 240  # passes of one solve; a failed certificate's nested solve halves this often, so nests ~5 deep
_MINUS_PLUS = np.array([-1.0, 1.0])
_POLE_EPS = 1e-9  # rhs_positive: |sin kL| below this is a pole, or a removable point where the numerator is too


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


@dataclass(frozen=True)
class Spectrum:
    entries: list[EigenState]

    @property
    def energies(self) -> list[float]:
        return [s.energy for s in self.entries]


def dispersion_residual(kL, config: DimensionlessConfig):
    """g(kL); zero exactly at nodal and ordinary positive-energy roots."""
    return _residual_and_slope(kL, config.rho, config.f)[0]


def _residual_and_slope(kL, rho, f):
    """g(kL) and its slope g'(kL); rho and f may be arrays.

    The slope differentiates 2 sin(kL rho) sin(kL (1 - rho)) = cos(kL mu) - cos(kL),
    mu = 1 - 2 rho, which takes two more sines and cosines where the product
    form would take three.
    """
    s, sa, sb = np.sin(kL), np.sin(kL * rho), np.sin(kL * (1.0 - rho))
    mu = 1.0 - 2.0 * rho
    return f * kL * s - 2.0 * sa * sb, f * (s + kL * np.cos(kL)) - s + mu * np.sin(kL * mu)


def rhs_positive(kL, rho: float):
    """Ratio form 2 sin(kL rho) sin(kL (1-rho)) / sin(kL), at one kL or an array of them.

    NaN marks a genuine pole, where sin(kL) vanishes without the numerator;
    removable singularities (shared zeros) are filled with the l'Hopital limit.
    """
    kL = np.asarray(kL, dtype=float)
    x = kL.ravel()
    s, sa, sb = np.sin(x), np.sin(x * rho), np.sin(x * (1.0 - rho))
    num = 2.0 * sa * sb
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / s
        pole = np.flatnonzero(np.abs(s) < _POLE_EPS)
        if pole.size:  # the l'Hopital terms, only where sin(kL) vanishes
            k = x[pole]
            dnum = 2.0 * (rho * np.cos(k * rho) * sb[pole] + (1.0 - rho) * sa[pole] * np.cos(k * (1.0 - rho)))
            out[pole] = np.where(np.abs(num[pole]) < _POLE_EPS, dnum / np.cos(k), np.nan)
    return out.reshape(kL.shape) if kL.ndim else float(out[0])


def _rhs_negative_and_slope(t, rho):
    """``rhs_negative`` and its slope in kappaL, for t > 0: at floats t and rho, or over arrays that broadcast together.

    Factoring e^t out of each sinh gives R = a b / c, with a = 1 - e^(-2 t rho),
    b = 1 - e^(-2 t (1 - rho)) and c = 1 - e^(-2 t), each taken by expm1: no
    term cancels, next to a wall or at small t, and none overflows at any t
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 1.14).
    The slope is taken from the exponentials themselves, which keeps it
    accurate where it is subnormal.  The three exponents share one array, so
    each exponential is one call, and a single point costs a few float
    operations around two calls.
    """
    rho1 = 1.0 - rho
    t2 = 2.0 * t
    e = np.array((t2 * -rho, t2 * -rho1, -t2))  # -x, -y and -2 t
    na, nb, nc = np.expm1(e)  # -a, -b and -c
    ex, ey, ez = np.exp(e)
    value = na * nb / -nc
    slope = (2.0 * rho * ex * nb + 2.0 * rho1 * ey * na + 2.0 * ez * value) / nc
    return value, slope


def rhs_negative(kappaL: float, rho: float) -> float:
    """2 sinh(kL rho) sinh(kL (1-rho)) / sinh(kL), monotone increasing from 0 to 1; 0 for kL <= 0.

    One expm1 formula, accurate to a few ulp for any kL and rho (see
    ``_rhs_negative_and_slope``).
    """
    t = float(kappaL)
    return 0.0 if t <= 0.0 else float(_rhs_negative_and_slope(t, rho)[0])


def _signed_residual(x, rho, f):
    """The residual of the signed root at the points of the array x, and its slope in x.

    g at x >= 0.  At x = -kappa L < 0, where g is finite too, the bound form
    f t - rhs_negative(t), t = -x, and its negated slope.  ``rho`` and ``f``
    are floats, or arrays with one entry per point.  With one rho and f only
    level 1 lies below zero, one point a pass and two in the certificate, so
    each is evaluated on floats.
    """
    value, slope = _residual_and_slope(x, rho, f)
    neg = x < 0.0
    if isinstance(f, np.ndarray):
        if np.count_nonzero(neg):
            t, f_t = -x[neg], f[neg]
            rhs, drhs = _rhs_negative_and_slope(t, rho[neg])
            value[neg], slope[neg] = f_t * t - rhs, drhs - f_t
    else:
        for i in np.flatnonzero(neg).tolist():
            t = -x.item(i)
            rhs, drhs = _rhs_negative_and_slope(t, rho)
            value[i], slope[i] = f * t - rhs, drhs - f
    return value, slope


def solve_brackets(fn, lo, hi, lo_sign, x0=math.nan) -> np.ndarray:
    """The root of ``fn`` on every bracket (lo[i], hi[i]), solved at once by safeguarded Newton.

    ``fn(x, idx)`` returns the values and the slopes at the points ``x`` of the
    brackets numbered ``idx`` (ascending, possibly repeated).  ``lo_sign`` (a
    scalar or one entry per bracket) is the sign of ``fn`` just inside lo[i];
    ``fn`` has the opposite sign just inside hi[i].  The given endpoints are
    never evaluated, so a bracket may end on a pole, or on a rounded multiple
    of pi where ``fn`` rounds to the wrong sign.  An empty bracket,
    lo[i] == hi[i], holds a root known in advance: it is set aside before the
    first pass, never evaluated, and returns lo[i].

    The first iterate of bracket i is ``x0[i]`` (a scalar or one entry per
    bracket) when it lies strictly inside (lo[i], hi[i]), and the midpoint
    otherwise: a start on an end, outside, NaN or infinite is not used.  Each
    pass evaluates every open bracket at its iterate and narrows the bracket
    by the sign; an exact zero closes it.  The next iterate is the Newton
    point when its step heads toward the root, away from the end the iterate
    just set, and is at most half the step before last (the safeguard of
    Numerical Recipes' ``rtsafe``).  Such a point past the far end is clipped
    into [lo + tol, hi - tol], so a root within rounding of that end is
    probed just inside it rather than approached by halving; the clip only
    places the probe and never closes a bracket.  Otherwise the iterate
    moves from the end it just set toward the other end: by twice the step
    right after a Newton step, so that a stall at the rounding floor
    straddles the root, and to the midpoint after that.

    With tol = 4 eps max(1, |x|), a bracket is done once its width or its
    Newton step is within tol, and leaves the working set with its narrowed
    ends, its Newton point and tol.  The roots are selected once, after the
    loop: the midpoint of a bracket within tol, else the Newton point clipped
    to the bracket; a bracket still open after the last pass gives its
    midpoint, and an empty one its lo.  A Newton root must show a sign
    change, or a zero, across root -+ tol.  A bracket that fails this
    certificate is narrowed past the failed probe and solved again by one
    nested call with NaN slopes, that is by bisection, from 2 tol past it.
    """
    lo_end, hi_end = np.array(lo, dtype=float), np.array(hi, dtype=float)  # the narrowed brackets
    sign0 = np.full(lo_end.shape, lo_sign, dtype=float)
    idx = np.flatnonzero(lo_end != hi_end)
    lo, hi, sign = lo_end[idx], hi_end[idx], sign0[idx]  # private copies, narrowed in place
    # the Newton point and tol of each closed bracket; an empty one keeps its lo as a Newton point never within tol
    xn_end, tol_end = lo_end.copy(), np.full(lo_end.shape, -np.inf)
    x = np.full(lo_end.shape, x0, dtype=float)[idx]
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    last = before = hi - lo  # sizes of the last two steps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an infinite step is no Newton step
        for _ in range(_MAX_PASSES):
            if not idx.size:
                break
            v, dv = fn(x, idx)
            vs = v * sign
            down = ~(vs > 0.0)  # x is the new hi: the root lies below it, or fn is NaN there
            np.putmask(lo, vs >= 0.0, x)
            np.putmask(hi, down, x)
            step = v / dv  # the Newton point is x - step
            size = np.abs(step)
            # a Newton step back across the end x just set would only probe x again, clipped
            take = (size <= 0.5 * before) & (vs * step <= 0.0)
            tol = 4.0 * _EPS * np.maximum(1.0, np.abs(x))
            xn = x - step
            width = hi - lo
            done = np.fmin(size, width) <= tol  # fmin: a NaN step counts as none
            if np.count_nonzero(done):
                # every open bracket's state is recorded; one still open is recorded again when it closes
                lo_end[idx], hi_end[idx], xn_end[idx], tol_end[idx] = lo, hi, xn, tol
                keep = np.flatnonzero(~done)
                idx, sign, x, lo, hi, xn, size, take, tol, down, width, last = (
                    a[keep] for a in (idx, sign, x, lo, hi, xn, size, take, tol, down, width, last)
                )
            xn = np.minimum(np.maximum(xn, lo + tol), hi - tol)  # a Newton point past the far end probes just inside it
            # on a bracket narrower than 2 tol the clip may round onto an end, which is never evaluated
            take &= (xn > lo) & (xn < hi)
            half = 0.5 * width
            move = np.fmin(2.0 * np.fmax(size, last), half)  # fmax: a NaN step counts as none
            np.putmask(move, down, -move)
            x = np.where(take, xn, x + move)
            before, last = last, np.where(take, size, half)
        else:
            lo_end[idx], hi_end[idx], tol_end[idx] = lo, hi, np.inf  # unconverged: left to the certificate
    # each root, once: the midpoint of a bracket within tol, else the Newton point clipped to the bracket
    with np.errstate(over="ignore", invalid="ignore"):  # in the branch np.where drops
        out = np.where(
            hi_end - lo_end <= tol_end, 0.5 * (lo_end + hi_end), np.minimum(np.maximum(xn_end, lo_end), hi_end)
        )

    # the certificate evaluates root -+ tol where it lies inside the narrowed bracket, so never in an empty one
    tol = 4.0 * _EPS * np.maximum(1.0, np.abs(out))
    pts = out[:, None] + tol[:, None] * _MINUS_PLUS  # root - tol and root + tol, the same bits as out -+ tol
    inside = (pts > lo_end[:, None]) & (pts < hi_end[:, None])
    at = np.flatnonzero(inside) >> 1  # the bracket of each point inside, ascending
    side = np.zeros(pts.shape)
    if at.size:
        side[inside] = fn(pts[inside], at)[0] * sign0[at]
    down = ~(side[:, 0] >= 0.0)  # root - tol lies past the root (or fn is NaN there)
    up = ~down & ~(side[:, 1] <= 0.0)  # root + tol lies short of it
    failed = down | up
    if not np.count_nonzero(failed):
        return out
    # Newton off: the loop never steps on a NaN slope, so it bisects the bracket narrowed past the failed probe
    idx = np.flatnonzero(failed)
    hi = np.where(down, pts[:, 0], hi_end)[idx]
    lo = np.where(up, pts[:, 1], lo_end)[idx]
    x0 = np.where(down[idx], hi - 2.0 * tol[idx], lo + 2.0 * tol[idx])  # 2 tol past the failed side
    out[idx] = solve_brackets(lambda x, i: (fn(x, idx[i])[0], np.full(x.shape, np.nan)), lo, hi, sign0[idx], x0)
    return out


def _threshold_coupling(rho: float) -> float:
    """Binding threshold 2*rho*(1-rho); a negative root exists iff 0 < f below it."""
    return 2.0 * rho * (1.0 - rho)


def _lowest_start(rho, f):
    """First iterate of the lowest level of a coupling f > 0: kappaL of the bound root below fc, kL above it.

    R(E) = 2 sin(k rho) sin(k (1 - rho)) / (k sin k), k = sqrt(E), is the sum
    of 4 sin^2(m pi rho) / ((m pi)^2 - E) over m >= 1, so it is increasing
    and convex below pi^2, with R(0) = fc and R'(0) = fc^2 / 6.  Above fc,
    f = R(E) gives the first-order root kL = sqrt(6 |r| / fc), with
    r = (fc - f) / fc.  Below fc, f = R(-t^2) = rhs_negative(t) / t puts the
    bound root t between that first-order root and 1/f, as
    rhs_negative < 1.  The model fc (1 + t/6) / (1 + t/6 + fc t^2 / 6) of
    R(-t^2), exact to first order at t = 0 and tending to 1/t, gives
    t = (r + sqrt(r^2 + 24 f r)) / (2 f), which tends to each bound at its
    end.  No term cancels next to a wall, where fc tends to 0.  Takes
    scalars and arrays alike; other f give NaN or a meaningless start.
    """
    fc = _threshold_coupling(rho)
    r = (fc - f) / fc
    with np.errstate(invalid="ignore", over="ignore"):  # in the branch np.where drops
        return np.where(r > 0.0, (r + np.sqrt(r * r + 24.0 * f * r)) / (2.0 * f), np.sqrt(-6.0 * r / fc))


def _brackets(rho, f, level, u):
    """The bracket (lo, hi), lower sign and first iterate of the root each free-well level owns.

    A root is one real x: kL at energy k^2, -kappa L at -kappa^2.  g is the
    secular function of a diagonal-plus-rank-one operator, so each level
    l pi, of weight u = sin(l pi rho), owns one eigenvalue.  Beside a coupled
    level m pi, g has the sign (-1)^m; beside a decoupled one, the sign of
    f (-1)^m (k - m pi).  So g changes sign once across ((l-1) pi, l pi) for
    f > 0 and across (l pi, (l+1) pi) for f < 0, with the sign (-1)^m just
    above the lower end m pi, and the root of a coupled level l lies there.
    It starts at the weak-coupling root beside l pi.

    Level 1 of a coupling f > 0 is decided here alone, and only a table that
    holds one pays for it.  Below the threshold
    fc = 2 rho (1 - rho) it owns the bound root, x in (-4 max(1, 1/f), -1e-9)
    with lower sign +1, started at -``_lowest_start``.  Above fc its root in
    (0, pi) starts at the lesser of that start and the weak root, as near the
    threshold the root lies far below pi.  A level whose root needs no solve
    gets the empty bracket lo = hi = its root: a ``decoupled`` level at l pi
    (a nodal one, of weight exactly 0, among them), except level 1 below fc,
    and level 1 at f == fc at x = 0, the zero-energy state.  ``rho``, ``f``,
    ``level`` and ``u`` broadcast together.
    """
    below = level - (f > 0.0)  # the free-well level at the lower end
    lo, hi, sign = below * math.pi, (below + 1) * math.pi, 1.0 - 2.0 * (below % 2)
    with np.errstate(over="ignore"):  # past |f| ~ 1e300, f k overflows to the limit of f = inf: l pi, decoupled
        x0, known, root = _weak_root(level, u, f), decoupled(u, f, level), level * math.pi
    first = below == 0  # level 1 of f > 0
    if np.count_nonzero(first):
        fc = _threshold_coupling(rho)
        binds = first & (f < fc)
        zero = first & (f == fc)
        lo = np.where(binds, -4.0 * np.maximum(1.0, 1.0 / f), lo)
        hi = np.where(binds, -1e-9, hi)
        sign = np.where(binds, 1.0, sign)
        start = _lowest_start(rho, f)
        x0 = np.where(binds, -start, np.where(first, np.minimum(start, x0), x0))
        known = zero | known & ~binds
        root = np.where(zero, 0.0, root)
    return np.where(known, root, lo), np.where(known, root, hi), sign, x0


def _certify(x, rho, f) -> np.ndarray:
    """Absolute residuals at the roots x, from ``_signed_residual``; raises if any exceeds its tolerance.

    The tolerance scales by max(1, |f| x), so by 1 below zero.  ``rho`` and
    ``f`` are scalars, or arrays with one entry per root.
    """
    with np.errstate(over="ignore"):  # past |f| ~ 1e300, f k overflows to the residual and tolerance inf of f = inf
        res = np.abs(_signed_residual(x, rho, f)[0])
        bad = np.flatnonzero(res > _RESIDUAL_TOL * np.maximum(1.0, np.abs(f) * x))
    if bad.size:
        raise SolverFailure(f"root polish left residual {res[bad[0]]:.3e} at x={float(x[bad[0]])}")
    return res


def coupling(config: DimensionlessConfig, m):
    """Weight sin(m pi rho) of the free-well level m pi, for integer m; exactly 0 at the nodal multiples."""
    if config.is_exact:
        p, n = config.rational.p, config.rational.n
        r = (m * p) % (2 * n)  # in integers, so the nodal zeros are exact
        return np.where(r % n == 0, 0.0, np.sin(np.pi * r / n))
    return np.sin(m * np.pi * config.rho)


def decoupled(u, f, m):
    """True where the level m pi of weight u is decoupled: its root is m pi to within the rounding of g.

    At k = fl(m pi) = m pi + delta, |delta| <= m pi eps / 2, the computed g is
    2 (-1)^m u^2 + g'(m pi) delta plus rounding, and |g'(m pi)| <= |f| m pi
    + 2 |u|, since g' = f (sin k + k cos k) - sin k + mu sin(k mu) with
    mu = 1 - 2 rho.  So the sign of g beside m pi carries no information once
    u^2 <= (|f| m pi + 2 |u|) m pi eps / 4, and the level's root is m pi to
    within rounding: the deflation criterion of Gu and Eisenstat for rank-one
    updates (SIAM J. Matrix Anal. Appl. 16, 1995).  Both terms scale with the
    level's own weight and slope, so a weight next to a wall, where every
    term of g is small, is not taken for zero.  Takes scalars and arrays alike.
    """
    k = m * math.pi
    return u * u <= 0.25 * (abs(f) * k + 2.0 * abs(u)) * k * _EPS


def ground_states(rho, f) -> np.ndarray:
    """Ground-state energies of the generic configurations (rho[i], f[i]), solved together.

    ``rho`` and ``f`` broadcast together; the energies come back in their
    shape.  Each point's level 1 gets its bracket from ``_brackets``, as in
    ``full_spectrum``; one ``solve_brackets`` call solves them all, and a
    root x, certified by ``_certify``, has the energy x |x|.
    """
    rho, f = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(f, dtype=float))
    shape = rho.shape
    rho, f = rho.ravel(), f.ravel()
    outside = ~((rho > 0.0) & (rho < 1.0))
    if outside.any():
        raise PositionOutOfRange(f"rho={rho[outside][0]} must lie strictly inside (0, 1)")
    rejected = ~(np.abs(f) >= MIN_COUPLING)  # zero, NaN and tiny couplings, as DimensionlessConfig rejects them
    if rejected.any():
        check_coupling(float(f[rejected][0]))
    lo, hi, sign, x0 = _brackets(rho, f, 1, np.sin(np.pi * rho))
    x = solve_brackets(lambda x, idx: _signed_residual(x, rho[idx], f[idx]), lo, hi, sign, x0)
    _certify(x, rho, f)
    return (x * np.abs(x)).reshape(shape)


def full_spectrum(config: DimensionlessConfig, k_max: float = DEFAULT_K_MAX) -> Spectrum:
    """Every level in (-inf, k_max^2], in energy order, from one table of brackets and one solve.

    Each free-well level l pi owns one root x, and ``_brackets`` gives its
    bracket: in ((l-1) pi, l pi) for f > 0 and in (l pi, (l+1) pi) for
    f < 0, below zero for the bound root, and l pi itself for a
    ``decoupled`` level.  The table holds levels 1 to M + 1 for f > 0 and
    1 to M for f < 0, M the last level with fl(M pi) <= k_max, and a root
    is kept when it lies below k_max.  ``solve_brackets`` solves the whole
    table in one call, with endpoint signs from the interlacing count rather
    than from g at a rounded multiple of pi, and ``_certify`` checks each
    root in its own form, from the same ``_signed_residual``.  The roots come out in level order, which is
    energy order.  A root has k = |x| and energy x |x|.  It is
    ``ordinary_negative`` where x <= 0, as only level 1 can be, and
    ``nodal``, with residual 0, where the level's weight is exactly 0: a
    multiple of n pi at an exact position p/n, which ``coupling`` finds in
    integers.
    """
    if not (math.isfinite(k_max) and k_max >= 0.0):
        raise ValueError(f"k_max must be non-negative and finite, got {k_max}")
    rho, f = config.rho, config.f
    m = int(k_max // math.pi)
    m += (m + 1) * math.pi <= k_max  # k_max // pi can round fl(M pi) // pi down to M - 1
    levels = np.arange(1, m + 1 + (f > 0.0))
    u = coupling(config, levels)
    lo, hi, sign, x0 = _brackets(rho, f, levels, u)
    # with no bracket below zero, g alone: it spares every pass of the solve the search for x < 0
    residual = _signed_residual if np.count_nonzero(lo < 0.0) else _residual_and_slope
    x = solve_brackets(lambda x, idx: residual(x, rho, f), lo, hi, sign, x0)
    keep = x <= k_max
    x, nodal = x[keep], u[keep] == 0.0
    res = _certify(x, rho, f)
    res[nodal] = 0.0
    k = np.abs(x)
    kinds = _KINDS[(x <= 0.0) + 2 * nodal].tolist()
    # tuple.__new__ builds the entries without the named tuple's Python-level __new__
    rows = zip(kinds, k.tolist(), (x * k).tolist(), res.tolist())
    return Spectrum(list(map(tuple.__new__, repeat(EigenState), rows)))


def _weak_root(N, u, f):
    """N pi - 2 u^2 / (N pi f): the root beside the level N pi of weight u, to first order in 1/f."""
    return N * math.pi - 2.0 * u * u / (N * math.pi * f)


def weak_coupling_estimate(N, config: DimensionlessConfig):
    """Leading weak-coupling root N pi - 2 sin^2(N pi rho)/(N pi f), at one level N or an integer array of them.

    The weight is ``coupling(config, N)``, exactly 0 at the nodal multiples.
    """
    est = _weak_root(np.asarray(N), coupling(config, N), config.f)
    return est if est.ndim else float(est)


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
