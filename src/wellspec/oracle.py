"""Independent spectral cross-check in the free-well sine basis.

The Hamiltonian is diagonal plus rank one in this basis:

    H[m][n] = (m pi)^2 delta_mn - (4/f) sin(m pi rho) sin(n pi rho),

so rows whose sine factor vanishes decouple exactly (the nodal sector for
rational positions).  Eigenvalues of the coupled sector are roots of the
rank-one secular function

    w(lam) = 1 + sigma [sum_{i<=M} u_i^2 / (d_i - lam) + T_M(lam)],

d_i = (i pi)^2, u_i = sin(i pi rho), sigma = -4/f, solved by one vectorized
safeguarded Newton between interlacing poles (the bracket solver the exact
dispersion also uses).  Every bracket (lo, hi) but the outermost ends on two
poles, and Newton started on the pole side of one only doubles its distance
from the pole per pass.  So Newton runs on the pole-free product

    p(lam) = (lam - lo)(hi - lam) w(lam),  p' = (hi + lo - 2 lam) w + (lam - lo)(hi - lam) w',

whose weight is positive inside the bracket: p has the signs and the root of
w, and finite values at the ends.  Each bracket starts at its root to first
order, d_i + sigma u_i^2, where the term of its own pole cancels the 1 in w.
That takes ~7 evaluations per solve of the lowest 8 levels at M = 1000,
against ~10 from the midpoints and ~17 for Newton on w (removing the poles
first and starting from a first-order root are devices of Bunch, Nielsen &
Sorensen 1978 and R.-C. Li, LAWN 89, 1993, here without their rational fits).

T_M is the part of the sum the truncation at M leaves out, in closed form.
At lam = 0 it is exact, by the Fourier series of the Bernoulli polynomial B2
(DLMF 24.8.1):

    sum_{i>=1} sin^2(i pi rho) / (i pi)^2 = rho (1 - rho) / 2.

The lam-dependent rest, sum_{i>M} u_i^2 lam / (d_i (d_i - lam)), takes the
mean 1/2 of u_i^2 and the midpoint rule from x0 = M + 1/2:

    (1/2) int_{x0}^inf [1/(pi^2 x^2 - lam) - 1/(pi^2 x^2)] dx
        = [F(lam / (pi x0)^2) - 1] / (2 pi^2 x0),

F(z) = atanh(sqrt z) / sqrt z (atan(sqrt -z) / sqrt -z for z < 0).  Its
slope is closed-form as well, so Newton keeps exact slopes.  At M = 1000 one
solve gave the lowest 8 levels within 3.1e-8 relative of the exact solver on
every configuration tried, strong attraction (f = 0.01) included; the error
falls ~16x per doubling of M.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure
from .model import DimensionlessConfig
from .spectrum import coupling, solve_brackets


def _tail(rho: float, diag: np.ndarray, u: np.ndarray):
    """lam -> (T_M(lam), T_M'(lam)): the secular sum's terms i > M = diag.size, valid below (pi (M + 1/2))^2."""
    x0 = diag.size + 0.5
    missing = 0.5 * rho * (1.0 - rho) - float(np.sum(u**2 / diag))
    scale, edge = 0.5 / (math.pi**2 * x0), (math.pi * x0) ** 2

    def tail(lam):
        z = lam / edge
        big = np.abs(z) >= 1e-4
        far = big.any()
        zs = np.where(big, 0.0, z) if far else z  # the series would overflow at a far z, whose value is replaced
        # series of F - 1 and F', exact to rounding where |z| < 1e-4 and the closed forms cancel
        f = 1.0 + zs * (1.0 / 3.0 + zs * (0.2 + zs / 7.0))
        df = 1.0 / 3.0 + zs * (0.4 + zs * 3.0 / 7.0)
        if far:
            zb = z[big]
            s = np.sqrt(np.abs(zb))
            with np.errstate(divide="ignore", invalid="ignore"):
                fb = np.where(zb > 0.0, np.arctanh(s), np.arctan(s)) / s
                f[big] = fb
                df[big] = (1.0 / (1.0 - zb) - fb) / (2.0 * zb)  # from 2 z F' + F = 1 / (1 - z)
        return missing + scale * (f - 1.0), scale * df / edge

    return tail


def oracle_spectrum(config: DimensionlessConfig, count: int, m: int | None = None) -> list[float]:
    """The ``count`` lowest eigenvalues, ascending, of the sine-basis Hamiltonian truncated at m, tail restored.

    Decoupled rows, whose weight squares to 0, contribute their diagonal
    values exactly; the rest interlace the coupled diagonal and come from the
    secular equation.  Only levels well below the truncation edge (pi m)^2
    carry the tail's accuracy, so m defaults to max(1000, 2 count), which puts
    the count-th level, near (count pi)^2, at a quarter of the edge.  Only the
    roots that can rank among the lowest ``count`` are solved, so no bracket
    ends on a Weyl bound past the tail's range where many rows decouple.
    """
    m = max(1000, 2 * count) if m is None else m
    if m < 2:
        raise ValueError("truncation order must be at least 2")
    if count < 1 or count > m:
        raise ValueError("count must lie in [1, m]")
    idx = np.arange(1, m + 1)
    diag = (idx * np.pi) ** 2  # free-well energies (i pi)^2
    u = coupling(config, idx)  # exact zeros in the nodal sector
    sigma = -4.0 / config.f  # f = +-inf, the free well, gives sigma = -+0.0
    mask = u * u != 0.0  # next to a wall u^2 underflows to 0 while u does not
    if sigma == 0.0 or not mask.any():
        return diag[:count].tolist()
    deflated = diag[~mask].tolist()

    d = diag[mask]
    u2 = u[mask] ** 2
    # each root lies beside its own coupled entry: the lowest count need those of the first count rows, and one more
    n_secular = min(np.count_nonzero(mask[:count]) + 1, len(d), count)
    tail = _tail(config.rho, diag, u)

    def secular(lam):
        # w = 1 + sigma (sum u^2 / (d - lam) + T) and w' = sigma (sum u^2 / (d - lam)^2 + T'),
        # from one (n, M) array of 1 / (d - lam), squared in place for w'; einsum sums each row
        # in one order whatever the row count, where a matrix product's order depends on it
        inv = d - lam[:, None]
        np.reciprocal(inv, out=inv)
        s1 = np.einsum("ij,j->i", inv, u2)
        inv *= inv
        t, dt = tail(lam)
        return 1.0 + sigma * (s1 + t), sigma * (np.einsum("ij,j->i", inv, u2) + dt)

    # One array of bracket ends: Weyl's bounds on the outermost roots, each at least one ulp off its pole where the
    # shift rounds away (next to a wall, or at a vanishing coupling), and the coupled diagonal between them.
    reach = sigma * float(np.sum(u2))
    lower = min(d[0] + reach, math.nextafter(d[0], -math.inf))
    upper = max(d[-1] + reach, math.nextafter(d[-1], math.inf))
    ends = np.concatenate(([lower], d[: n_secular + 1], [upper]))
    up = int(sigma > 0.0)  # each root lies below its own coupled entry for sigma < 0, above it for sigma > 0
    lo, hi = ends[up : up + n_secular], ends[up + 1 : up + 1 + n_secular]
    lo_sign, outer = 1.0 - 2.0 * up, (lo[:1], hi[-1:])[up]  # w falls across each gap for sigma < 0, rises for sigma > 0
    # Weyl's bound holds for the truncated sum alone; the tail must show w > 0 there too
    with np.errstate(divide="ignore"):
        w_outer = float(secular(outer)[0][0])
    if not w_outer > 0.0:
        raise ConvergenceFailure(f"secular function is {w_outer:.3e} at the outer bracket end {outer[0]:.6g}")

    def pole_free(lam, i):
        # p = (lam - lo)(hi - lam) w: the weight is positive inside the bracket and cancels its end poles
        w, dw = secular(lam)
        a, b = lam - lo[i], hi[i] - lam
        return a * b * w, (b - a) * w + a * b * dw

    # each root starts where the term of its own pole, sigma u_i^2 / (d_i - lam), cancels the 1 in w
    roots = solve_brackets(pole_free, lo, hi, lo_sign, d[:n_secular] + sigma * u2[:n_secular]).tolist()
    return sorted(roots + deflated[:count])[:count]  # count <= m, so the two give at least count
