"""Independent spectral cross-check in the free-well sine basis.

The Hamiltonian is diagonal plus rank one in this basis:

    H[m][n] = (m pi)^2 delta_mn - (4/f) sin(m pi rho) sin(n pi rho),

so rows whose sine factor vanishes decouple exactly (the nodal sector for
rational positions).  Eigenvalues of the coupled sector are roots of the
rank-one secular function, solved here by one vectorized safeguarded Newton
between interlacing poles (the bracket solver the exact dispersion also
uses); a cyclic Jacobi sweep is provided as a second, dense eigensolver used
to verify the secular path.  Both are in-repo: the oracle never leans on an
external eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure
from .model import DimensionlessConfig
from .spectrum import coupling, solve_brackets


@dataclass(frozen=True)
class SineBasisMatrix:
    """Truncated Hamiltonian, stored in its diagonal-plus-rank-one form."""

    m: int
    diag: np.ndarray  # free-well energies (i*pi)^2, i = 1..m
    coupling: np.ndarray  # sin(i*pi*rho); exact zeros in the nodal sector
    sigma: float  # rank-one strength -4/f

    @cached_property
    def entries(self) -> np.ndarray:
        """Dense symmetric matrix; materialized on demand."""
        return np.diag(self.diag) + self.sigma * np.outer(self.coupling, self.coupling)


def build_matrix(config: DimensionlessConfig, m: int) -> SineBasisMatrix:
    if m < 2:
        raise ValueError("truncation order must be at least 2")
    idx = np.arange(1, m + 1)
    diag = (idx * np.pi) ** 2
    sigma = 0.0 if math.isinf(config.f) else -4.0 / config.f
    return SineBasisMatrix(m, diag, coupling(config, idx), sigma)


def lowest_eigenvalues(matrix: SineBasisMatrix, count: int) -> list[float]:
    """The ``count`` smallest eigenvalues, ascending.

    Decoupled (zero-coupling) rows contribute their diagonal values exactly;
    the rest interlace the coupled diagonal and come from the secular
    equation.
    """
    if count < 1 or count > matrix.m:
        raise ValueError("count must lie in [1, m]")
    mask = matrix.coupling != 0.0
    deflated = sorted(matrix.diag[~mask].tolist())
    sigma = matrix.sigma
    if sigma == 0.0 or not mask.any():
        return sorted(matrix.diag.tolist())[:count]

    d = matrix.diag[mask]
    u2 = matrix.coupling[mask] ** 2
    n_coupled = len(d)
    n_secular = min(count, n_coupled)

    def secular(lam, _):
        # w = 1 + sigma sum u^2 / (d - lam) and w' = sigma sum u^2 / (d - lam)^2
        gap = d - lam[:, None]
        terms = u2 / gap
        w = 1.0 + sigma * terms.sum(axis=1)
        terms /= gap
        return w, sigma * terms.sum(axis=1)

    reach = sigma * float(np.sum(u2))  # Weyl bound on the outermost root's shift
    if sigma < 0.0:
        # roots sit below each coupled diagonal entry; w decreases across each gap
        lo = np.concatenate(([d[0] + reach], d[: n_secular - 1]))
        hi = d[:n_secular]
        lo_sign = 1.0
    else:
        # roots sit above each coupled diagonal entry; w increases across each gap
        lo = d[:n_secular]
        hi = np.concatenate((d[1 : n_secular + 1], [d[-1] + reach]))[:n_secular]
        lo_sign = -1.0
    roots = solve_brackets(secular, lo, hi, lo_sign).tolist()
    merged = sorted(roots + deflated[:count])
    if len(merged) < count:
        raise ConvergenceFailure(f"only {len(merged)} eigenvalues available below request {count}")
    return merged[:count]


def oracle_spectrum(config: DimensionlessConfig, count: int, m: int) -> list[float]:
    """Lowest ``count`` eigenvalues of the truncated sine-basis Hamiltonian."""
    return lowest_eigenvalues(build_matrix(config, m), count)


def richardson(coarse, fine, ratio: float = 2.0):
    """Eliminate the leading 1/M truncation term from results at M and ratio*M."""
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    return (ratio * fine - coarse) / (ratio - 1.0)


def extrapolated_oracle_spectrum(config: DimensionlessConfig, count: int, m: int) -> np.ndarray:
    """Richardson-extrapolated oracle eigenvalues from truncations m and 2m."""
    return richardson(oracle_spectrum(config, count, m), oracle_spectrum(config, count, 2 * m))


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """All eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Slow but simple; retained as the independent check of the secular solver.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix must be square symmetric")
    scale = float(np.linalg.norm(a))
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol * max(scale, 1.0):
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise ConvergenceFailure(f"Jacobi sweeps did not reduce off-diagonal norm below {tol}")
