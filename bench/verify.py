"""Independent checks of the outputs the workloads produce.

The residuals are recomputed from the physics written out here, not from the
package's solver code:

    g(k)     = f k sin k - 2 sin(k rho) sin(k (1 - rho))                 (E = k^2 > 0)
    r(kappa) = f kappa - 2 sinh(kappa rho) sinh(kappa (1 - rho)) / sinh kappa   (E = -kappa^2)

Both are scaled by max(1, |f| k) and must stay below ``REL_TOL``.

The level count is the rank-one interlacing count.  In the sine basis the
Hamiltonian is diag((m pi)^2) - (4/f) u u^T, whose secular function at
E = K^2 equals g(K) / (f K sin K).  Counting eigenvalues below K^2 with it
gives exactly

    floor(K / pi) + [g(K) sin K < 0] - [f < 0],

which is within one of floor(K / pi) and catches a single dropped level.

Each check returns a list of failure reasons; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

REL_TOL = 1e-9
NODAL = "nodal"
NEGATIVE = "ordinary_negative"

CHECK_NAMES = (
    "gram_max_offdiag",
    "gram_max_diag_defect",
    "continuity_defect",
    "jump_defect",
    "oracle_max_delta",
)

# Every failure reason a verifier can return, in report order.
REASONS = (
    "error",
    "nondeterministic",
    "residual",
    "unsorted",
    "nodal",
    "level_count",
    "sweep_residual",
    "mirror",
    "row_count",
    "dispersion_value",
    "exit_2",
    "exit_3",
    "exit_other",
    *(f"check.{name}" for name in CHECK_NAMES),
    "check.other",
    "wave_nonfinite",
    "wave_wall",
)


def g_positive(k, rho: float, f: float):
    k = np.asarray(k, dtype=float)
    return f * k * np.sin(k) - 2.0 * np.sin(k * rho) * np.sin(k * (1.0 - rho))


def g_negative(kappa: float, rho: float, f: float) -> float:
    # (cosh t - cosh(t mu)) / sinh t with e^t factored out: finite for every t > 0
    t = float(kappa)
    if t <= 0.0:
        return 0.0
    m = abs(2.0 * rho - 1.0)
    num = 1.0 + math.exp(-2.0 * t) - math.exp(-t * (1.0 - m)) - math.exp(-t * (1.0 + m))
    return f * t - num / -math.expm1(-2.0 * t)


def rel_residuals(entries, rho: float, f: float) -> np.ndarray:
    """Scaled residual of every (kind, k) entry."""
    ks = np.array([k for _, k in entries], dtype=float)
    neg = np.array([kind == NEGATIVE for kind, _ in entries], dtype=bool)
    out = np.empty(len(entries))
    pos = ~neg
    out[pos] = np.abs(g_positive(ks[pos], rho, f)) / np.maximum(1.0, abs(f) * ks[pos])
    for i in np.nonzero(neg)[0]:
        out[i] = abs(g_negative(ks[i], rho, f)) / max(1.0, abs(f) * ks[i])
    return out


def interlacing_counts(k_max: float, rho: float, f: float) -> set[int]:
    """Admissible level counts below k_max; two values when the sign of g(k_max) is unresolved."""
    base = math.floor(k_max / math.pi) - (1 if f < 0.0 else 0)
    g = float(g_positive(k_max, rho, f))
    if abs(g) <= REL_TOL * max(1.0, abs(f) * k_max) or abs(math.sin(k_max)) < 1e-12:
        return {base, base + 1}
    return {base + (1 if g * math.sin(k_max) < 0.0 else 0)}


def check_spectrum(entries, rho: float, f: float, k_max: float, nodal_n: int | None) -> tuple[list[str], float]:
    """Certify one spectrum.

    ``entries`` holds (kind, k, energy) triples; ``nodal_n`` is the reduced
    denominator N of an exact position, or None for a generic one.
    """
    reasons = []
    res = rel_residuals([(kind, k) for kind, k, _ in entries], rho, f)
    worst = float(res.max()) if len(res) else 0.0
    if not worst <= REL_TOL:
        reasons.append("residual")
    energies = [e for _, _, e in entries]
    if any(b < a for a, b in zip(energies, energies[1:])):
        reasons.append("unsorted")
    nodal = [k for kind, k, _ in entries if kind == NODAL]
    expected = []
    if nodal_n is not None:
        j = 1
        while j * nodal_n * math.pi <= k_max:
            expected.append(j * nodal_n * math.pi)
            j += 1
    if sorted(nodal) != expected:
        reasons.append("nodal")
    if len(entries) not in interlacing_counts(k_max, rho, f):
        reasons.append("level_count")
    return reasons, worst


def _csv_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[1:]


def check_sweep(text: str, f: float, rho_steps: int) -> tuple[list[str], float]:
    """Certify one single-f, single-sign sweep-ground CSV.

    Each row's E/E_B is turned back into a root and its residual recomputed;
    the printed 12 significant digits leave a residual far below ``REL_TOL``.
    """
    reasons = []
    rows = _csv_rows(text)
    if len(rows) != rho_steps:
        reasons.append("row_count")
    worst = 0.0
    rhos, vals = [], []
    for row in rows:
        rho, e_over_eb = float(row[2]), float(row[3])
        rhos.append(rho)
        vals.append(e_over_eb)
        energy = e_over_eb / (f * f)
        if energy < 0.0:
            kappa = math.sqrt(-energy)
            r = abs(g_negative(kappa, rho, f)) / max(1.0, abs(f) * kappa)
        else:
            k = math.sqrt(energy)
            r = abs(float(g_positive(k, rho, f))) / max(1.0, abs(f) * k)
        worst = max(worst, r)
    if not worst <= REL_TOL:
        reasons.append("sweep_residual")
    n = len(rows)
    for i in range(n // 2):
        j = n - 1 - i
        if abs(rhos[i] + rhos[j] - 1.0) > 1e-9 or abs(vals[i] - vals[j]) > REL_TOL * max(1.0, abs(vals[i])):
            reasons.append("mirror")
            break
    return reasons, worst


def check_dispersion(text: str, rho: float, kmax: float, samples_per_pi: int) -> list[str]:
    """Certify a dispersion-curve CSV against the ratio form away from integer kL/pi."""
    rows = _csv_rows(text)
    n_expected = int(round(kmax * samples_per_pi)) + 1
    if len(rows) != n_expected:
        return ["row_count"]
    i = np.arange(n_expected)
    off_integer = i % samples_per_pi != 0
    k = i[off_integer] / samples_per_pi * math.pi
    expected = 2.0 * np.sin(k * rho) * np.sin(k * (1.0 - rho)) / np.sin(k)
    got = np.array([float(rows[j][1]) if rows[j][2] == "0" else math.nan for j in i[off_integer]])
    if not np.all(np.abs(got - expected) <= REL_TOL * np.maximum(1.0, np.abs(expected))):
        return ["dispersion_value"]
    return []


def check_certify(exit_code: int, stdout_text: str, table) -> list[str]:
    """Certify one `check` run plus its tabulated waves."""
    reasons = []
    if exit_code == 4:
        for line in stdout_text.splitlines():
            if line.startswith("FAIL"):
                name = line.split()[1].rstrip(":")
                reasons.append(f"check.{name}" if name in CHECK_NAMES else "check.other")
        if not reasons:
            reasons.append("check.other")
    elif exit_code in (2, 3):
        reasons.append(f"exit_{exit_code}")
    elif exit_code != 0:
        reasons.append("exit_other")
    values = np.asarray(table, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        reasons.append("wave_nonfinite")
    if values.size and not (np.all(values[:, 0] == 0.0) and np.all(values[:, -1] == 0.0)):
        reasons.append("wave_wall")
    return reasons
