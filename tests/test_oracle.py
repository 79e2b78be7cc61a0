"""Sine-basis spectral cross-check: the weights, the tail correction and the secular solve, refereed by LAPACK."""

import math

import numpy as np
import pytest

import wellspec as ws
import wellspec.oracle
from wellspec.errors import ConvergenceFailure
from wellspec.oracle import oracle_spectrum
from wellspec.spectrum import _EPS


def sine_basis(rho: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal (i pi)^2 and the weights sin(i pi rho), i = 1..m, built here rather than through ``coupling``."""
    i = np.arange(1, m + 1)
    return (i * np.pi) ** 2, np.sin(i * np.pi * rho)


def dense(config, m: int) -> np.ndarray:
    """The truncated Hamiltonian diag((i pi)^2) - (4/f) u u^T, materialized with no tail."""
    diag, u = sine_basis(config.rho, m)
    return np.diag(diag) - (4.0 / config.f) * np.outer(u, u)


def _no_tail(*args):
    """Stands in for ``oracle._tail`` so the oracle solves the plain truncated matrix."""
    return lambda lam: (0.0, 0.0)


@pytest.fixture
def no_tail(monkeypatch):
    monkeypatch.setattr(wellspec.oracle, "_tail", _no_tail)


@pytest.fixture
def solves(monkeypatch):
    """One (lo_sign, calls, roots) entry per oracle bracket solve; calls lists each (x, idx, value) of ``fn``."""
    record = []
    solve = wellspec.oracle.solve_brackets

    def recorded_solve(fn, lo, hi, lo_sign, *args):
        calls = []

        def recorded(x, idx):
            v, dv = fn(x, idx)
            calls.append((x.copy(), idx.copy(), v.copy()))
            return v, dv

        roots = solve(recorded, lo, hi, lo_sign, *args)
        record.append((lo_sign, calls, roots))
        return roots

    monkeypatch.setattr(wellspec.oracle, "solve_brackets", recorded_solve)
    return record


class TestSineBasis:
    def test_center_even_rows_decouple(self):
        u = ws.coupling(ws.DimensionlessConfig.exact(1, 2, 0.3), np.arange(1, 13))
        assert np.all(u[1::2] == 0.0)  # even basis index: sin(m pi/2) = 0
        assert np.all(u[0::2] != 0.0)

    def test_two_fifths_multiples_of_five_decouple(self):
        idx = np.arange(1, 21)
        u = ws.coupling(ws.DimensionlessConfig.exact(2, 5, 0.3), idx)
        assert np.all(u[idx % 5 == 0] == 0.0)
        assert np.all(u[idx % 5 != 0] != 0.0)

    def test_zero_coupling_sentinel_is_diagonal(self):
        cfg = ws.DimensionlessConfig.generic(0.3, math.inf)
        assert oracle_spectrum(cfg, 6, 6) == np.diag(dense(cfg, 6)).tolist()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="truncation order"):
            oracle_spectrum(ws.DimensionlessConfig.generic(0.3, 1.0), 1, 1)


class TestOracleSpectrum:
    def test_already_diagonal(self):
        # 1e-300 from a wall every weight sin(i pi rho) is nonzero, but its square underflows to 0
        cfg = ws.DimensionlessConfig.generic(1e-300, -0.1)
        assert np.all(ws.coupling(cfg, np.arange(1, 4)) != 0.0)
        assert oracle_spectrum(cfg, 2, 3) == [math.pi**2, (2.0 * math.pi) ** 2]

    @pytest.mark.parametrize("f", [math.inf, -math.inf])
    def test_free_well_ladder(self, f):
        # f = +-inf gives sigma = -+0.0: the free-well diagonal
        vals = oracle_spectrum(ws.DimensionlessConfig.generic(0.3, f), 3, 50)
        assert vals == pytest.approx([math.pi**2, 4.0 * math.pi**2, 9.0 * math.pi**2], rel=1e-14)

    def test_count_bounds(self):
        cfg = ws.DimensionlessConfig.generic(0.3, 1.0)
        with pytest.raises(ValueError, match="count"):
            oracle_spectrum(cfg, 0, 5)
        with pytest.raises(ValueError, match="count"):
            oracle_spectrum(cfg, 6, 5)

    def test_lowest_level_does_not_depend_on_the_batch(self):
        # near E = 0 the secular function cancels to a few ulp of 1, so a row
        # sum whose order follows the number of rows moved this level by 5.5e-14
        cfg = ws.DimensionlessConfig.exact(1, 3, 0.43953)
        assert oracle_spectrum(cfg, 1, 1000)[0] == oracle_spectrum(cfg, 41, 1000)[0]
        configs = [(ws.DimensionlessConfig.generic(rho, f), size)
                   for rho, f, size in ((0.3183, 0.7, 999), (0.71, -0.05, 1001), (0.137, 0.25, 2000))]
        # where rows decouple, fewer roots than count are solved, and their number follows count
        configs += [(ws.DimensionlessConfig.exact(p, n, f), 1000)
                    for p, n, f in ((1, 2, 0.01), (1, 3, -0.2), (2, 5, 0.1))]
        for cfg, size in configs:
            every = oracle_spectrum(cfg, 41, size)
            assert all(oracle_spectrum(cfg, count, size) == every[:count] for count in (1, 3, 8))

    def test_default_basis_follows_the_count(self):
        # m = max(1000, 2 count) keeps the 1200th level at a quarter of the truncation edge
        cfg = ws.DimensionlessConfig.generic(0.3, 0.1)
        got = oracle_spectrum(cfg, 1200)
        assert got == oracle_spectrum(cfg, 1200, 2400)
        exact = np.array(ws.full_spectrum(cfg, 1250.0 * math.pi).energies[:1200])
        assert np.all(np.abs(np.array(got) - exact) <= np.maximum(1e-5 * np.abs(exact), 1e-3))

    def test_half_the_rows_decoupled_repulsive(self):
        # solving all 500 coupled roots put the outermost bracket's Weyl end, 1.005e7, past the tail's
        # edge (pi 1000.5)^2 = 9.879e6; only the roots that can rank among the lowest 500 are solved
        cfg = ws.DimensionlessConfig.exact(1, 2, -0.01)
        got = np.array(oracle_spectrum(cfg, 500, 1000))
        exact = np.array(ws.full_spectrum(cfg, 600.0 * math.pi).energies[:500])
        assert np.all(np.abs(got - exact) <= np.maximum(1e-5 * np.abs(exact), 1e-3))

    @pytest.mark.parametrize(
        "cfg",
        [ws.DimensionlessConfig.exact(1, 2, -0.2), ws.DimensionlessConfig.generic(0.3183, 1.0),
         ws.DimensionlessConfig.generic(0.71, 0.05), ws.DimensionlessConfig.generic(0.3, 1e-3),
         ws.DimensionlessConfig.generic(0.5 + 1e-7, -50.0)],
        ids=["half_repulsive", "generic", "strong", "weak_attraction", "near_rational_repulsive"],
    )
    def test_secular_matches_lapack(self, no_tail, cfg):
        # LAPACK's dense eigensolver referees the rank-one secular path on the plain truncated matrix
        h = dense(cfg, 400)
        reference = np.linalg.eigvalsh(h)
        norm = np.abs(reference).max()  # the 2-norm of the symmetric H
        secular = np.array(oracle_spectrum(cfg, 100, 400))
        assert np.abs(secular - reference[:100]).max() <= 4.0 * _EPS * norm

    def test_variational_monotonicity_and_bound_limit(self, monkeypatch):
        cfg = ws.DimensionlessConfig.exact(1, 2, 0.1)
        # the ground level approaches -1/f^2 = -100 from above
        ground = oracle_spectrum(cfg, 1, 1000)[0]
        assert ground > -100.0
        assert ground == pytest.approx(-100.0, abs=0.5)
        monkeypatch.setattr(wellspec.oracle, "_tail", _no_tail)
        prev = None
        for m in (250, 500, 1000, 2000):
            vals = np.array(oracle_spectrum(cfg, 6, m))
            if prev is not None:
                assert np.all(vals <= prev + 1e-9)  # Rayleigh-Ritz: levels of the plain truncation only descend
            prev = vals

    def test_nodal_sector_exact_at_any_truncation(self):
        cfg = ws.DimensionlessConfig.exact(2, 5, 0.07)
        vals = oracle_spectrum(cfg, 12, 60)
        for j in (1, 2):
            target = (5 * j * math.pi) ** 2
            assert min(abs(v - target) for v in vals) < 1e-9 * target

    @pytest.mark.parametrize(
        "rho, f",
        [(1e-14, 0.1), (0.9999999999999999, 0.1), (0.3, 1e20), (1e-300, -0.1), (5e-324, -0.1),
         (2e-164, 0.1), (2e-164, -0.1)],
        ids=["attractive_next_to_left_wall", "attractive_next_to_right_wall", "vanishing_attraction",
             "weight_squares_underflow", "smallest_position", "low_rows_underflow_attractive",
             "low_rows_underflow_repulsive"],
    )
    def test_outer_end_next_to_a_wall(self, rho, f):
        # the Weyl reach sigma sum u^2 rounded away beside its pole, which put the outer end on the pole
        # (w = -inf there), or u^2 underflowed to 0 while u did not, and the check read 0 * inf = nan;
        # at 2e-164 rows 1-25 decouple, so none of the 8 levels needs a secular root, yet one bracket is solved
        cfg = ws.DimensionlessConfig.generic(rho, f)
        exact = np.array(ws.full_spectrum(cfg, 20.0 * math.pi).energies[:8])
        got = np.array(oracle_spectrum(cfg, 8, 1000))
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()


class TestTail:
    def test_error_falls_sixfold_per_doubling(self):
        # strong attraction: the raw truncation is off by ~4e5/M here, the tail-corrected one by ~1/M^4
        cfg = ws.DimensionlessConfig.exact(2, 5, 0.01)
        exact = np.array(ws.full_spectrum(cfg, 12.0 * math.pi).energies[:6])
        errs = [np.abs(np.array(oracle_spectrum(cfg, 6, m)) - exact).max() for m in (250, 500, 1000)]
        assert errs[0] > 6.0 * errs[1] > 36.0 * errs[2]
        assert errs[2] <= 1e-6 * np.abs(exact).max()

    def test_tail_restores_the_dropped_terms(self):
        # T_m - T_n is the explicit sum over m < i <= n: exactly at lam = 0 (the B2 identity);
        # its lam-dependent part, from the mean of sin^2 and the midpoint rule, to ~1%
        rho = 0.37
        diag, u = sine_basis(rho, 20000)
        small = wellspec.oracle._tail(rho, diag[:200], u[:200])
        lam = np.array([-1.0e4, -50.0, 0.0, 30.0, 900.0])
        between = (u[200:] ** 2 / (diag[200:] - lam[:, None])).sum(axis=1)
        t_small, slope = small(lam)
        t_large = wellspec.oracle._tail(rho, diag, u)(lam)[0]
        dropped = t_small - t_large
        assert dropped[2] == pytest.approx(between[2], rel=1e-12)
        assert dropped - dropped[2] == pytest.approx(between - between[2], rel=0.02)
        h = 1e-3 * np.maximum(np.abs(lam), 1.0)
        fd = (small(lam + h)[0] - small(lam - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-5)

    def test_far_outer_end_is_finite(self):
        # f = 1e-154 puts the Weyl end at -2e157, where the series' z^3 overflows; the closed forms replace it
        tail = wellspec.oracle._tail(0.5, *sine_basis(0.5, 1000))
        t, dt = tail(np.array([-2e157]))
        assert np.isfinite(t).all() and np.isfinite(dt).all()

    def test_outer_end_sign_is_checked(self):
        # all 10 levels of a repulsive m = 10 truncation: the Weyl end lies past the tail's range
        with pytest.raises(ConvergenceFailure, match="outer bracket end"):
            oracle_spectrum(ws.DimensionlessConfig.generic(0.3, -0.1), 10, 10)

    def test_wrong_sign_at_outer_end_raises_before_solving(self, monkeypatch):
        # a tail that pulls w below 0 at the Weyl end would send the lowest bracket to a wrong root
        monkeypatch.setattr(wellspec.oracle, "_tail", lambda *args: lambda lam: (1.0, 0.0))
        solves = []
        monkeypatch.setattr(wellspec.oracle, "solve_brackets", lambda *a: solves.append(a))
        with pytest.raises(ConvergenceFailure):
            oracle_spectrum(ws.DimensionlessConfig.generic(0.3, 0.1), 4, 50)
        assert not solves


class TestSecularPasses:
    def test_pass_budget(self, solves):
        # the pole-free product takes ~7 evaluations per solve from the first-order roots d_i + sigma u_i^2,
        # ~10 from the midpoints; Newton on w itself took ~17
        for f in (0.01, 0.1, 1.0, 10.0, -0.01, -0.1, -1.0, -10.0):
            for p, n in ((1, 2), (1, 3), (2, 5), (3, 7)):
                oracle_spectrum(ws.DimensionlessConfig.exact(p, n, f), 8, 1000)
            for rho in (0.1234, 0.37, 0.61803, 0.9):
                oracle_spectrum(ws.DimensionlessConfig.generic(rho, f), 8, 1000)
        assert len(solves) == 64
        assert np.mean([len(calls) for _, calls, _ in solves]) <= 8.0

    @pytest.mark.parametrize(
        "rho, f, count, m",
        [(0.4 + 1e-7, 50.0, 8, 1000), (0.37, 0.7, 100, 4000)],
        ids=["level_next_to_its_pole", "hundred_levels"],
    )
    def test_roots_next_to_a_bracket_end_take_few_passes(self, solves, rho, f, count, m):
        # a root within rounding of a bracket end once took 27 and 46 evaluations: the Newton
        # point landed past the end, and the iterate only halved its distance to it
        oracle_spectrum(ws.DimensionlessConfig.generic(rho, f), count, m)
        [(_, calls, _)] = solves
        assert len(calls) <= 10

    @pytest.mark.parametrize("f", [50.0, -50.0, 400.0, -400.0])
    def test_roots_hugging_a_pole(self, solves, f):
        # 1e-7 off 2/5 the level 5 pi keeps a weight of ~2.5e-12: its root lies within rounding of the pole
        cfg = ws.DimensionlessConfig.generic(0.4 + 1e-7, f)
        exact = np.array(ws.full_spectrum(cfg, 12.0 * math.pi).energies[:8])
        got = np.array(oracle_spectrum(cfg, 8, 1000))
        assert np.all(np.abs(got - exact) <= np.maximum(1e-5 * np.abs(exact), 1e-3))
        # no bisection fallback: the last evaluation is the certificate at root -+ tol, and it shows the sign change
        lo_sign, calls, roots = solves[0]
        x, idx, v = calls[-1]
        r = roots[idx]
        tol = 4.0 * _EPS * np.maximum(1.0, np.abs(r))
        below = x == r - tol
        assert np.all(below | (x == r + tol))
        side = v * lo_sign
        assert np.all(side[below] >= 0.0) and np.all(side[~below] <= 0.0)
