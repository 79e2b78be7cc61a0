"""Dispersion solvers, nodal enumeration, asymptotics, and their invariants.

Frozen reference numbers marked "independent bisection" were produced by a
standalone fixed-point/bisection script on the scalar transcendental equations,
not by the package under test, and then pinned here to full precision.
"""

import math
import warnings
from contextlib import contextmanager
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import wellspec as ws
import wellspec.cli
import wellspec.spectrum


def _exact(p, n, f):
    return ws.DimensionlessConfig.exact(p, n, f)


def _gen(rho, f):
    return ws.DimensionlessConfig.generic(rho, f)


def _ordinary(cfg, k_max):
    """The ordinary positive-energy levels of the spectrum below k_max."""
    return [s for s in ws.full_spectrum(cfg, k_max).entries if s.kind == ws.ORDINARY_POSITIVE]


def _bound(cfg):
    """The bound state, or None: the whole spectrum below zero energy."""
    return next(iter(ws.full_spectrum(cfg, 0.0).entries), None)


EPS = np.finfo(float).eps


def _interlacing_count(rho, f, k_max):
    """floor(K/pi) + [g(K) sin K < 0] - [f < 0]: the number of levels below K by rank-one interlacing."""
    g = f * k_max * math.sin(k_max) - 2.0 * math.sin(k_max * rho) * math.sin(k_max * (1.0 - rho))
    return math.floor(k_max / math.pi) + int(g * math.sin(k_max) < 0.0) - int(f < 0.0)


def _bisection(fn, lo, hi, lo_sign):
    """Plain bisection of every bracket to width 4 eps max(1, |mid|), reading only the values of fn."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    sign = np.broadcast_to(np.asarray(lo_sign, dtype=float), lo.shape)
    while True:
        mid = 0.5 * (lo + hi)
        i = np.flatnonzero(hi - lo > 4.0 * EPS * np.maximum(1.0, np.abs(mid)))
        if not i.size:
            return mid
        right = fn(mid[i], i)[0] * sign[i] > 0.0
        lo[i] = np.where(right, mid[i], lo[i])
        hi[i] = np.where(right, hi[i], mid[i])


def _mixed_band(fn, x, lo, hi, lo_sign, reach=256):
    """Width of the stretch around each root x over which the rounded sign of fn is mixed, zeros included.

    fn is sampled at up to ``reach`` steps of eps max(1, |x|) either side of
    x, inside the bracket; a clean sign change gives 0.
    """
    step = EPS * np.maximum(1.0, np.abs(x))
    pts = x[:, None] + np.arange(-reach, reach + 1) * step[:, None]
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    inside = (pts > lo) & (pts < hi)
    rows = np.broadcast_to(np.arange(x.size)[:, None], pts.shape)[inside]
    side = np.zeros(pts.shape)
    side[inside] = fn(pts[inside], rows)[0] * np.broadcast_to(np.asarray(lo_sign, dtype=float), x.shape)[rows]
    low, high = inside & (side >= 0.0), inside & (side <= 0.0)  # a zero is a root, on either side
    first_high = np.where(high.any(axis=1), high.argmax(axis=1), pts.shape[1])
    last_low = np.where(low.any(axis=1), pts.shape[1] - 1 - low[:, ::-1].argmax(axis=1), -1)
    return np.maximum(0, last_low - first_high) * step


@contextmanager
def _recorded_solves():
    """Records every solve_brackets call as (fn, lo, hi, lo_sign, roots, passes per bracket)."""
    calls = []
    solve = wellspec.spectrum.solve_brackets

    def recording(fn, lo, hi, lo_sign, *args):
        passes = np.zeros(np.size(lo), dtype=int)

        def counted(x, idx):
            passes[np.unique(idx)] += 1
            return fn(x, idx)

        roots = solve(counted, lo, hi, lo_sign, *args)
        calls.append((fn, lo, hi, lo_sign, roots, passes))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wellspec.spectrum, "solve_brackets", recording)
        yield calls


class TestDispersionResidual:
    def test_nodal_value_is_root(self):
        cfg = _exact(2, 5, 1.0)
        assert abs(ws.dispersion_residual(5.0 * math.pi, cfg)) < 1e-13

    def test_center_at_pi(self):
        cfg = _exact(1, 2, 1.0)
        assert float(ws.dispersion_residual(math.pi, cfg)) == pytest.approx(-2.0, abs=1e-12)

    def test_small_k_leading_term(self):
        # g ~ (f - 2 rho (1-rho)) k^2 as k -> 0
        rho, f = 0.3, 0.7
        cfg = _gen(rho, f)
        k = 1e-4
        lead = (f - 2.0 * rho * (1.0 - rho)) * k * k
        assert float(ws.dispersion_residual(k, cfg)) == pytest.approx(lead, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        cfg = _gen(0.37, -1.3)
        ks = np.linspace(0.1, 20.0, 57)
        vec = ws.dispersion_residual(ks, cfg)
        for k, v in zip(ks, vec):
            assert float(ws.dispersion_residual(float(k), cfg)) == pytest.approx(float(v), abs=1e-15)


class TestRhsPositive:
    def test_removable_singularity(self):
        # shared zero of numerator and denominator at kL = 5 pi for rho = 2/5
        val = ws.rhs_positive(5.0 * math.pi, 0.4)
        assert not math.isnan(val)
        near = 0.5 * (ws.rhs_positive(5.0 * math.pi + 1e-6, 0.4) + ws.rhs_positive(5.0 * math.pi - 1e-6, 0.4))
        assert val == pytest.approx(near, abs=1e-9)

    def test_genuine_pole(self):
        assert math.isnan(ws.rhs_positive(math.pi, 0.415))

    @pytest.mark.parametrize("rho", [0.4, 0.415, 0.5])
    def test_array_matches_scalar_calls(self, rho):
        ks = np.arange(3601) / 400.0 * math.pi  # the dispersion-curve grid, with poles and removable points
        vals = ws.rhs_positive(ks, rho)
        np.testing.assert_array_equal(vals, [ws.rhs_positive(float(k), rho) for k in ks])
        assert np.isnan(vals).any()

    def test_center_quarter_period(self):
        assert ws.rhs_positive(0.5 * math.pi, 0.5) == pytest.approx(1.0, abs=1e-14)


class TestRhsNegative:
    def test_origin(self):
        assert ws.rhs_negative(1e-300, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_asymptote(self):
        assert ws.rhs_negative(500.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert ws.rhs_negative(1e4, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_center_identity(self):
        # 2 sinh^2(t/2)/sinh(t) = tanh(t/2)
        assert ws.rhs_negative(2.0, 0.5) == pytest.approx(math.tanh(1.0), abs=1e-14)

    @given(st.floats(1e-6, 0.999999), st.floats(1e-4, 50.0))
    def test_monotone_and_bounded(self, rho, t):
        lo = ws.rhs_negative(t, rho)
        hi = ws.rhs_negative(t * 1.01, rho)
        assert 0.0 < lo <= 1.0
        assert hi >= lo
        if lo < 1.0 - 1e-12:  # strict until the asymptote saturates in floats
            assert hi > lo

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-6.0, 4.0), st.floats(-12.0, math.log10(0.5)), st.booleans())
    @example(4.0, -12.0, True)
    @example(math.log10(20.9), math.log10(1.06e-12), False)  # 2e11 eps off in the cosh-deficit form
    def test_matches_high_precision_and_is_monotone(self, log_t, log_d, far_wall):
        # t log-uniform in [1e-6, 1e4]; rho at distance d from one wall, d down to 1e-12
        t, d = 10.0**log_t, 10.0**log_d
        rho = 1.0 - d if far_wall else d
        ts = t * (1.0 + np.linspace(-1e-3, 1e-3, 41))
        value, _ = wellspec.spectrum._rhs_negative_and_slope(ts, rho)
        with localcontext() as ctx:
            ctx.prec = 60
            x, r = Decimal(t), Decimal(rho)
            sh = lambda y: (y.exp() - (-y).exp()) / 2
            want = float(2 * sh(x * r) * sh(x * (1 - r)) / sh(x))
        assert abs(value[20] - want) <= 4.0 * EPS * want
        assert ws.rhs_negative(t, rho) == value[20]
        assert np.all(np.diff(value) >= 0.0)

    @pytest.mark.parametrize("rho", [0.5, 0.21, 0.37, 1e-3, 0.999, 1e-9, 1.0 - 1e-9])
    def test_array_slope_matches_high_precision_derivative(self, rho):
        # d/dt of (cosh t - cosh(t mu)) / sinh t, mu = 2 rho - 1, evaluated in
        # 100-digit decimals: [cosh t cosh(t mu) - mu sinh t sinh(t mu) - 1] / sinh(t)^2
        ts = [1e-6, 1e-3, 0.01, 0.5, 1.999, 2.0, 2.001, 10.0, 40.0, 100.0, 349.9, 350.0, 350.1, 1e3]
        _, slope = wellspec.spectrum._rhs_negative_and_slope(np.array(ts), rho)
        with localcontext() as ctx:
            ctx.prec = 100
            mu = 2 * Decimal(rho) - 1
            ch = lambda x: (x.exp() + (-x).exp()) / 2
            sh = lambda x: (x.exp() - (-x).exp()) / 2
            want = [float((ch(Decimal(t)) * ch(Decimal(t) * mu) - mu * sh(Decimal(t)) * sh(Decimal(t) * mu) - 1)
                          / sh(Decimal(t)) ** 2) for t in ts]
        np.testing.assert_allclose(slope, want, rtol=1e-12, atol=0.0)


class TestEnumerateNodal:
    def test_two_fifths(self):
        states = ws.enumerate_nodal(ws.reduce_position(2, 5), 16.0 * math.pi)
        assert [round(s.k / math.pi) for s in states] == [5, 10, 15]
        assert all(s.kind == ws.NODAL and s.residual == 0.0 for s in states)
        assert states[0].energy == pytest.approx((5 * math.pi) ** 2)

    def test_one_third(self):
        states = ws.enumerate_nodal(ws.reduce_position(1, 3), 10.0 * math.pi)
        assert [round(s.k / math.pi) for s in states] == [3, 6, 9]

    def test_floor_above_ceiling(self):
        assert ws.enumerate_nodal(ws.reduce_position(83, 200), 100.0 * math.pi) == []


class TestOrdinaryPositive:
    def test_center_repulsion_lowest_root(self):
        # lowest root of tan(kL/2) = f kL for f = -0.1 lies in (pi, 2 pi);
        # independent bisection gives kL = 5.307324799118129
        states = _ordinary(_exact(1, 2, -0.1), 4.0 * math.pi)
        assert math.pi < states[0].k < 2.0 * math.pi
        assert states[0].k == pytest.approx(5.307324799118129, abs=1e-11)

    def test_center_weak_coupling_structure(self):
        # |f| = 100: roots sit near odd N pi (even N are the nodal family)
        states = _ordinary(_exact(1, 2, 100.0), 6.0 * math.pi)
        ns = sorted(round(s.k / math.pi) for s in states)
        assert ns == [1, 3, 5]
        for s in states:
            n = round(s.k / math.pi)
            est = ws.weak_coupling_estimate(n, _exact(1, 2, 100.0))
            assert s.k == pytest.approx(est, abs=5e-5)

    def test_strong_attraction_split_well(self):
        cfg = _exact(2, 5, 1e-3)
        states = _ordinary(cfg, 4.0 * math.pi)
        est = ws.strong_coupling_estimates(cfg, 10)
        for s in states:
            assert min(abs(s.k - e) for e in est) < 0.05

    def test_residual_certificate(self):
        for cfg in (_gen(0.31, 0.9), _gen(0.77, -3.0), _exact(2, 5, 0.05)):
            for s in _ordinary(cfg, 10.0 * math.pi):
                scale = max(1.0, abs(cfg.f) * s.k)
                assert abs(float(ws.dispersion_residual(s.k, cfg))) <= 1e-10 * scale
                assert s.energy == s.k * s.k


class TestBoundState:
    def test_center_marginal_boundary(self):
        assert _bound(_exact(1, 2, 0.5)) is None

    def test_center_strong_attraction(self):
        # independent bisection on tanh(t/2) = 0.1 t: t = 9.999091217152323
        s = _bound(_exact(1, 2, 0.1))
        assert s.kind == ws.ORDINARY_NEGATIVE
        assert s.k == pytest.approx(9.999091217152323, abs=1e-11)
        assert s.energy * 0.1**2 == pytest.approx(-0.9998182516893271, abs=1e-11)

    def test_repulsion_never_binds(self):
        assert _bound(_exact(1, 2, -0.3)) is None

    def test_existence_region(self):
        for rho in np.linspace(0.08, 0.92, 8):
            for f in np.linspace(0.03, 0.55, 8):
                got = _bound(_gen(float(rho), float(f))) is not None
                assert got == (f < 2.0 * rho * (1.0 - rho))

    def test_near_threshold_root_is_accurate(self):
        # 1e-6 below the binding threshold the root is kappa L = 0.0105, where
        # rhs_negative must not be a difference of terms near 1. The reference is
        # a 50-digit mpmath root of the same equation at the same float inputs;
        # the conditioning, eps fc / (fc - f), allows ~5e-11 relative.
        cfg = _gen(0.135, 2.0 * 0.135 * (1.0 - 0.135) - 1e-6)
        assert _bound(cfg).k == pytest.approx(0.010488121695145623539, rel=1e-9)

    def test_near_wall_near_threshold_root(self):
        # 1e-13 below the threshold next to a wall the quartic coefficient c4 is
        # negative, so the series root does not exist; the bracketed solve meets
        # kappa L = 5e4, where rhs_negative must neither overflow nor lose the
        # wall distance rho. The reference is a 50-digit mpmath root of the same
        # equation at the same float inputs.
        want = 50001.666736129591176929
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = ws.full_spectrum(_gen(1e-9, 1.9999e-9)).entries[0]
            energy = ws.ground_states(1e-9, 1.9999e-9)
        assert entry.kind == ws.ORDINARY_NEGATIVE
        assert entry.k == pytest.approx(want, rel=1e-6)
        assert math.sqrt(-energy) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize(
        "rho, f, want",
        [
            (1e-9, 1.999999398e-9, "301.00006043872930594216572502386817930846539132027"),
            (1e-9, 1.999997998e-9, "1001.0006680556160895545457357495888572490858483408"),
            (1e-7, 1.99999e-7, "50.000166667417815167773751913875787224501879579641"),
            (1e-6, 1.999898e-6, "51.001734073623888396952573684655668045354087739083"),
        ],
    )
    def test_near_wall_roots_match_high_precision(self, rho, f, want):
        # just below the threshold next to a wall, rhs_negative is ~2 rho t at
        # kappa L of 50 to 1e3, so it must keep the wall distance to full
        # precision. The references are 50-digit mpmath roots of the same
        # equation at the same float inputs.
        entry = ws.full_spectrum(_gen(rho, f), 0.0).entries[0]
        assert entry.kind == ws.ORDINARY_NEGATIVE
        assert entry.k == pytest.approx(float(want), rel=1e-9)
        assert math.sqrt(-ws.ground_states(rho, f)) == pytest.approx(float(want), rel=1e-9)

    def test_scaled_residual_certificate(self):
        s = _bound(_gen(0.33, 0.2))
        cfg = _gen(0.33, 0.2)
        assert abs(ws.negative_residual(s.k, cfg)) <= 1e-10
        # the unscaled sinh form vanishes too where it is finite
        t = s.k
        unscaled = cfg.f * t * math.sinh(t) - 2.0 * math.sinh(t * 0.33) * math.sinh(t * 0.67)
        assert abs(unscaled) <= 1e-8 * math.sinh(t)


class TestGroundState:
    def test_deep_binding(self):
        assert ws.ground_states(0.5, 0.1) * 0.01 == pytest.approx(-0.9998182516893271, abs=1e-11)

    def test_marginal_zero(self):
        assert ws.ground_states(0.5, 0.5) == 0.0

    def test_repulsion_positive(self):
        g = ws.full_spectrum(_exact(1, 2, -0.1), 4.0 * math.pi).entries[0]
        assert g.kind == ws.ORDINARY_POSITIVE
        assert g.energy * 0.01 == pytest.approx(0.28167696523334296, rel=1e-10)
        assert ws.ground_states(0.5, -0.1) == pytest.approx(g.energy, rel=1e-14)

    @pytest.mark.parametrize(
        "cfg",
        [_gen(rho, f) for rho in (0.13, 0.5, 0.71) for f in (-50.0, -2.0, -0.3, -0.05, 0.05, 0.3, 2.0, 50.0)]
        + [_exact(p, n, f) for p, n in ((1, 2), (2, 5)) for f in (-50.0, -0.3, -0.01, 0.01, 0.3, 50.0)]
        # near the binding threshold; only f == 2 rho (1 - rho) itself is the marginal zero
        + [_gen(rho, 2.0 * rho * (1.0 - rho) + df) for rho in (0.13, 0.3, 0.5) for df in (-1e-6, -1e-8, 1e-8, 5e-11, 1e-6)]
        + [_exact(1, 2, 0.5 + df) for df in (-1e-6, 5e-11, 1e-8, 1e-6)]
        # decoupled lowest levels: 2 pi at the float 0.5, and pi next to a wall
        + [_gen(0.5, -1e-3)]
        + [_gen(rho, f) for rho in (1e-10, 1.0 - 1e-10) for f in (-3.0, -0.05, 0.05, 3.0)],
        ids=repr,
    )
    def test_matches_lowest_spectrum_entry(self, cfg):
        # the batched sweep solves the lowest bracket of full_spectrum's table
        e0 = ws.full_spectrum(cfg, 4.0 * math.pi).entries[0]
        assert e0.kind == (ws.ORDINARY_NEGATIVE if 0.0 < cfg.f < 2.0 * cfg.rho * (1.0 - cfg.rho) else ws.ORDINARY_POSITIVE)
        assert ws.ground_states(cfg.rho, cfg.f) == pytest.approx(e0.energy, rel=1e-12)

    def test_batched_matches_full_spectrum(self):
        rho = np.linspace(0.005, 0.995, 199)
        fc = 2.0 * rho * (1.0 - rho)
        # |f| = 1e-3 binds at kappa L ~ 1e3, where the sinh form of rhs_negative would overflow
        fs = [np.full(rho.size, sign * mag) for mag in np.logspace(-3.0, 2.0, 11) for sign in (1.0, -1.0)]
        fs += [fc + df for df in (-1e-6, 1e-6, -1e-8, 1e-8, -5e-11, 5e-11)]
        fs += [np.full(rho.size, math.inf), np.full(rho.size, -math.inf)]
        rhos, f = np.tile(rho, len(fs)), np.concatenate(fs)
        batched = ws.ground_states(rhos, f)
        lowest = np.array([ws.full_spectrum(_gen(r, x), 4.0 * math.pi).entries[0].energy
                           for r, x in zip(rhos.tolist(), f.tolist())])
        fin = np.isfinite(f)
        got, want = batched[fin] * f[fin] ** 2, lowest[fin] * f[fin] ** 2
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        assert np.array_equal(batched[~fin], lowest[~fin])

    # Ground-state energies at hard points, as 50-digit mpmath roots of g (or
    # of the bound form f t - rhs_negative(t)) at the same float inputs.  The
    # points lie 1e-6, 1e-8 and 5e-11 either side of the threshold fc, where
    # the root is ill-conditioned (within 5e-11 the series root is used), at
    # |f| = 1e-3, at the float 0.5 with 2 pi decoupled, and next to a wall.
    HARD = [
        (0.13, -1e-6, "-0.0001172654872265405845130801"),
        (0.13, 1e-6, "0.00011726323904233016843907"),
        (0.13, -1e-8, "-0.000001172643742391075512971229"),
        (0.13, 1e-8, "0.000001172643518884834615188117"),
        (0.13, -5e-11, "-5.863217988055384962501204e-9"),
        (0.13, 5e-11, "5.863219294746046998234643e-9"),
        (0.3, -1e-6, "-0.00003401371496409435150254027"),
        (0.3, 1e-6, "0.00003401349591910729568206611"),
        (0.3, -1e-8, "-0.000000340136065421539280781234"),
        (0.3, 1e-8, "0.0000003401360430639336575573844"),
        (0.3, -5e-11, "-1.700680639673693534684815e-9"),
        (0.3, 5e-11, "1.700680185973827160238837e-9"),
        (0.5, -1e-6, "-0.00002400005759949445984267659"),
        (0.5, 1e-6, "0.00002399994240082672660109762"),
        (0.5, -1e-8, "-0.0000002400000056336747270595413"),
        (0.5, 1e-8, "0.0000002399999954459423047881173"),
        (0.5, -5e-11, "-1.20000009943244522275475e-9"),
        (0.5, 5e-11, "1.200000099144445175096295e-9"),
    ]
    HARD_F = [
        (0.3, 1e-3, "-999999.9999999999583666366"),
        (0.3, -1e-3, "20.11332104271684934337845"),
        (0.5, -0.3, "19.63743540351883637350966"),
        (0.5, -1e-3, "39.3209784721483618755884"),
        (1e-10, 0.05, "9.869604401089358610938807"),
        (1e-10, -0.05, "9.869604401089358626730174"),
        (1e-10, 3.0, "9.869604401089358618702896"),
    ]

    def test_hard_points_match_high_precision_roots(self):
        rho = np.array([p[0] for p in self.HARD + self.HARD_F])
        fc = 2.0 * rho * (1.0 - rho)
        f = np.array([2.0 * r * (1.0 - r) + df for r, df, _ in self.HARD] + [x for _, x, _ in self.HARD_F])
        want = np.array([float(e) for _, _, e in self.HARD + self.HARD_F])
        # the rounding of g and of f moves the root by ~eps |f| / |f - fc| relative,
        # and the series root's truncation stays within that next to the threshold
        tol = 6.0 * EPS * np.maximum(1.0, np.abs(f) / np.abs(f - fc)) * np.abs(want)
        batched = ws.ground_states(rho, f)
        lowest = np.array([ws.full_spectrum(_gen(r, x), 4.0 * math.pi).entries[0].energy
                           for r, x in zip(rho.tolist(), f.tolist())])
        assert np.all(np.abs(batched - want) <= tol)
        assert np.all(np.abs(lowest - want) <= tol)

    @pytest.mark.parametrize(
        "rho, f, error",
        [(0.0, 0.3, ws.PositionOutOfRange), (1.0, 0.3, ws.PositionOutOfRange), (math.nan, 0.3, ws.PositionOutOfRange),
         (0.3, 0.0, ValueError), (0.3, math.nan, ValueError)],
    )
    def test_batched_rejects_what_the_config_rejects(self, rho, f, error):
        with pytest.raises(error):
            ws.ground_states([0.5, rho], [0.3, f])

    def test_continuity_across_crossing(self):
        es = ws.ground_states(0.5, [0.49, 0.5, 0.51])
        assert es[0] < 0.0 < es[2]
        assert abs(es[1]) < 1e-12
        assert max(abs(e) for e in es) < 0.6


class TestSolveBrackets:
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.floats(0.01, 0.99), st.tuples(st.integers(1, 11), st.integers(2, 12))),
        st.floats(-3.0, 2.0),
        st.booleans(),
        st.floats(0.5, 60.0 * math.pi),
    )
    def test_roots_match_bisection(self, pos, log_f, repel, k_max):
        # every bracket of the spectrum (interlacing and, at exact positions, deflated)
        f = -(10.0**log_f) if repel else 10.0**log_f
        if isinstance(pos, tuple):
            assume(pos[0] < pos[1])
            cfg = _exact(*pos, f)
        else:
            cfg = _gen(pos, f)
        with _recorded_solves() as calls:
            ws.full_spectrum(cfg, k_max)
        for fn, lo, hi, lo_sign, roots, _ in calls:
            want = _bisection(fn, lo, hi, lo_sign)
            # where rounding mixes the signs of fn around a root (just above the
            # binding threshold, g is far flatter than its rounding error), both
            # solvers return points of that band
            band = _mixed_band(fn, want, lo, hi, lo_sign)
            assert np.all(np.abs(roots - want) <= 4.0 * EPS * np.maximum(1.0, np.abs(want)) + band)

    def test_pass_counts(self):
        # |f| = 5 and 50 put most roots next to a bracket end; generic(0.7916, 43.94)
        # has a root next to an end set by an iterate
        cfgs = [_gen(0.7916, 43.94)]
        cfgs += [_gen(rho, f) for rho in (0.13, 0.3183, 0.61, 0.7916) for f in (5.0, -5.0, 50.0, -50.0)]
        cfgs += [_exact(2, 5, f) for f in (5.0, -5.0, 50.0, -50.0)]
        with _recorded_solves() as calls:
            for cfg in cfgs:
                ws.full_spectrum(cfg, 90.2 * math.pi)
        passes = np.concatenate([c[5] for c in calls])
        assert np.median(passes) <= 12
        assert passes.max() <= 25

    @pytest.mark.parametrize(
        "wrong",
        [np.negative, lambda d: 1e15 * d, lambda d: np.full_like(d, np.nan)],
        ids=["negated", "times_1e15", "nan"],
    )
    def test_wrong_slope_still_gives_bisection_roots(self, wrong):
        # A negated slope points Newton away from the root; a huge one makes the
        # first step look converged, so only the certificate catches it.  The
        # certificate puts a root within tol = 4 eps max(1, k) of a sign change
        # and bisection within half of that, hence 6 eps.
        for cfg in (_gen(0.3183, 0.7), _exact(2, 5, -0.3)):
            with _recorded_solves() as calls:
                ws.full_spectrum(cfg, 30.0 * math.pi)
            for fn, lo, hi, lo_sign, _, _ in calls:
                bad = lambda x, idx: (fn(x, idx)[0], wrong(fn(x, idx)[1]))
                got = wellspec.spectrum.solve_brackets(bad, lo, hi, lo_sign)
                want = _bisection(fn, lo, hi, lo_sign)
                assert np.all(np.abs(got - want) <= 6.0 * EPS * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("cfg", [_gen(0.3183, 0.7), _gen(0.61, -50.0), _exact(2, 5, 0.3)], ids=repr)
    def test_slopes_match_central_differences(self, cfg):
        k = np.linspace(0.3, 60.0, 397)
        h = 1e-6
        g, dg = wellspec.spectrum._residual_and_slope(k, cfg.rho, cfg.f)
        fd = (wellspec.spectrum._residual_and_slope(k + h, cfg.rho, cfg.f)[0]
              - wellspec.spectrum._residual_and_slope(k - h, cfg.rho, cfg.f)[0]) / (2.0 * h)
        assert np.all(np.abs(dg - fd) <= 1e-7 * (1.0 + np.abs(cfg.f) * k))
        np.testing.assert_array_equal(g, ws.dispersion_residual(k, cfg))

    @pytest.mark.parametrize(
        "cfg, d",
        [(_exact(2, 5, 0.3), np.linspace(-3.0, 3.0, 200)),  # no point at d = 0, where G is 0/0
         (_gen(0.4 + 1e-9, 0.7), np.linspace(-3.0, 3.0, 200)),  # 5 pi decoupled, 5 rho - 2 = 5e-9
         # 5 rho - 2 = -0.4085: G has a pole of residue 2 sin^2(0.4085 pi) at 0, so stay clear of it
         (_gen(0.3183, 0.7), np.concatenate((np.linspace(-3.0, -0.5, 100), np.linspace(0.5, 3.0, 100))))],
        ids=["exact", "near_rational", "generic"],
    )
    def test_deflated_slopes_match_central_differences(self, cfg, d):
        h = 1e-6
        G, dG = wellspec.spectrum._deflated_residual(d, 5, cfg)
        fd = (wellspec.spectrum._deflated_residual(d + h, 5, cfg)[0]
              - wellspec.spectrum._deflated_residual(d - h, 5, cfg)[0]) / (2.0 * h)
        assert np.all(np.abs(dG - fd) <= 1e-7 * (1.0 + np.abs(cfg.f) * 5.0 * math.pi))
        # G(d) = (-1)^5 g(5 pi + d) / d at any position
        g = ws.dispersion_residual(5.0 * math.pi + d, cfg)
        assert np.all(np.abs(-d * G - g) <= 1e-13 * (1.0 + np.abs(cfg.f) * 5.0 * math.pi))


class TestFullSpectrum:
    def test_center_repulsion_interleaves(self):
        spec = ws.full_spectrum(_exact(1, 2, -0.2), 10.0 * math.pi)
        kinds = [s.kind for s in spec.entries]
        assert kinds[0] == ws.ORDINARY_POSITIVE
        for a, b in zip(kinds, kinds[1:]):
            assert a != b

    def test_generic_has_no_nodal(self):
        spec = ws.full_spectrum(_gen(1.0 / math.sqrt(2.0), 0.7), 10.0 * math.pi)
        assert all(s.kind != ws.NODAL for s in spec.entries)

    def test_degeneracy_lifted_both_ways(self):
        for f, side in ((0.01, 1.0), (-0.01, -1.0)):
            spec = ws.full_spectrum(_exact(2, 5, f), 7.0 * math.pi)
            near = [s for s in spec.entries if abs(s.k - 5.0 * math.pi) < 0.5 * math.pi]
            nodal = [s for s in near if s.kind == ws.NODAL]
            ordinary = [s for s in near if s.kind == ws.ORDINARY_POSITIVE]
            assert len(nodal) == 1 and len(ordinary) == 1
            assert side * (ordinary[0].k - 5.0 * math.pi) > 0.0

    def test_sorted_and_nondegenerate(self):
        spec = ws.full_spectrum(_exact(2, 5, 0.3), 12.0 * math.pi)
        es = spec.energies
        assert all(b - a > 1e-6 for a, b in zip(es, es[1:]))

    def test_gap_shrinks_with_coupling(self):
        gaps = []
        for f in (0.02, 0.01, 0.002):
            spec = ws.full_spectrum(_exact(2, 5, f), 7.0 * math.pi)
            ks = sorted(s.k for s in spec.entries if abs(s.k - 5.0 * math.pi) < 1.0)
            assert len(ks) == 2
            gaps.append(ks[1] - ks[0])
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_exact_vs_generic_ordinary_energies_agree(self):
        # the float 0.4 decouples the level 5 pi, so the generic path reports it
        # at 25 pi^2 like the exact path, but never classifies it as nodal
        ex = ws.full_spectrum(_exact(2, 5, 0.35), 8.0 * math.pi)
        gn = ws.full_spectrum(_gen(0.4, 0.35), 8.0 * math.pi)
        assert len(gn.entries) == len(ex.entries)
        assert (5.0 * math.pi) ** 2 in gn.energies
        for a, b in zip(ex.entries, gn.entries):
            assert b.kind == (ws.ORDINARY_POSITIVE if a.kind == ws.NODAL else a.kind)
            assert a.energy == pytest.approx(b.energy, abs=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.06, 0.94), st.sampled_from([0.7, -0.4, 3.0, -20.0, 0.05]))
    # decoupled levels: the even ones at 0.5 +- 1e-15, a run from pi next to a wall
    @example(0.5 + 1e-15, -0.4)
    @example(0.5 - 1e-15, 0.7)
    @example(1e-10, 3.0)
    @example(1e-10, -20.0)
    def test_mirror_symmetry(self, rho, f):
        e1 = ws.full_spectrum(_gen(rho, f), 6.0 * math.pi).energies
        e2 = ws.full_spectrum(_gen(1.0 - rho, f), 6.0 * math.pi).energies
        assert len(e1) == len(e2)
        for a, b in zip(e1, e2):
            assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))

    def test_level_in_last_partial_interval(self):
        # the level at 26.5355 pi lies within 0.01 pi below k_max = 26.5434 pi
        cfg = _gen(0.2801753075844777, 0.007367996012206104)
        assert len(ws.full_spectrum(cfg, 83.3884553474475).entries) == 27

    def test_endpoint_signs_not_taken_from_rounded_multiples_of_pi(self):
        # g(fl(1999 pi)) rounds to +2.2e-8 while g(1999 pi) = -1.8e-8: a solver
        # reading bracket signs off g at rounded multiples of pi loses a level
        cfg = _gen((700.0 + 3e-5) / 1999.0, 100.0)
        assert len(ws.full_spectrum(cfg, 2000.5 * math.pi).entries) == 2000

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 0.99),
        st.floats(-3.0, 2.0),
        st.booleans(),
        st.floats(0.5, 60.0 * math.pi),
    )
    def test_level_count_is_interlacing_count(self, rho, log_f, repel, k_max):
        # rank-one interlacing: floor(K/pi) + [g(K) sin K < 0] - [f < 0] levels lie below K
        assume(abs(math.sin(k_max)) > 1e-12)  # at a multiple of pi the count formula is undefined
        f = -(10.0**log_f) if repel else 10.0**log_f
        assert len(ws.full_spectrum(_gen(rho, f), k_max).entries) == _interlacing_count(rho, f, k_max)

    @pytest.mark.parametrize(
        "rho, f, k_max",
        [(0.5, -0.2, 200.5 * math.pi), (0.3, 0.1, 200.5 * math.pi),
         (0.398963729912964, 0.005756379805674829, 193.5 * math.pi)],
        ids=["half", "three_tenths", "near_77_over_193"],
    )
    def test_rational_and_near_rational_floats_keep_every_level(self, rho, f, k_max):
        # the benchmark's spectrum-deep reproducers: the float 0.5 decouples every
        # even level, 0.3 every tenth, and at 193 rho - 77 = -1.3e-7 the level
        # 193 pi has a weight of 1.7e-13, far above the rounding floor
        spec = ws.full_spectrum(_gen(rho, f), k_max)
        assert len(spec.entries) == _interlacing_count(rho, f, k_max)
        assert all(s.kind != ws.NODAL for s in spec.entries)

    @pytest.mark.parametrize("rho", [1e-10, 3e-9, 1.0 - 3e-9])
    @pytest.mark.parametrize("f", [0.05, -0.05, 3.0, -3.0])
    def test_near_wall_run_of_decoupled_levels(self, rho, f):
        # the levels from pi up are decoupled (a run of 2 levels to all 200 below
        # k_max); each sits at m pi, and the run gets one companion, just below
        # the next level, for f > 0 and none for f < 0, as (0, pi) holds no level then
        cfg, k_max = _gen(rho, f), 200.5 * math.pi
        m = np.arange(1, 201)
        dec = ws.decoupled(ws.coupling(cfg, m), f, m)
        run = int(np.argmin(dec)) if not dec.all() else m.size
        assert run >= 2
        spec = ws.full_spectrum(cfg, k_max)
        ks = [s.k for s in spec.entries]
        assert len(ks) == _interlacing_count(rho, f, k_max)
        assert ks[:run] == [j * math.pi for j in range(1, run + 1)]
        if run < m.size:
            assert run * math.pi < ks[run]
            assert (ks[run] <= (run + 1) * math.pi) == (f > 0.0)
        assert all(s.kind == ws.ORDINARY_POSITIVE for s in spec.entries)
        for s in spec.entries:
            assert abs(float(ws.dispersion_residual(s.k, cfg))) <= 1e-10 * max(1.0, abs(f) * s.k)


    @pytest.mark.parametrize("k_max", [-1.0, -1e-300, math.nan])
    def test_negative_ceiling_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be non-negative"):
            ws.full_spectrum(_gen(0.3, 0.1), k_max)

    @pytest.mark.parametrize("cfg", [_gen(0.3, 0.1), _exact(1, 2, 0.1), _gen(0.3, 0.5), _gen(0.3, -0.1)], ids=repr)
    def test_zero_ceiling_gives_the_bound_state_alone(self, cfg):
        entries = ws.full_spectrum(cfg, 0.0).entries
        assert [s.kind for s in entries] == [ws.ORDINARY_NEGATIVE] * (0.0 < cfg.f < 2.0 * cfg.rho * (1.0 - cfg.rho))
        assert entries == ws.full_spectrum(cfg, 4.0 * math.pi).entries[: len(entries)]


class TestOneSolve:
    @pytest.mark.parametrize("cfg", [_exact(2, 5, 0.1), _gen(0.4, 0.1)], ids=repr)
    def test_full_spectrum_solves_its_table_once(self, cfg):
        # a bound state, interlacing levels and the companion of the decoupled
        # level 5 pi (nodal at 2/5, decoupled at the float 0.4): three forms
        with _recorded_solves() as calls:
            spec = ws.full_spectrum(cfg, 20.0 * math.pi)
        assert len(calls) == 1
        _, lo, hi, _, _, _ = calls[0]
        assert (lo[0], hi[0]) == (1e-9, 40.0)  # the bound form leads
        assert (lo[-1], hi[-1]) == (0.0, math.pi)  # the deflated form, in d = k - 5 pi, ends the table
        assert spec.entries[0].kind == ws.ORDINARY_NEGATIVE

    def test_sweep_solves_every_point_in_one_call(self, capsys):
        built = []
        init = ws.DimensionlessConfig.__post_init__
        with _recorded_solves() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ws.DimensionlessConfig, "__post_init__", lambda self: built.append(self) or init(self))
            assert wellspec.cli.main(["sweep-ground", "--f-list", "0.4", "--signs", "attract"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 199
        assert len(calls) == 1
        assert built == []
        # the points just above the threshold take the narrowed bracket (t/4, min(4 t, 0.9 pi))
        _, lo, hi, _, _, _ = calls[0]
        assert np.count_nonzero((lo > 1e-9) & (hi < 0.9 * math.pi)) == 4


class TestAsymptoticEstimators:
    def test_weak_formula(self):
        cfg = _exact(1, 2, 100.0)
        assert ws.weak_coupling_estimate(1, cfg) == pytest.approx(math.pi - 2.0 / (100.0 * math.pi), abs=1e-14)
        assert ws.weak_coupling_estimate(2, cfg) == pytest.approx(2.0 * math.pi, abs=1e-14)
        down = ws.weak_coupling_estimate(1, _exact(1, 2, -100.0))
        assert down == pytest.approx(math.pi + 2.0 / (100.0 * math.pi), abs=1e-14)

    def test_weak_convergence_rate(self):
        # error of the leading-term estimate shrinks ~ f^-2: ratio ~ 100 per decade
        rho = 0.321
        prev = None
        for f in (1e2, 1e3, 1e4):
            cfg = _gen(rho, f)
            root = min(
                (s.k for s in _ordinary(cfg, 2.0 * math.pi)),
                key=lambda k: abs(k - math.pi),
            )
            err = abs(root - ws.weak_coupling_estimate(1, cfg))
            if prev is not None:
                assert 30.0 < prev / err < 300.0
            prev = err

    def test_strong_ladders_two_fifths(self):
        est = ws.strong_coupling_estimates(_exact(2, 5, 1e-3), 6)
        over_pi = [e / math.pi for e in est]
        # kL/pi = 5 (both families at once, vanishing wave) is absent entirely
        assert over_pi == pytest.approx(
            [5.0 / 3.0, 2.5, 10.0 / 3.0, 20.0 / 3.0, 7.5, 25.0 / 3.0], abs=1e-12
        )

    def test_strong_ladders_center_all_coincide(self):
        assert ws.strong_coupling_estimates(_exact(1, 2, 1e-3), 8) == []

    def test_strong_ladders_irrational_interleave(self):
        est = ws.strong_coupling_estimates(_gen(math.sqrt(2.0) - 1.0, 1e-3), 12)
        assert len(est) == 12
        assert all(b > a for a, b in zip(est, est[1:]))

    def test_strong_convergence(self):
        cfg3 = _gen(0.3, 1e-3)
        est = ws.strong_coupling_estimates(cfg3, 20)
        devs = []
        for f in (1e-1, 1e-2, 1e-3):
            roots = [s.k for s in _ordinary(_gen(0.3, f), 6.0 * math.pi)]
            devs.append(max(min(abs(r - e) for e in est) for r in roots))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.05

    def test_bound_state_strong_limit(self):
        for f in (1e-1, 1e-2, 1e-3):
            s = _bound(_gen(0.37, f))
            assert abs(s.k * f - 1.0) < 3.0 * f / 0.37

    def test_zero_energy_positions(self):
        assert ws.zero_energy_positions(0.5) == [0.5]
        assert ws.zero_energy_positions(0.375) == pytest.approx([0.25, 0.75], abs=1e-14)
        assert ws.zero_energy_positions(-0.2) == []
        assert ws.zero_energy_positions(0.7) == []

    def test_near_wall_energy(self):
        assert ws.near_wall_energy(1, 0.0, 0.1) == pytest.approx(math.pi**2, abs=1e-12)
        assert ws.near_wall_energy(1, 0.05, 0.1) == pytest.approx(0.9 * math.pi**2, abs=1e-12)
        assert ws.near_wall_energy(1, 0.05, -0.1) == pytest.approx(1.1 * math.pi**2, abs=1e-12)
