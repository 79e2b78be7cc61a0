"""Dispersion solvers, nodal levels, asymptotics, and their invariants.

Frozen reference numbers marked "independent bisection" were produced by a
standalone fixed-point/bisection script on the scalar transcendental equations,
not by the package under test, and then pinned here to full precision.
"""

import hashlib
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


def _assert_mirror(cfg, mirror, k_max=6.0 * math.pi):
    """The spectra at rho and 1 - rho: the same kinds in order, nodal k bit-equal, energies within 1e-9 max(1, |E|)."""
    a, b = ws.full_spectrum(cfg, k_max).entries, ws.full_spectrum(mirror, k_max).entries
    assert [s.kind for s in a] == [s.kind for s in b]
    assert [s.k for s in a if s.kind == ws.NODAL] == [s.k for s in b if s.kind == ws.NODAL]
    for x, y in zip(a, b):
        assert x.energy == pytest.approx(y.energy, abs=1e-9 * max(1.0, abs(x.energy)))


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


def _nodal(cfg, k_max):
    """The nodal entries of the spectrum below k_max."""
    return [s for s in ws.full_spectrum(cfg, k_max).entries if s.kind == ws.NODAL]


class TestNodalLevels:
    # a nodal level is a table level of weight exactly 0: it sits at j n pi, on either side of the coupling
    @pytest.mark.parametrize("f", [0.3, -0.3])
    def test_two_fifths(self, f):
        states = _nodal(_exact(2, 5, f), 16.0 * math.pi)
        assert [round(s.k / math.pi) for s in states] == [5, 10, 15]
        assert all(s.kind == ws.NODAL and s.residual == 0.0 for s in states)
        assert states[0].energy == pytest.approx((5 * math.pi) ** 2)

    @pytest.mark.parametrize("f", [0.3, -0.3])
    def test_one_third(self, f):
        states = _nodal(_exact(1, 3, f), 10.0 * math.pi)
        assert [round(s.k / math.pi) for s in states] == [3, 6, 9]

    @pytest.mark.parametrize("f", [0.3, -0.3])
    def test_floor_above_ceiling(self, f):
        assert _nodal(_exact(83, 200, f), 100.0 * math.pi) == []


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
    @pytest.mark.parametrize("cfg", [_exact(1, 2, 0.5), _gen(0.5, 0.5), _gen(0.3, 0.42)], ids=repr)
    def test_center_marginal_boundary(self, cfg):
        # at f == 2 rho (1 - rho) the bound root is kappa L = 0: the zero-energy state, at energy +0.0
        s = _bound(cfg)
        assert s == ws.EigenState(ws.ORDINARY_NEGATIVE, 0.0, 0.0, 0.0)
        assert math.copysign(1.0, s.energy) == 1.0
        assert cfg.f * s.k - ws.rhs_negative(s.k, cfg.rho) == 0.0

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

    @pytest.mark.parametrize("rho", [0.3, 1e-9])
    @pytest.mark.parametrize("f", [1e-150, 1e-154])
    def test_smallest_couplings_bind_finitely(self, rho, f):
        # kappa L = 1/f: at |f| = 1e-154, the smallest coupling accepted, the energy -1/f^2 is still finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = ws.full_spectrum(_gen(rho, f)).entries[0]
            energy = ws.ground_states(rho, f)
        assert entry.kind == ws.ORDINARY_NEGATIVE
        assert math.isfinite(energy) and energy == entry.energy
        assert energy * f * f == pytest.approx(-1.0, rel=1e-12)

    def test_scaled_residual_certificate(self):
        s = _bound(_gen(0.33, 0.2))
        cfg = _gen(0.33, 0.2)
        assert abs(cfg.f * s.k - ws.rhs_negative(s.k, cfg.rho)) <= 1e-10
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
        # near the binding threshold
        + [_gen(rho, 2.0 * rho * (1.0 - rho) + df) for rho in (0.13, 0.3, 0.5) for df in (-1e-6, -1e-8, 1e-8, 5e-11, 1e-6)]
        + [_exact(1, 2, 0.5 + df) for df in (-1e-6, 5e-11, 1e-8, 1e-6)]
        # the threshold itself, where the lowest level is the zero-energy state
        + [_exact(1, 2, 0.5), _gen(0.5, 0.5), _gen(0.3, 0.42)]
        # decoupled lowest levels: 2 pi at the float 0.5, and pi next to a wall
        + [_gen(0.5, -1e-3)]
        + [_gen(rho, f) for rho in (1e-10, 1.0 - 1e-10) for f in (-3.0, -0.05, 0.05, 3.0)],
        ids=repr,
    )
    def test_matches_lowest_spectrum_entry(self, cfg):
        # the batched sweep solves the lowest bracket of full_spectrum's table
        e0 = ws.full_spectrum(cfg, 4.0 * math.pi).entries[0]
        bound = 0.0 < cfg.f <= 2.0 * cfg.rho * (1.0 - cfg.rho)  # f == fc gives the zero-energy state
        assert e0.kind == (ws.ORDINARY_NEGATIVE if bound else ws.ORDINARY_POSITIVE)
        assert ws.ground_states(cfg.rho, cfg.f) == pytest.approx(e0.energy, rel=1e-12)

    def test_batched_matches_full_spectrum(self):
        # both solve level 1's bracket from _brackets, so they agree bit for bit;
        # the grid holds the float 0.5, whose level 2 is decoupled
        rho = np.linspace(0.005, 0.995, 41)
        fc = 2.0 * rho * (1.0 - rho)
        # |f| = 1e-3 binds at kappa L ~ 1e3, where the sinh form of rhs_negative would overflow
        fs = [np.full(rho.size, sign * mag) for mag in np.logspace(-3.0, 2.0, 11) for sign in (1.0, -1.0)]
        fs += [fc + df for df in (-1e-6, 1e-6, -1e-8, 1e-8, -5e-11, 5e-11)]
        fs += [np.full(rho.size, math.inf), np.full(rho.size, -math.inf)]
        rhos, f = np.tile(rho, len(fs)), np.concatenate(fs)
        batched = ws.ground_states(rhos, f)
        lowest = np.array([ws.full_spectrum(_gen(r, x), 4.0 * math.pi).entries[0].energy
                           for r, x in zip(rhos.tolist(), f.tolist())])
        assert 0.5 in rho
        np.testing.assert_array_equal(batched, lowest)

    # Ground-state energies at hard points, as 50-digit mpmath roots of g (or
    # of the bound form f t - rhs_negative(t)) at the same float inputs.  The
    # points lie 1e-6, 1e-8 and 5e-11 either side of the threshold fc, where
    # the root is ill-conditioned, also within 5e-11 of it next to a wall
    # (rho <= 1e-3 or 0.9999), where a truncated series of g about zero energy
    # is far off, and at |f| = 1e-3, at the float 0.5 with 2 pi decoupled, and
    # next to a wall.
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
        (1e-05, -5e-11, "-0.7885875758644165123319953631"),
        (1e-05, 1e-11, "0.1485114823527217181576322352"),
        (0.0001, -5e-11, "-0.007505253545601504129944756362"),
        (0.0001, 5e-11, "0.007497749047511172533775656434"),
        (0.001, -5e-11, "-0.00007515060200421361102250343362"),
        (0.001, 5e-11, "0.00007514984799813640665733932136"),
        (0.9999, -1e-11, "-0.001500450140792976710109287037"),
        (0.9999, 1e-12, "0.0001500285039022374031542974065"),
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
        # the rounding of g and of f moves the root by ~eps |f| / |f - fc| relative
        tol = 6.0 * EPS * np.maximum(1.0, np.abs(f) / np.abs(f - fc)) * np.abs(want)
        batched = ws.ground_states(rho, f)
        lowest = np.array([ws.full_spectrum(_gen(r, x), 4.0 * math.pi).entries[0].energy
                           for r, x in zip(rho.tolist(), f.tolist())])
        assert np.all(np.abs(batched - want) <= tol)
        assert np.all(np.abs(lowest - want) <= tol)

    @pytest.mark.parametrize(
        "rho, f, error",
        [(0.0, 0.3, ws.PositionOutOfRange), (1.0, 0.3, ws.PositionOutOfRange), (math.nan, 0.3, ws.PositionOutOfRange),
         (0.3, 0.0, ValueError), (0.3, math.nan, ValueError), (0.3, 1e-200, ValueError), (0.3, -1e-310, ValueError)],
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
        # started at the weak-coupling roots: median 3 and max 8 (9 and 15 from the midpoints)
        assert np.median(passes) <= 5
        assert passes.max() <= 12

    @pytest.mark.parametrize("gap", [2.0**-52, 1e-12, 1e-8])
    def test_root_next_to_an_end_takes_few_passes(self, gap):
        # x^2 - r^2 on (0, 1), r = 1 - gap: Newton from below lands past hi = 1.  Clipped just
        # inside hi, the probe brackets the root at once; rejected, the iterate only halved
        # its distance to hi (28, 23 and 16 evaluations)
        r = 1.0 - gap
        xs = []

        def fn(x, idx):
            xs.append(x.copy())
            return x * x - r * r, 2.0 * x

        root = wellspec.spectrum.solve_brackets(fn, [0.0], [1.0], -1.0)
        assert len(xs) <= 6
        assert abs(root[0] - r) <= 4.0 * EPS
        assert all(np.all((x > 0.0) & (x < 1.0)) for x in xs)  # the ends are never evaluated

    def test_newton_step_back_across_the_new_end_is_not_probed(self):
        # (x - 0.3)(x - 1.2) on (0, 1) from 0.99: the Newton point 1.29 heads back across hi = 0.99,
        # which the iterate just set.  Clipped, it probed 0.99 - tol and 0.99 - 2 tol before the
        # midpoint (10 calls); rejected, the iterate moves to the midpoint at once
        xs = []

        def fn(x, idx):
            xs.append(x.copy())
            return (x - 0.3) * (x - 1.2), 2.0 * x - 1.5

        root = wellspec.spectrum.solve_brackets(fn, [0.0], [1.0], 1.0, 0.99)
        assert abs(root[0] - 0.3) <= 4.0 * EPS
        assert len(xs) <= 8
        iterates = np.sort(np.concatenate([x for x in xs if x.size == 1]))  # the certificate evaluates two
        assert np.all(np.diff(iterates) > 1e-12)

    @pytest.mark.parametrize("lo", [0.1, -0.0, 5e-324, -3.0, 1.5e308], ids=repr)
    def test_empty_bracket_returns_lo_exactly(self, lo):
        # beside an open bracket, so the passes run; 0.5 (lo + lo) would overflow at 1.5e308
        root = wellspec.spectrum.solve_brackets(lambda x, idx: (x - 0.3, np.ones_like(x)), [lo, 0.0], [lo, 1.0], -1.0)
        assert float(root[0]).hex() == float(lo).hex()
        assert abs(root[1] - 0.3) <= 4.0 * EPS

    def test_bracket_open_after_the_last_pass_returns_its_midpoint(self, monkeypatch):
        # a NaN slope leaves bisection: (0, 1) narrows to (0.25, 0.375) in three passes.  The
        # sign change one ulp above the midpoint 0.3125 passes the certificate, which evaluates
        # the fourth and last call
        monkeypatch.setattr(wellspec.spectrum, "_MAX_PASSES", 3)
        c = np.nextafter(0.3125, 1.0)
        xs = []

        def fn(x, idx):
            xs.append(x.copy())
            return x - c, np.full_like(x, np.nan)

        root = wellspec.spectrum.solve_brackets(fn, [0.0], [1.0], -1.0)
        assert [x.tolist() for x in xs[:3]] == [[0.5], [0.25], [0.375]] and len(xs) == 4
        assert root[0] == 0.3125

    @pytest.mark.parametrize("r", [-3.0, -2e30])
    def test_failed_certificate_bisects_a_wide_bracket_to_its_root(self, r):
        # a slope 1e15 times too large stops Newton far from r, so the root fails its certificate.
        # Bisecting 4e154 down to tol outlasts one solve's 240 passes, so each nested solve goes on
        # from the bracket the last one left (747 and 646 calls); a fallback loop capped at 240
        # bisection steps returned -1.38e78 for both after 481 calls
        calls = []

        def fn(x, idx):
            calls.append(x.size)
            return x - r, np.full_like(x, 1e15)

        root = wellspec.spectrum.solve_brackets(fn, [-4e154], [-1e-9], -1.0, [-0.5])
        assert abs(root[0] - r) <= 4.0 * EPS * max(1.0, abs(r))
        assert len(calls) <= 1000

    @pytest.mark.parametrize(
        "rho, f, k_over_pi, budget",
        [(0.524043, -0.00203118, 1170.36, 9), (0.658747, 0.00177253, 91.1914, 9),
         (0.3, 0.1, 20.0, 6), (0.3, 0.1, 200.0, 6), (0.3, 0.1, 2000.0, 6)],
    )
    def test_fn_calls_per_spectrum(self, rho, f, k_over_pi, budget, monkeypatch):
        # the first two have a Newton step back across a new end (11 calls while it was probed)
        calls = []
        solve = wellspec.spectrum.solve_brackets

        def counted(fn, *args):
            calls.append(0)

            def fn_counted(x, idx):
                calls[-1] += 1
                return fn(x, idx)

            return solve(fn_counted, *args)

        monkeypatch.setattr(wellspec.spectrum, "solve_brackets", counted)
        ws.full_spectrum(_gen(rho, f), k_over_pi * math.pi)
        assert len(calls) == 1 and calls[0] <= budget

    @staticmethod
    def _table(cfg, k_over_pi):
        """The bracket table of full_spectrum(cfg, k_over_pi pi) and its fn."""
        levels = np.arange(1, int(k_over_pi) + 1 + (cfg.f > 0.0))
        lo, hi, sign, x0 = wellspec.spectrum._brackets(cfg.rho, cfg.f, levels, ws.coupling(cfg, levels))
        fn = lambda x, idx: wellspec.spectrum._signed_residual(x, cfg.rho, cfg.f)
        return fn, lo, hi, sign, x0

    @pytest.mark.parametrize("cfg, k_over_pi", [(_exact(2, 5, 0.3), 30.5), (_exact(2, 5, -0.3), 30.5),
                                                (_gen(0.4, 0.35), 30.5), (_exact(1, 2, 0.5), 0.0)], ids=repr)
    def test_empty_brackets_are_never_evaluated(self, cfg, k_over_pi):
        # nodal levels, the decoupled level 5 pi of the float 0.4 and the zero-energy state at the
        # binding threshold hold their roots in advance; a table of nothing else makes no call
        table, lo, hi, sign, x0 = self._table(cfg, k_over_pi)
        empty = np.flatnonzero(lo == hi)
        assert empty.size
        seen = []

        def fn(x, idx):
            seen.append(idx.copy())
            return table(x, idx)

        roots = wellspec.spectrum.solve_brackets(fn, lo, hi, sign, x0)
        np.testing.assert_array_equal(roots[empty], lo[empty])
        assert not any(np.isin(idx, empty).any() for idx in seen)
        assert all(idx.size for idx in seen)
        assert bool(seen) == (empty.size < lo.size)

    @pytest.mark.parametrize("cfg", [_gen(0.3, 0.1), _exact(2, 5, -0.3)], ids=repr)
    @pytest.mark.parametrize("slope", [lambda d: d, np.negative], ids=["slope", "negated"])
    def test_callers_arrays_unchanged_and_idx_ascending(self, cfg, slope):
        # the solver narrows private copies of lo and hi in place; a negated slope fails the
        # certificate, so the bisection fallback calls fn too
        table, lo, hi, sign, x0 = self._table(cfg, 30.5)
        given = [a.copy() for a in (lo, hi, sign, x0)]
        seen = []

        def fn(x, idx):
            seen.append(idx.copy())
            v, dv = table(x, idx)
            return v, slope(dv)

        wellspec.spectrum.solve_brackets(fn, lo, hi, sign, x0)
        for a, b in zip((lo, hi, sign, x0), given):
            np.testing.assert_array_equal(a, b)
        assert all(np.all(np.diff(idx) >= 0) for idx in seen)  # the passes', the certificate's and bisection's

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

    @pytest.mark.parametrize(
        "start",
        [lambda lo, hi: lo - 1.0, lambda lo, hi: hi + 1.0, lambda lo, hi: lo, lambda lo, hi: hi,
         lambda lo, hi: np.full_like(lo, np.nan), lambda lo, hi: np.full_like(lo, np.inf),
         lambda lo, hi: np.full_like(lo, -np.inf), lambda lo, hi: lo + 1e-3, lambda lo, hi: hi - 1e-3],
        ids=["below", "above", "on_lo", "on_hi", "nan", "inf", "minus_inf", "lo_plus", "hi_minus"],
    )
    def test_any_start_gives_bisection_roots(self, start):
        # a start outside (lo, hi), on an end or not a number falls back to the midpoint;
        # one inside next to the wrong end (each root hugs one end) must still find the
        # root, within the 6 eps of the wrong-slope test
        for cfg in (_gen(0.3183, 0.7), _exact(2, 5, -0.3)):
            with _recorded_solves() as calls:
                ws.full_spectrum(cfg, 30.0 * math.pi)
            for fn, lo, hi, lo_sign, _, _ in calls:
                got = wellspec.spectrum.solve_brackets(fn, lo, hi, lo_sign, start(lo, hi))
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

    @pytest.mark.parametrize("M", [15, 30, 35])
    @pytest.mark.parametrize("f", [0.1, -0.1])
    def test_decoupled_level_at_the_ceiling_is_kept(self, f, M):
        # k_max // pi rounds fl(M pi) // pi down to M - 1 at each of these M; a table
        # counted that way ended one level short for f < 0 and lost the level at k_max
        k_max = M * math.pi
        ex = ws.full_spectrum(_exact(2, 5, f), k_max)
        gn = ws.full_spectrum(_gen(0.4, f), k_max)
        assert len(gn.entries) == len(ex.entries)
        assert gn.energies[-1] == ex.energies[-1] == k_max * k_max
        np.testing.assert_allclose(gn.energies, ex.energies, rtol=8.0 * EPS, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 60).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
        st.floats(-6.0, 6.0),
        st.booleans(),
        st.integers(0, 120),
    )
    @example((2, 5), -1.0, True, 15)
    def test_exact_and_generic_paths_agree(self, position, log_f, repel, M):
        # one table for both: the float p/n decouples the nodal levels of p/n, which
        # only the exact position labels nodal, each at exactly j n pi
        p, n = position
        g = math.gcd(p, n)
        p, n = p // g, n // g
        f, k_max = -(10.0**log_f) if repel else 10.0**log_f, M * math.pi
        ex = ws.full_spectrum(_exact(p, n, f), k_max).entries
        gn = ws.full_spectrum(_gen(p / n, f), k_max).entries
        assert len(ex) == len(gn)
        assert [a.k for a in ex if a.kind == ws.NODAL] == [j * n * math.pi for j in range(1, M // n + 1)]
        for a, b in zip(ex, gn):
            assert b.kind == (ws.ORDINARY_POSITIVE if a.kind == ws.NODAL else a.kind)
            assert abs(a.energy - b.energy) <= 8.0 * EPS * abs(a.energy)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.06, 0.94), st.sampled_from([0.7, -0.4, 3.0, -20.0, 0.05]))
    # decoupled levels: the even ones at 0.5 +- 1e-15, a run from pi next to a wall
    @example(0.5 + 1e-15, -0.4)
    @example(0.5 - 1e-15, 0.7)
    @example(1e-10, 3.0)
    @example(1e-10, -20.0)
    def test_mirror_symmetry(self, rho, f):
        _assert_mirror(_gen(rho, f), _gen(1.0 - rho, f))

    @pytest.mark.parametrize("f", [0.05, 0.4, 0.7, 3.0, 20.0, -0.05, -0.4, -0.7, -3.0, -20.0])
    def test_mirror_symmetry_at_exact_positions(self, f):
        # p/n and (n - p)/n share their nodal levels j n pi: 45 positions with n <= 12, each with one below 12 pi
        for n in range(2, 13):
            for p in range(1, n):
                if math.gcd(p, n) == 1:
                    _assert_mirror(_exact(p, n, f), _exact(n - p, n, f), 12.0 * math.pi)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.floats(0.001, 0.999), st.sampled_from([(1, 2), (2, 5), (1, 3)])),
        st.lists(st.floats(-50.0, 50.0, allow_subnormal=False), min_size=1, max_size=12),
    )
    @example((1, 2), [-50.0, -0.5, 0.5, 50.0])
    @example((2, 5), [-50.0, -0.5, 0.5, 50.0])
    @example((1, 3), [-50.0, -0.5, 0.5, 50.0])
    @example(0.3, [-2.2250738585072014e-308, 2.2250738585072014e-308])  # f k overflowed: a leaked RuntimeWarning
    def test_levels_never_rise_with_the_inverse_coupling(self, pos, inverse):
        # H = diag (m pi)^2 - (4/f) u u^T, so each level moves by -4 <psi|u>^2 <= 0 per unit of 1/f,
        # across the whole line and through the free well at 1/f = 0 (f = inf); nodal levels stay put
        config = (lambda f: _exact(*pos, f)) if isinstance(pos, tuple) else (lambda f: _gen(pos, f))
        inverse = sorted({0.0, *inverse})
        energies = np.array(
            [ws.full_spectrum(config(1.0 / v if v else math.inf), 9.5 * math.pi).energies[:8] for v in inverse]
        )
        assert energies.shape == (len(inverse), 8)
        rise = np.diff(energies, axis=0)
        assert np.all(rise <= 4.0 * EPS * np.maximum(1.0, np.abs(energies[:-1])))

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

    @pytest.mark.parametrize(
        "f, rho",
        [(f, rho) for rho in (1e-10, 3e-9, 1.0 - 3e-9) for f in (0.05, -0.05, 3.0, -3.0) if rho == 1e-10 or abs(f) == 3.0],
    )
    def test_near_wall_run_of_decoupled_levels(self, rho, f):
        # the levels from pi up are decoupled (a run of 2 levels to all 200 below
        # k_max); each sits at m pi, and the first coupled level after the run
        # owns the interval below it for f > 0 and the one above it for f < 0
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

    # ((rho, f), k_max / pi, every level below k_max): 50-digit mpmath roots of
    # g at the same float inputs (the first of the last row: of the bound form,
    # in kappa L).  Next to a wall every term of g at pi is ~1e-17, so a
    # deflation floor that takes them to be of order 1 reports pi, 2 pi, ...
    # where the roots lie up to 3e5 eps away.  At 0.4 + 1e-9 the level 5 pi
    # has a weight of 1.6e-8, and with f = 1e-9 its root lies 2.4e-8 below it.
    NEAR_DECOUPLED = [
        ((1e-9, 1e-6), 4.5, "3.1415926535834974616", "6.2831853071669949232", "9.4247779607504923848",
         "12.566370614333989846"),
        ((1e-9, 1e-4), 4.5, "3.1415926535897304054", "6.2831853071794608107", "9.4247779607691912161",
         "12.566370614358921621"),
        ((1e-9, 1e-2), 4.5, "3.1415926535897926101", "6.2831853071795852203", "9.4247779607693778304",
         "12.566370614359170441"),
        ((1e-9, -1e-6), 4.5, "3.1415926535960638825", "6.283185307192127765", "9.4247779607881916474",
         "12.56637061438425553"),
        ((1e-9, -1e-4), 4.5, "3.1415926535898560691", "6.2831853071797121381", "9.4247779607695682072",
         "12.566370614359424276"),
        ((1e-9, -1e-2), 4.5, "3.1415926535897938668", "6.2831853071795877336", "9.4247779607693816003",
         "12.566370614359175467"),
        ((3e-9, 1e-6), 4.5, "3.1415926535329032307", "6.2831853070658064613", "9.424777960598709692",
         "12.566370614131612923"),
        ((3e-9, 1e-4), 4.5, "3.1415926535892277179", "6.2831853071784554357", "9.4247779607676831536",
         "12.566370614356910871"),
        ((3e-9, 1e-2), 4.5, "3.1415926535897875836", "6.2831853071795751672", "9.4247779607693627508",
         "12.566370614359150334"),
        ((3e-9, -1e-6), 4.5, "3.1415926536460046378", "6.2831853072920092757", "9.4247779609380139135",
         "12.566370614584018551"),
        ((3e-9, -1e-4), 4.5, "3.1415926535903586912", "6.2831853071807173824", "9.4247779607710760736",
         "12.566370614361434765"),
        ((3e-9, -1e-2), 4.5, "3.1415926535897988933", "6.2831853071795977867", "9.42477796076939668",
         "12.566370614359195573"),
        ((6e-9, 1e-6), 4.5, "3.1415926533608512637", "6.2831853067217025274", "9.4247779600825537912",
         "12.566370613443405055"),
        ((6e-9, 1e-4), 4.5, "3.1415926535875310203", "6.2831853071750620406", "9.4247779607625930609",
         "12.566370614350124081"),
        ((6e-9, 1e-2), 4.5, "3.141592653589770619", "6.2831853071795412379", "9.4247779607693118569",
         "12.566370614359082476"),
        ((6e-9, -1e-6), 4.5, "3.1415926538133057593", "6.2831853076266115186", "9.4247779614399172779",
         "12.566370615253223037"),
        ((6e-9, -1e-4), 4.5, "3.1415926535920549138", "6.2831853071841098275", "9.4247779607761647413",
         "12.566370614368219655"),
        ((6e-9, -1e-2), 4.5, "3.1415926535898158579", "6.2831853071796317158", "9.4247779607694475737",
         "12.566370614359263432"),
        ((1.0 - 3e-9, 1e-6), 4.5, "3.1415926535329032297", "6.2831853070658064593", "9.424777960598709689",
         "12.566370614131612919"),
        ((1.0 - 3e-9, 1e-4), 4.5, "3.1415926535892277178", "6.2831853071784554357", "9.4247779607676831535",
         "12.566370614356910871"),
        ((1.0 - 3e-9, 1e-2), 4.5, "3.1415926535897875836", "6.2831853071795751672", "9.4247779607693627508",
         "12.566370614359150334"),
        ((1.0 - 3e-9, -1e-6), 4.5, "3.1415926536460046388", "6.2831853072920092776", "9.4247779609380139164",
         "12.566370614584018555"),
        ((1.0 - 3e-9, -1e-4), 4.5, "3.1415926535903586912", "6.2831853071807173824", "9.4247779607710760737",
         "12.566370614361434765"),
        ((1.0 - 3e-9, -1e-2), 4.5, "3.1415926535897988933", "6.2831853071795977867", "9.42477796076939668",
         "12.566370614359195573"),
        ((0.4 + 1e-9, 1e-9), 8.5, "999999999.99999993772", "5.2359877690729585782", "7.8539816241570050953",
         "10.471975538145917196", "15.707963244233373559", "15.707963311299512418", "20.943951076291834234",
         "23.561944872471015286", "26.179938845364793089"),
    ]

    @pytest.mark.parametrize("row", NEAR_DECOUPLED, ids=lambda row: repr(row[0]))
    def test_near_decoupled_levels_match_high_precision_roots(self, row):
        (rho, f), k_max, *want = row
        entries = ws.full_spectrum(_gen(rho, f), k_max * math.pi).entries
        got, want = np.array([s.k for s in entries]), np.array([float(w) for w in want])
        assert got.size == want.size
        assert np.all(np.abs(got - want) <= 2.0 * EPS * want)
        assert ws.ground_states(rho, f) == entries[0].energy

    @pytest.mark.parametrize("k_max", [-1.0, -1e-300, math.nan])
    def test_negative_ceiling_rejected(self, k_max):
        with pytest.raises(ValueError, match="k_max must be non-negative"):
            ws.full_spectrum(_gen(0.3, 0.1), k_max)

    @pytest.mark.parametrize(
        "cfg", [_gen(0.3, 0.1), _exact(1, 2, 0.1), _gen(0.3, 0.5), _gen(0.3, -0.1), _gen(0.3, 0.42)], ids=repr
    )
    def test_zero_ceiling_gives_the_bound_state_alone(self, cfg):
        entries = ws.full_spectrum(cfg, 0.0).entries
        assert [s.kind for s in entries] == [ws.ORDINARY_NEGATIVE] * (0.0 < cfg.f <= 2.0 * cfg.rho * (1.0 - cfg.rho))
        assert entries == ws.full_spectrum(cfg, 4.0 * math.pi).entries[: len(entries)]


class TestSignedTable:
    # Below zero the residual of the signed root x = -kappa L is f t -
    # rhs_negative(t) at t = -x, bit for bit, and its slope the negated slope
    # of that form; at and above zero (-0.0 included) it is g.  One rho and f
    # take the float path, per-point arrays the array path.
    @staticmethod
    def _check(x, rho, f):
        value, slope = wellspec.spectrum._signed_residual(x, rho, f)
        rho, f = np.broadcast_to(rho, x.shape), np.broadcast_to(f, x.shape)
        neg = x < 0.0
        t = -x[neg]
        want = np.array([b * c - ws.rhs_negative(c, a) for a, b, c in zip(rho[neg], f[neg], t)])
        np.testing.assert_array_equal(value[neg], want)
        np.testing.assert_array_equal(slope[neg], -(f[neg] - wellspec.spectrum._rhs_negative_and_slope(t, rho[neg])[1]))
        g, dg = wellspec.spectrum._residual_and_slope(x[~neg], rho[~neg], f[~neg])
        np.testing.assert_array_equal(value[~neg], g)
        np.testing.assert_array_equal(slope[~neg], dg)

    @pytest.mark.parametrize("rho, f", [(0.3, 0.1), (1e-9, 1.9999e-9), (0.5, 0.4999), (0.9204333206212386, 1e-3)])
    def test_float_path_is_the_bound_form_below_zero(self, rho, f):
        rng = np.random.default_rng(3)
        x = rng.permutation(np.concatenate((-np.geomspace(1e-9, 4.0 / f, 37), np.linspace(0.0, 60.0, 11), [-0.0])))
        self._check(x, rho, f)

    def test_array_path_is_the_bound_form_below_zero(self):
        # per-point rho and f, both signs of x mixed in any order
        rng = np.random.default_rng(4)
        n = 64
        rho, f = rng.uniform(1e-6, 1.0 - 1e-6, n), rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 1.0, n)
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9.0, 3.0, n)
        x[:2] = 0.0, -0.0
        assert (x < 0.0).any() and (x > 0.0).any()
        self._check(x, rho, f)

    def test_certificate_reads_each_form(self):
        cfg = _gen(0.33, 0.2)
        bound, first = ws.full_spectrum(cfg, 2.0 * math.pi).entries
        res = wellspec.spectrum._certify(np.array([-bound.k, first.k]), cfg.rho, cfg.f)
        assert res[0] == abs(cfg.f * bound.k - ws.rhs_negative(bound.k, cfg.rho)) == bound.residual
        assert res[1] == abs(float(ws.dispersion_residual(first.k, cfg))) == first.residual
        rho, f = np.full(2, cfg.rho), np.full(2, cfg.f)  # per-root rho and f, as ground_states has them
        np.testing.assert_array_equal(wellspec.spectrum._certify(np.array([-bound.k, first.k]), rho, f), res)
        with pytest.raises(ws.SolverFailure, match="residual"):
            wellspec.spectrum._certify(np.array([-1.0]), cfg.rho, cfg.f)


class TestOneSolve:
    @pytest.mark.parametrize("cfg", [_exact(2, 5, 0.1), _gen(0.4, 0.1)], ids=repr)
    def test_full_spectrum_solves_its_table_once(self, cfg):
        # a bound state in x = -kappa L, then one bracket per level: the
        # interval below it, or the empty bracket at 5 pi and its multiples,
        # which the float 0.4 decouples and at 2/5 have weight exactly 0
        # (nodal); none merged
        with _recorded_solves() as calls:
            spec = ws.full_spectrum(cfg, 20.0 * math.pi)
        assert len(calls) == 1
        _, lo, hi, _, _, _ = calls[0]
        assert (lo[0], hi[0]) == (-40.0, -1e-9)  # the bound form, below zero
        levels = np.arange(2, 22)
        decoupled = levels % 5 == 0
        np.testing.assert_array_equal(lo[1:], np.where(decoupled, levels, levels - 1) * math.pi)
        np.testing.assert_array_equal(hi[1:], levels * math.pi)
        assert spec.entries[0].kind == ws.ORDINARY_NEGATIVE

    def test_sweep_solves_every_point_in_one_call(self, capsys):
        built = []
        init = ws.DimensionlessConfig.__post_init__
        with _recorded_solves() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ws.DimensionlessConfig, "__post_init__", lambda self: built.append(self) or init(self))
            assert wellspec.cli.main(["sweep-ground"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1194
        assert len(calls) == 1
        assert built == []
        # every bracket, the points next to the threshold included, is done within 10 passes
        passes = calls[0][5]
        assert passes.max() <= 10


def _transcendentals_fingerprint():
    """A digest of numpy's sin, cos, exp and expm1 over 97 points: the roundings the pinned bits rest on."""
    x = np.linspace(-40.0, 40.0, 97)
    return hashlib.sha256(b"".join(fn(x).tobytes() for fn in (np.sin, np.cos, np.exp, np.expm1))).hexdigest()[:16]


@pytest.mark.skipif(
    _transcendentals_fingerprint() != "b9e9f63978b70e9f",
    reason="numpy's sin, cos, exp or expm1 round differently here from where the bits were pinned",
)
class TestPinnedBits:
    # float.hex of solver outputs: a change to the solver's bookkeeping must keep every bit
    TABLES = {
        (_gen(0.3183, 0.1), 4.5): [
            ("ordinary_negative", "0x1.3f7182713f1d9p+3", "-0x1.8e9c156aa5bcap+6", "0x0.0p+0"),
            ("ordinary_positive", "0x1.3dbbc43ddb30fp+2", "0x1.8a5a8db979a43p+4", "0x1.e000000000000p-51"),
            ("ordinary_positive", "0x1.2c628f14deb99p+3", "0x1.6077254ac5f5cp+6", "0x1.8c00000000000p-51"),
            ("ordinary_positive", "0x1.707784d1e7dfap+3", "0x1.092bead41d58dp+7", "0x1.4000000000000p-51"),
        ],
        (_gen(0.3183, -0.7), 4.5): [
            ("ordinary_positive", "0x1.ce5d0bb038208p+1", "0x1.a189fc00c4936p+3", "0x1.0000000000000p-52"),
            ("ordinary_positive", "0x1.a9c507cfe705cp+2", "0x1.620fe5caa9a3dp+5", "0x1.8000000000000p-50"),
            ("ordinary_positive", "0x1.2dca0614fdf63p+3", "0x1.63c4b1baf67abp+6", "0x1.7c00000000000p-50"),
            ("ordinary_positive", "0x1.96126a8adce56p+3", "0x1.420f35a1ce42fp+7", "0x1.e000000000000p-49"),
        ],
        (_gen(0.61, 50.0), 3.5): [
            ("ordinary_positive", "0x1.90acb40a61954p+1", "0x1.398e13916ec21p+3", "0x1.f000000000000p-46"),
            ("ordinary_positive", "0x1.91f5571e2268bp+2", "0x1.3b914306228fbp+5", "0x1.b600000000000p-45"),
            ("ordinary_positive", "0x1.2d8ec463c9862p+3", "0x1.633909711d41fp+6", "0x1.3380000000000p-43"),
        ],
        (_exact(2, 5, 0.3), 10.5): [
            ("ordinary_negative", "0x1.777db6a65cacfp+1", "-0x1.1360c56ba2251p+3", "0x1.0000000000000p-53"),
            ("ordinary_positive", "0x1.7d1e3b6c4bfa2p+2", "0x1.1bb180392aa9bp+5", "0x1.8000000000000p-51"),
            ("ordinary_positive", "0x1.2544a121f2004p+3", "0x1.4ff62b3db368ep+6", "0x1.8000000000000p-52"),
            ("ordinary_positive", "0x1.83191db0ed9e3p+3", "0x1.24aa791ddf362p+7", "0x1.8000000000000p-50"),
            ("nodal", "0x1.f6a7a2955385ep+3", "0x1.ed7aefb394d2bp+7", "0x0.0p+0"),
            ("ordinary_positive", "0x1.285667bc11295p+4", "0x1.5707ed0cc413fp+8", "0x1.4000000000000p-50"),
            ("ordinary_positive", "0x1.5e3b4712945f0p+4", "0x1.df262410a3ff7p+8", "0x1.0000000000000p-48"),
            ("ordinary_positive", "0x1.909efdc38619bp+4", "0x1.39789de09dfafp+9", "0x1.9800000000000p-48"),
            ("ordinary_positive", "0x1.c104591234b58p+4", "0x1.89c82042623a0p+9", "0x1.0000000000000p-48"),
            ("nodal", "0x1.f6a7a2955385ep+4", "0x1.ed7aefb394d2bp+9", "0x0.0p+0"),
        ],
        (_exact(2, 5, -0.3), 10.5): [
            ("ordinary_positive", "0x1.0ecf9c465608cp+2", "0x1.1e7a9602769f6p+4", "0x1.0000000000000p-52"),
            ("ordinary_positive", "0x1.a8fbfc1a0a235p+2", "0x1.60c1d58f4a741p+5", "0x1.4000000000000p-51"),
            ("ordinary_positive", "0x1.3492e24e982bep+3", "0x1.73f1c4d407de0p+6", "0x1.0000000000000p-52"),
            ("ordinary_positive", "0x1.a102c1ed249ddp+3", "0x1.53a4fde715f31p+7", "0x1.c000000000000p-49"),
            ("nodal", "0x1.f6a7a2955385ep+3", "0x1.ed7aefb394d2bp+7", "0x0.0p+0"),
            ("ordinary_positive", "0x1.327903b76053ep+4", "0x1.6ee58616e5af6p+8", "0x1.0000000000000p-48"),
            ("ordinary_positive", "0x1.6190917a32777p+4", "0x1.e85002d6fb51dp+8", "0x1.6000000000000p-48"),
            ("ordinary_positive", "0x1.938b017ff9a1bp+4", "0x1.3e0f7919c6773p+9", "0x1.6800000000000p-47"),
            ("ordinary_positive", "0x1.c7ce1877fee4bp+4", "0x1.95c72072f7c2fp+9", "0x1.7000000000000p-47"),
            ("nodal", "0x1.f6a7a2955385ep+4", "0x1.ed7aefb394d2bp+9", "0x0.0p+0"),
        ],
        (_gen(0.4, 0.35), 5.5): [
            ("ordinary_negative", "0x1.1fe41fdaa9faep+1", "-0x1.43c14ab50a960p+2", "0x1.0000000000000p-52"),
            ("ordinary_positive", "0x1.7fb41de8f52a5p+2", "0x1.1f8e381c90560p+5", "0x1.c000000000000p-51"),
            ("ordinary_positive", "0x1.267dc91493ce9p+3", "0x1.52c527a93f882p+6", "0x1.a000000000000p-50"),
            ("ordinary_positive", "0x1.8528786008bc3p+3", "0x1.27ca021cd8947p+7", "0x1.a000000000000p-49"),
            ("ordinary_positive", "0x1.f6a7a2955385ep+3", "0x1.ed7aefb394d2bp+7", "0x1.e5271d0744539p-49"),
        ],
        (_exact(1, 2, 0.5), 2.5): [
            ("ordinary_negative", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
            ("nodal", "0x1.921fb54442d18p+2", "0x1.3bd3cc9be45dep+5", "0x0.0p+0"),
        ],
        # a sweep-ground point whose level-1 Newton root 1.0690413728597135 fails its certificate
        (_gen(0.275, 0.43267738334242856), 20.0): [
            ("ordinary_positive", "0x1.11acb20680df4p+0", "0x1.2491c83193666p+0", "0x1.0000000000000p-54"),
            ("ordinary_positive", "0x1.64e187a5f1cf2p+2", "0x1.f18407f5421b9p+4", "0x1.0000000000000p-49"),
            ("ordinary_positive", "0x1.29af64b2b5632p+3", "0x1.5a286fd17cd02p+6", "0x1.0800000000000p-49"),
            ("ordinary_positive", "0x1.90f124f3b1c53p+3", "0x1.39f93b5011d93p+7", "0x1.9000000000000p-49"),
            ("ordinary_positive", "0x1.ee2b1bfe315bcp+3", "0x1.dcf533a5b8792p+7", "0x1.2000000000000p-49"),
            ("ordinary_positive", "0x1.2a9a496b13129p+4", "0x1.5c4b8fe9b2486p+8", "0x1.8000000000000p-48"),
            ("ordinary_positive", "0x1.5fadcf45bf437p+4", "0x1.e31e14630e915p+8", "0x1.a900000000000p-47"),
            ("ordinary_positive", "0x1.9110a22c94e23p+4", "0x1.3a2a8e922b5ddp+9", "0x1.7800000000000p-47"),
            ("ordinary_positive", "0x1.c1c4d2e9c6ac8p+4", "0x1.8b1a0195d752ep+9", "0x1.0000000000000p-52"),
            ("ordinary_positive", "0x1.f583d16fddc77p+4", "0x1.eb3e9acfeef1bp+9", "0x1.a000000000000p-49"),
            ("ordinary_positive", "0x1.14741ae154f71p+5", "0x1.2a8a8e9e3e3c4p+10", "0x1.4064000000000p-45"),
            ("ordinary_positive", "0x1.2ceee3d1f9df5p+5", "0x1.61c0c4e086ce1p+10", "0x1.f000000000000p-48"),
            ("ordinary_positive", "0x1.45e0e82d502b6p+5", "0x1.9ed4d31a2f6c9p+10", "0x1.0d00000000000p-44"),
            ("ordinary_positive", "0x1.5fb036614bdfap+5", "0x1.e324ae699f64cp+10", "0x1.6f80000000000p-45"),
            ("ordinary_positive", "0x1.78dfd6df3e825p+5", "0x1.15692573ea73ep+11", "0x1.8400000000000p-45"),
            ("ordinary_positive", "0x1.9173284380b04p+5", "0x1.3ac4fbf856118p+11", "0x1.7c00000000000p-46"),
            ("ordinary_positive", "0x1.aac2fb8df6ee4p+5", "0x1.63b6c0db5a157p+11", "0x1.6600000000000p-44"),
            ("ordinary_positive", "0x1.c45f991568619p+5", "0x1.8fb0dc2349035p+11", "0x1.a0c0000000000p-45"),
            ("ordinary_positive", "0x1.dd4194afccebep+5", "0x1.bcdeba71fca46p+11", "0x1.a000000000000p-50"),
            ("ordinary_positive", "0x1.f610e6d45be75p+5", "0x1.ec532533418e7p+11", "0x1.0400000000000p-44"),
        ],
    }
    GROUND_STATES = [
        "0x1.39e564ed0c976p+3", "0x1.498e6f829d1f6p+3", "0x1.84fa93dc4b9ffp+2",
        "0x1.78029aef41cb4p+3", "-0x1.1762484269f3bp+1", "0x1.bc69c6552ce6ap+3",
        "-0x1.b2835e9cfa9a9p+2", "0x1.09a7ef8e551e6p+4", "-0x1.14d06b61d4c63p+3",
        "0x1.32b65bc267bdcp+4", "-0x1.24b6386a7c20ap+3", "0x1.32b65bc267bdcp+4",
        "-0x1.14d06b61d4c63p+3", "0x1.09a7ef8e551e6p+4", "-0x1.b2835e9cfa9a7p+2",
        "0x1.bc69c6552ce6ap+3", "-0x1.1762484269f3ep+1", "0x1.78029aef41cb4p+3",
        "0x1.84fa93dc4b9ffp+2", "0x1.498e6f829d1f5p+3", "0x1.39e564ed0c976p+3",
    ]
    ORACLE = [
        "0x1.f83243af54b8ep+1", "0x1.24e546329eeb3p+5", "0x1.609dda1372d69p+6",
        "0x1.305b0f50854b8p+7", "0x1.eb2b610a77200p+7", "0x1.60f02acc0d477p+8",
        "0x1.de6228224e490p+8", "0x1.3bc85a14343f6p+9",
    ]

    # sigma > 0 with every coupled root solved: the last bracket ends on Weyl's upper bound
    ORACLE_REPULSIVE = [
        "0x1.81c735fec425bp+3", "0x1.58deb51a9678dp+5", "0x1.64de96e42c6cap+6",
        "0x1.3e80339c0ff42p+7", "0x1.f56ec8a149c77p+7", "0x1.64b6b6a84650dp+8",
        "0x1.e3fd087c0cfabp+8", "0x1.3d9da458844aep+9", "0x1.910b46daa2743p+9",
        "0x1.ed7aefb394d2dp+9", "0x1.2b33ce0008a99p+10", "0x1.64370dcd1fc30p+10",
        "0x1.a11639e5b8532p+10", "0x1.e3f3fab5cb08cp+10", "0x1.161511276c374p+11",
        "0x1.3c00596717ee5p+11", "0x1.6496453027bcep+11", "0x1.902b4eff10a3ep+11",
        "0x1.bdb1f5e7373a6p+11", "0x1.ed7aefb394d2dp+11", "0x1.1031916750e21p+12",
        "0x1.2ac84982f533dp+12", "0x1.46567688de203p+12", "0x1.636445e5dd1b2p+12",
        "0x1.81c807e54c2f3p+12", "0x1.a113dae3ba024p+12", "0x1.c1b529125d654p+12",
        "0x1.e3d60b7020c7ap+12", "0x1.0377baa5f06f6p+13", "0x1.159526d503b69p+13",
        "0x1.287a617c9ba95p+13", "0x1.3bf0cf66cc79cp+13", "0x1.4fe30e7784f1ap+13",
        "0x1.64951e702aaa9p+13", "0x1.79f21fd9c984fp+13", "0x1.8fc32739d253ap+13",
        "0x1.a63ef52d8e73ap+13", "0x1.bd7a90a80a407p+13", "0x1.d5325d9f6b26cp+13",
        "0x1.ed7aefb394d2dp+13",
    ]
    # sigma > 0 at 1/2, every even row decoupled, with Weyl's upper bound
    ORACLE_HALF_DECOUPLED = [
        "0x1.afc18963e0624p+3", "0x1.3bd3cc9be45dep+5", "0x1.7313f88243fb7p+6",
        "0x1.3bd3cc9be45dep+7", "0x1.f57050d2b78dap+7", "0x1.634e462f60e9ap+8",
        "0x1.e799cf23e301dp+8", "0x1.3bd3cc9be45dep+9", "0x1.91b78a797f011p+9",
        "0x1.ed7aefb394d2bp+9", "0x1.2b8e6831bd5e8p+10", "0x1.634e462f60e9ap+10",
    ]
    # sigma > 0 with every bracket between two poles
    ORACLE_BETWEEN_POLES = [
        "0x1.b2874e7192a17p+3", "0x1.750f87eebf208p+5", "0x1.66807e8109ba1p+6",
        "0x1.40fdfed166a3fp+7", "0x1.fd3bdfe4aceffp+7", "0x1.662bd17dc3e41p+8",
        "0x1.e45b9a3b8b683p+8", "0x1.3f5befd6f96d9p+9",
    ]

    @pytest.mark.parametrize("cfg, k_over_pi", list(TABLES), ids=repr)
    def test_full_spectrum_tables(self, cfg, k_over_pi):
        entries = ws.full_spectrum(cfg, k_over_pi * math.pi).entries
        got = [(s.kind, s.k.hex(), s.energy.hex(), s.residual.hex()) for s in entries]
        assert got == self.TABLES[cfg, k_over_pi]

    def test_ground_states_grid(self):
        # bound, above-threshold and repulsive points, f = 0.3 and -0.3 in turn
        rho, f = np.linspace(0.02, 0.98, 21), np.where(np.arange(21) % 2 == 0, 0.3, -0.3)
        assert [float(e).hex() for e in ws.ground_states(rho, f)] == self.GROUND_STATES

    def test_ground_states_through_the_nested_solve(self):
        # level 1 of the table above, at the position and its mirror; each Newton root fails its certificate
        got = ws.ground_states([0.275, 0.725], 0.43267738334242856)
        assert [float(e).hex() for e in got] == ["0x1.2491c83193666p+0"] * 2

    def test_oracle_secular_solve(self):
        assert [float(e).hex() for e in ws.oracle_spectrum(_gen(0.37, 0.7), 8, 1000)] == self.ORACLE

    @pytest.mark.parametrize(
        "cfg, count, m, pinned",
        [
            (_gen(0.3, -1.0), 40, 40, ORACLE_REPULSIVE),
            (_exact(1, 2, -1.0), 12, 12, ORACLE_HALF_DECOUPLED),
            (_gen(0.3, -0.5), 8, None, ORACLE_BETWEEN_POLES),
        ],
        ids=["every-root", "half-decoupled", "between-poles"],
    )
    def test_oracle_secular_solve_repulsive(self, cfg, count, m, pinned):
        assert [float(e).hex() for e in ws.oracle_spectrum(cfg, count, m)] == pinned


class TestAsymptoticEstimators:
    def test_weak_formula(self):
        cfg = _exact(1, 2, 100.0)
        assert ws.weak_coupling_estimate(1, cfg) == pytest.approx(math.pi - 2.0 / (100.0 * math.pi), abs=1e-14)
        assert ws.weak_coupling_estimate(2, cfg) == pytest.approx(2.0 * math.pi, abs=1e-14)
        down = ws.weak_coupling_estimate(1, _exact(1, 2, -100.0))
        assert down == pytest.approx(math.pi + 2.0 / (100.0 * math.pi), abs=1e-14)

    def test_weak_formula_on_an_array_of_levels(self):
        cfg = _exact(2, 5, 3.0)
        n = np.arange(1, 16)
        est = ws.weak_coupling_estimate(n, cfg)
        np.testing.assert_allclose(est, [ws.weak_coupling_estimate(int(k), cfg) for k in n], rtol=1e-15)
        # the weight comes from ``coupling``: exactly 0 at the nodal multiples of 5
        np.testing.assert_array_equal(est[n % 5 == 0], n[n % 5 == 0] * math.pi)
        assert np.all(est[n % 5 != 0] < n[n % 5 != 0] * math.pi)

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
