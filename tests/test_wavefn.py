"""Piecewise eigenfunctions: construction, matching, closed-form integrals."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import wellspec as ws
from wellspec import spectrum, wavefn
from wellspec.wavefn import EVANESCENT, NODAL_WAVE, OSCILLATORY, PiecewiseWave


EPS = np.finfo(float).eps


def _exact(p, n, f):
    return ws.DimensionlessConfig.exact(p, n, f)


def _gen(rho, f):
    return ws.DimensionlessConfig.generic(rho, f)


def _first_states(config, count, k_max=20.0 * math.pi):
    return ws.full_spectrum(config, k_max).entries[:count]


def _first_nodal(config, k_max):
    """The lowest nodal entry of the spectrum below k_max."""
    return next(s for s in ws.full_spectrum(config, k_max).entries if s.kind == ws.NODAL)


def _transcendentals_fingerprint():
    """A digest of numpy's sin and cos and the math module's sin, cos, tanh and expm1 over 97 points."""
    x = np.linspace(-40.0, 40.0, 97)
    scalar = np.array([fn(v) for fn in (math.sin, math.cos, math.tanh, math.expm1) for v in x.tolist()])
    return hashlib.sha256(b"".join(a.tobytes() for a in (np.sin(x), np.cos(x), scalar))).hexdigest()[:16]


_PINNED_PLATFORM = pytest.mark.skipif(
    _transcendentals_fingerprint() != "5dc3f76748f5a9fc",
    reason="numpy's or the math module's transcendentals round differently here from where the bits were pinned",
)


def _scalar_gram(waves):
    """The Gram entry by entry from the scalar closed forms on floats: the reference for the broadcast."""

    def segment(w1, w2, T):  # the integral over one segment of length T; w2 is the evanescent wave, if either is
        a, b = w1.k, w2.k
        if a == b:
            return T * wavefn._phi(a * T) if w1.kind == EVANESCENT else wavefn._int_sin2(a, T)
        if w2.kind == EVANESCENT:
            return (wavefn._kcoth(b, T) * math.sin(a * T) - a * math.cos(a * T)) / (a * a + b * b)
        d, s = a - b, a + b
        return 0.5 * (math.sin(d * T) / d - math.sin(s * T) / s)

    g = np.empty((len(waves), len(waves)))
    for i, wi in enumerate(waves):
        for j, wj in enumerate(waves):
            w1, w2 = (wj, wi) if wi.kind == EVANESCENT else (wi, wj)
            left = w1.amp_left * w2.amp_left * segment(w1, w2, w1.rho)
            g[i, j] = left + w1.amp_right * w2.amp_right * segment(w1, w2, 1.0 - w1.rho)
    return g


def step_limit_wave(j: int) -> PiecewiseWave:
    """Strong-coupling limit of the j-th ordinary state at rho = 1/2.

    A step-sign copy of the nodal sine: even about the midpoint, discontinuous
    slope at it.  Exists only in the limit of vanishing coupling; never part
    of a finite-coupling spectrum.
    """
    k = 2.0 * j * math.pi
    amp = math.sqrt(2.0)
    return PiecewiseWave(OSCILLATORY, k, 0.5, amp, amp)


def _segment_value(w, x):
    """The wave value from the segment forms of the module docstring, written out: the reference for ``evaluate``."""
    if x == 0.0 or x == 1.0:
        return 0.0
    amp, u, T = (w.amp_left, x, w.rho) if x <= w.rho else (w.amp_right, 1.0 - x, 1.0 - w.rho)
    if w.kind != EVANESCENT:
        return amp * math.sin(w.k * u)
    if w.k == 0.0:
        return amp * (u / T)
    return amp * (math.exp(w.k * (u - T)) * math.expm1(-2.0 * w.k * u) / math.expm1(-2.0 * w.k * T))


class TestBuildWave:
    def test_nodal_is_pure_sine(self):
        cfg = _exact(2, 5, 0.7)
        state = _first_nodal(cfg, 6.0 * math.pi)
        w = ws.build_wave(state, cfg)
        assert w.kind == NODAL_WAVE
        for x in (0.1, 0.25, 0.33, 0.4, 0.77):
            assert ws.evaluate(w, x) == pytest.approx(math.sqrt(2.0) * math.sin(5.0 * math.pi * x), abs=1e-12)
        assert abs(ws.evaluate(w, 0.4)) < 1e-12  # node at the junction

    def test_evanescent_approaches_free_space_bound_shape(self):
        # kappa -> 1/f: psi ~ exp(-|x - 1/2|/f)/sqrt(f) away from the walls
        f = 0.01
        cfg = _exact(1, 2, f)
        w = ws.build_wave(ws.full_spectrum(cfg, 0.0).entries[0], cfg)
        assert w.kind == EVANESCENT
        for d in (0.02, 0.05, 0.1):
            expect = math.exp(-d / f) / math.sqrt(f)
            assert ws.evaluate(w, 0.5 + d) == pytest.approx(expect, rel=1e-2)
            assert ws.evaluate(w, 0.5 - d) == pytest.approx(expect, rel=1e-2)

    def test_strong_coupling_companion_amplitudes(self):
        # ordinary companion of the nodal state at kL = 5 pi, rho = 2/5:
        # in the split-well limit the segment amplitudes tend to sqrt(3) and
        # -2/sqrt(3), an amplitude ratio of -2/3
        cfg = _exact(2, 5, 1e-3)
        spec = ws.full_spectrum(cfg, 6.0 * math.pi)
        comp = min(
            (s for s in spec.entries if s.kind == ws.ORDINARY_POSITIVE and abs(s.k - 5.0 * math.pi) < 0.5),
            key=lambda s: abs(s.k - 5.0 * math.pi),
        )
        w = ws.build_wave(comp, cfg)
        assert w.amp_right / w.amp_left == pytest.approx(-2.0 / 3.0, abs=2e-3)
        assert w.amp_left == pytest.approx(math.sqrt(3.0), abs=5e-3)

    def test_decoupled_level_takes_nodal_form(self):
        # at the float 0.5 the level 2 pi is decoupled; both ordinary amplitudes
        # would be rounding noise, with amp_right = +amp_left where the wave has -amp_left
        cfg = _gen(0.5, -0.2)
        state = next(s for s in ws.full_spectrum(cfg, 3.0 * math.pi).entries if s.k == 2.0 * math.pi)
        assert state.kind == ws.ORDINARY_POSITIVE
        w = ws.build_wave(state, cfg)
        assert w.kind == NODAL_WAVE
        assert w.amp_left == math.sqrt(2.0) and w.amp_right == -math.sqrt(2.0)
        cont, jump = ws.matching_defect(w, cfg)
        assert cont <= 1e-15 and jump <= 1e-14

    def test_certificate_rejection(self):
        cfg = _gen(0.3, 0.8)
        bad = ws.EigenState(ws.ORDINARY_POSITIVE, 2.9, 2.9**2, 0.0)
        with pytest.raises(ws.InconsistentState):
            ws.build_wave(bad, cfg)

    def test_certificate_is_the_solvers_bound(self):
        # each root moved until its residual is 1e-9 times max(1, |f| x): inside the looser bound 1e-8
        # once applied here, outside the solver's 1e-10
        rho, f = 0.3, 0.1
        cfg = _gen(rho, f)
        bound, positive = _first_states(cfg, 2)
        assert bound.kind == ws.ORDINARY_NEGATIVE and positive.kind == ws.ORDINARY_POSITIVE
        for s in (bound, positive):
            ws.build_wave(s, cfg)  # the solver's own roots pass
        k = positive.k + 1e-9 * max(1.0, f * positive.k) / abs(spectrum._residual_and_slope(positive.k, rho, f)[1])
        kap = bound.k + 1e-9 / abs(f - spectrum._rhs_negative_and_slope(bound.k, rho)[1])
        moved = [
            (positive._replace(k=k), ws.dispersion_residual(k, cfg) / max(1.0, f * k)),
            (bound._replace(k=kap), f * kap - ws.rhs_negative(kap, rho)),
        ]
        for s, res in moved:
            assert 1e-10 < abs(res) < 1e-8
            with pytest.raises(ws.InconsistentState, match="residual certificate"):
                ws.build_wave(s, cfg)

    @pytest.mark.parametrize("other", [_gen(0.4, 0.7), _exact(1, 3, 0.7)], ids=["generic", "one_third"])
    def test_nodal_state_of_another_configuration_rejected(self, other):
        # the nodal level 5 pi of 2/5 has a nonzero weight at the float 0.4 and at 1/3
        state = _first_nodal(_exact(2, 5, 0.7), 6.0 * math.pi)
        with pytest.raises(ws.InconsistentState, match="nodal"):
            ws.build_wave(state, other)

    def test_marginal_state_rejected(self):
        cfg = _exact(1, 2, 0.5)
        g = ws.EigenState(ws.ORDINARY_POSITIVE, 0.0, 0.0, 0.0)  # the zero-energy state is ordinary negative
        with pytest.raises(ws.InconsistentState):
            ws.build_wave(g, cfg)

    def test_sign_convention(self):
        cfg = _gen(0.37, -1.2)
        for s in _first_states(cfg, 6):
            w = ws.build_wave(s, cfg)
            assert ws.evaluate(w, 1e-6) > 0.0  # positive slope at the left wall


class TestEvaluate:
    def test_walls_exact_zero(self):
        cfg = _gen(0.3, 0.8)
        w = ws.build_wave(_first_states(cfg, 1)[0], cfg)
        assert ws.evaluate(w, 0.0) == 0.0
        assert ws.evaluate(w, 1.0) == 0.0

    def test_outside_domain(self):
        cfg = _gen(0.3, 0.8)
        w = ws.build_wave(_first_states(cfg, 1)[0], cfg)
        with pytest.raises(ws.DomainError):
            ws.evaluate(w, -0.01)
        with pytest.raises(ws.DomainError):
            ws.evaluate(w, 1.01)

    def test_walls_and_signed_zero_give_exact_zero(self):
        cfg = _gen(0.3, 0.1)
        for s in _first_states(cfg, 3):
            w = ws.build_wave(s, cfg)
            for x in (0.0, -0.0, 1.0):
                assert ws.evaluate(w, x) == 0.0

    def test_nan_and_points_just_outside_rejected(self):
        cfg = _gen(0.3, 0.1)
        for s in _first_states(cfg, 3):
            w = ws.build_wave(s, cfg)
            for x in (math.nan, -1e-300, 1.0 + 2.3e-16):
                with pytest.raises(ws.DomainError):
                    ws.evaluate(w, x)

    def test_grid_values_match_the_segment_forms_bitwise(self):
        nodal_cfg = _exact(2, 5, 0.7)
        strong = _gen(0.3, 9.9e-5)
        cases = [
            (nodal_cfg, _first_nodal(nodal_cfg, 6.0 * math.pi)),
            (strong, ws.full_spectrum(strong, 0.0).entries[0]),
        ]
        for cfg in (_gen(0.37, 0.7), _gen(0.3, 0.1), _exact(1, 2, -0.2)):
            cases += [(cfg, s) for s in _first_states(cfg, 8)]
        waves = [ws.build_wave(s, cfg) for cfg, s in cases]
        assert {w.kind for w in waves} == {OSCILLATORY, NODAL_WAVE, EVANESCENT}
        assert waves[1].kind == EVANESCENT and waves[1].k >= 1e4
        grid = [i / 1000.0 for i in range(1001)]
        for w in waves:
            got = np.array([ws.evaluate(w, x) for x in grid])
            ref = np.array([_segment_value(w, x) for x in grid])
            assert got.tobytes() == ref.tobytes()

    def test_ground_antinode_positive(self):
        cfg = _gen(0.5, -0.5)
        w = ws.build_wave(_first_states(cfg, 1)[0], cfg)
        xs = np.linspace(0.0, 1.0, 201)
        vals = [ws.evaluate(w, float(x)) for x in xs]
        assert max(vals) > 1.0
        assert min(vals) > -1e-12  # lowest state has no interior node

    def test_extreme_decay_stays_finite(self):
        f = 1e-4
        cfg = _gen(0.3, f)
        s = ws.full_spectrum(cfg, 0.0).entries[0]
        assert s.k > 9.9e3
        w = ws.build_wave(s, cfg)
        vals = [ws.evaluate(w, x) for x in (0.1, 0.2999, 0.3, 0.3001, 0.9)]
        assert all(map(math.isfinite, vals))
        assert vals[2] > 0.0
        assert abs(ws.gram_matrix([w])[0, 0] - 1.0) <= 4.0 * EPS


class TestJunctionForm:
    """The bound wave: its junction value times sinh(kappa x) / sinh(kappa rho) and its mirror."""

    @pytest.mark.parametrize("f", [1e-2, 1e-3, 1e-4, 1e-6, 1e-7, 1e-9])
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.5])
    def test_bound_wave_exact_at_any_decay(self, rho, f):
        cfg = _gen(rho, f)
        s = ws.full_spectrum(cfg, 0.0).entries[0]
        w = ws.build_wave(s, cfg)
        assert abs(ws.gram_matrix([w])[0, 0] - 1.0) <= 4.0 * EPS
        cont, jump = ws.matching_defect(w, cfg)
        assert cont == 0.0
        if s.k <= 1e4:
            assert jump <= 1e-8

    # 50-digit mpmath values of coth(s) / (2 s) - 1 / (2 sinh(s)^2), 1/3 at s = 0
    PHI = [
        (0.0, "0.33333333333333333333333333333333333333333333333333"),
        (1e-8, "0.33333333333333332888888888888888876640263389056067"),
        (0.03, "0.33329333847557340345849575785372386028707874876436"),
        (0.5, "0.32260622532306821087917696478502391133042734884969"),
        (0.75, "0.31020160756134717345587319427550472098971868434203"),
        (0.999999, "0.29448688009645737548660608591534237137092839587656"),
        (1.0 - 2.0**-53, "0.29448681226651042614472495337363169761364395929681"),
        (1.0, "0.29448681226651041861408622890012862782631280000861"),
        (1.0 + 2.0**-52, "0.29448681226651040355280877995312126414663521563101"),
        (30.0, "0.016666666666666666666666649445528833363510000972159"),
        (1e4, "0.00005"),
    ]

    @pytest.mark.parametrize("s, want", PHI)
    def test_phi_against_frozen_references(self, s, want):
        want = float(want)
        assert abs(wavefn._phi(s) - want) <= 8.0 * EPS * want

    def test_phi_has_no_step_at_the_series_switch(self):
        # phi falls by 9 to 16 ulp over 64 floats next to s = 1, where the series gives way to the closed form;
        # consecutive floats wobble by an ulp of rounding on either branch, so values 64 floats apart are compared
        s = [1.0]
        for _ in range(64):
            s = [math.nextafter(s[0], 0.0), *s, math.nextafter(s[-1], 2.0)]
        phi = [wavefn._phi(x) for x in s]
        assert all(a >= b for a, b in zip(phi, phi[64:]))

    def test_zero_energy_state_is_the_tent(self):
        # at f = 2 rho (1 - rho) the bound state is psi = sqrt(3) x / rho, sqrt(3) (1 - x) / (1 - rho)
        cfg = _exact(1, 2, 0.5)
        states = _first_states(cfg, 8)
        assert states[0] == ws.EigenState(ws.ORDINARY_NEGATIVE, 0.0, 0.0, 0.0)
        waves = [ws.build_wave(s, cfg) for s in states]
        w = waves[0]
        assert w.kind == EVANESCENT and w.k == 0.0
        assert w.amp_left == pytest.approx(math.sqrt(3.0), rel=2.0 * EPS)
        assert w.amp_right == w.amp_left
        for x in (0.1, 0.3, 0.5, 0.8):
            assert ws.evaluate(w, x) == pytest.approx(math.sqrt(3.0) * min(x, 1.0 - x) / 0.5, rel=4.0 * EPS)
        assert ws.matching_defect(w, cfg)[0] == 0.0
        assert ws.matching_defect(w, cfg)[1] <= 1e-8
        g = ws.gram_matrix(waves)
        assert np.abs(np.diag(g) - 1.0).max() <= 1e-12
        assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-9


class TestOscillatoryNorm:
    """The integral of sin(k u)^2, whose closed form cancels where k T is small."""

    # 50-digit mpmath values of T/2 - sin(2 k T) / (4 k), at x = 2 k T from 2e-8 to 7
    SIN2 = [
        (3.8e-6, 0.3, "1.2995999999996620909073419999009343793633853945628e-13"),
        (1.0, 5e-9, "4.1666666666666669073653437099392451170054103921302e-26"),
        (1.2e-3, 0.7, "1.6463997676600470114351243898662924359198509872334e-7"),
        (2.0, 0.125, "0.0025718076744746249658390080980535764897745790074249"),
        (1.0, 0.9995, "0.27232172026395116153888318340304693743077408567668"),
        (1.0, 1.0, "0.27267564329357957615099503352206378932443625713803"),
        (10.0, 0.35, "0.1585753350320302700078411873460726824441031006397"),
    ]

    @pytest.mark.parametrize("k, T, want", SIN2)
    def test_int_sin2_against_frozen_references(self, k, T, want):
        want = float(want)
        assert abs(wavefn._int_sin2(k, T) - want) <= 4.0 * EPS * want

    @pytest.mark.parametrize("r", [1e-12, 1e-10, 1e-7, 1e-3])
    def test_first_wave_normalised_just_above_threshold(self, r):
        # f = fc (1 + r), fc = 2 rho (1 - rho) = 0.42: level 1 has k ~ 3.8e-6 at r = 1e-12, where the
        # closed form's cancellation left the norm 2.8e-5 off; the Gram check reads the same integral
        cfg = _gen(0.3, 0.42 * (1.0 + r))
        s = _first_states(cfg, 1)[0]
        assert s.kind == ws.ORDINARY_POSITIVE
        w = ws.build_wave(s, cfg)
        a, b, k, rho = w.amp_left, w.amp_right, w.k, w.rho
        left, _ = quad(lambda x: (a * math.sin(k * x)) ** 2, 0.0, rho, epsabs=1e-15, epsrel=1e-13)
        right, _ = quad(lambda x: (b * math.sin(k * (1.0 - x))) ** 2, rho, 1.0, epsabs=1e-15, epsrel=1e-13)
        assert abs(left + right - 1.0) <= 1e-14


class TestMatching:
    def test_nodal_defects_vanish(self):
        cfg = _exact(1, 3, 0.4)
        state = _first_nodal(cfg, 7.0 * math.pi)
        cont, jump = ws.matching_defect(ws.build_wave(state, cfg), cfg)
        assert cont < 1e-13
        assert jump < 1e-9

    def test_certified_states_match(self):
        for cfg in (_exact(1, 2, -0.2), _gen(0.29, 0.07), _exact(2, 5, 0.01)):
            for s in _first_states(cfg, 8):
                if s.k == 0.0:
                    continue
                cont, jump = ws.matching_defect(ws.build_wave(s, cfg), cfg)
                assert cont < 1e-10
                assert jump < 1e-8

    # (continuity, jump) as float.hex, frozen when each side of the junction was read by its own helper
    PINNED = [
        (_gen(0.3, 0.1), 0, EVANESCENT, ("0x0.0p+0", "0x1.8000000000000p-46")),
        (_gen(0.3, 0.1), 2, OSCILLATORY, ("0x1.0000000000000p-54", "0x1.1000000000000p-45")),
        (_exact(2, 5, 0.7), None, NODAL_WAVE, ("0x1.f3308ed84728cp-51", "0x1.1d4051a028a9ap-50")),
    ]

    @pytest.mark.parametrize("cfg, index, kind, want", PINNED, ids=[p[2] for p in PINNED])
    def test_defects_pinned_bits(self, cfg, index, kind, want):
        state = _first_nodal(cfg, 6.0 * math.pi) if index is None else _first_states(cfg, index + 1)[index]
        w = ws.build_wave(state, cfg)
        assert w.kind == kind
        assert tuple(v.hex() for v in ws.matching_defect(w, cfg)) == want

    def test_perturbed_root_detected(self):
        cfg = _gen(0.29, 0.07)
        s = next(s for s in _first_states(cfg, 8) if s.kind == ws.ORDINARY_POSITIVE)
        w = ws.build_wave(s, cfg)
        _, jump = ws.matching_defect(replace(w, k=w.k + 1e-3), cfg)  # the shift test_check_failure_exit_4 plants
        assert jump > 1e-4


class TestInnerProduct:
    def test_gram_identity(self):
        for cfg in (_exact(1, 2, -0.2), _exact(2, 5, 0.01), _gen(1.0 / math.sqrt(2.0), 0.3)):
            waves = [ws.build_wave(s, cfg) for s in _first_states(cfg, 12, 26.0 * math.pi)]
            g = ws.gram_matrix(waves)
            assert np.abs(np.diag(g) - 1.0).max() < 1e-12
            off = g - np.diag(np.diag(g))
            assert np.abs(off).max() < 1e-9

    def test_nodal_ordinary_orthogonal(self):
        cfg = _exact(2, 5, 0.4)
        states = _first_states(cfg, 10)
        waves = [ws.build_wave(s, cfg) for s in states]
        nod = [w for s, w in zip(states, waves) if s.kind == ws.NODAL]
        orda = [w for s, w in zip(states, waves) if s.kind != ws.NODAL]
        for wn in nod:
            for wo in orda:
                assert abs(ws.gram_matrix([wn, wo])[0, 1]) < 1e-10

    def test_evanescent_cross_terms(self):
        cfg = _gen(0.3, 0.1)
        states = _first_states(cfg, 6)
        assert states[0].kind == ws.ORDINARY_NEGATIVE
        waves = [ws.build_wave(s, cfg) for s in states]
        for w in waves[1:]:
            assert abs(ws.gram_matrix([waves[0], w])[0, 1]) < 1e-10

    @pytest.mark.parametrize(
        "cfg", [_gen(0.3, 0.1), _exact(2, 5, 0.4), _gen(0.3, 0.42)], ids=["bound", "nodal", "tent"]
    )
    def test_against_numerical_quadrature(self, cfg):
        states = _first_states(cfg, 8)
        assert {ws.ORDINARY_NEGATIVE, ws.NODAL} & {s.kind for s in states}
        waves = [ws.build_wave(s, cfg) for s in states]
        g = ws.gram_matrix(waves)
        for i, j in zip(*np.triu_indices(len(waves))):
            wi, wj = waves[i], waves[j]
            num, _ = quad(
                lambda x: ws.evaluate(wi, x) * ws.evaluate(wj, x),
                0.0,
                1.0,
                points=[cfg.rho],
                limit=200,
                epsabs=1e-12,
                epsrel=1e-12,
            )
            assert g[i, j] == pytest.approx(num, abs=1e-9)

    def test_gram_symmetric(self):
        for cfg in (_gen(0.3, 0.1), _exact(2, 5, 0.4)):
            g = ws.gram_matrix([ws.build_wave(s, cfg) for s in _first_states(cfg, 20)])
            assert g.tobytes() == g.T.tobytes()

    # sha256 of the Gram of the first 8 waves, frozen from the pairwise scalar closed forms
    PINNED = [
        (_gen(0.3, 0.1), "9f13388276bd3918b9a624500cbc6a1dcd9c71f3279f6b752c7abc2bb3d8e479"),
        (_exact(2, 5, 0.7), "17d3f4ae0ebfc5a0d901efe721e817137175606e3e3f01b9880957553538234b"),
    ]

    @_PINNED_PLATFORM
    @pytest.mark.parametrize("cfg, want", PINNED, ids=["bound", "nodal"])
    def test_gram_pinned_bits(self, cfg, want):
        g = ws.gram_matrix([ws.build_wave(s, cfg) for s in _first_states(cfg, 8)])
        assert hashlib.sha256(g.tobytes()).hexdigest() == want

    @_PINNED_PLATFORM
    @pytest.mark.parametrize(
        "cfg",
        [_gen(0.3, 0.1), _exact(2, 5, 0.4), _gen(0.3, 0.42), _gen(0.5, 1e-154), _gen(3e-9, 1e-9), _gen(0.999, -1e-9)],
        ids=["bound", "nodal", "tent", "overflow", "wall", "far-wall"],
    )
    def test_gram_matches_the_scalar_forms_bitwise(self, cfg):
        # on floats, k^2 + kappa^2 overflows to inf at f = 1e-154 with no warning; the broadcast must agree
        waves = [ws.build_wave(s, cfg) for s in _first_states(cfg, 40, 42.0 * math.pi)]
        assert ws.gram_matrix(waves).tobytes() == _scalar_gram(waves).tobytes()
        for w in (w for w in waves if w.kind != EVANESCENT):  # the equal-k off-diagonal
            assert ws.gram_matrix([w, w]).tobytes() == _scalar_gram([w, w]).tobytes()

    def test_two_evanescent_waves_rejected(self):
        # one configuration has at most one bound state, so the Gram has no form for a pair of them
        waves = [ws.build_wave(_first_states(_gen(0.3, f), 1)[0], _gen(0.3, f)) for f in (0.1, 0.2)]
        assert [w.kind for w in waves] == [EVANESCENT, EVANESCENT]
        with pytest.raises(ValueError, match="evanescent"):
            ws.gram_matrix(waves)

    def test_empty_gram(self):
        assert ws.gram_matrix([]).shape == (0, 0)

    def test_gram_at_scale(self):
        # the 1,500 lowest waves of a configuration with a bound state, in one broadcast
        cfg = _gen(0.3, 0.1)
        waves = [ws.build_wave(s, cfg) for s in _first_states(cfg, 1500, 2000.0 * math.pi)]
        assert len(waves) == 1500 and waves[0].kind == EVANESCENT
        g = ws.gram_matrix(waves)
        diag = np.diag(g)
        assert np.abs(g - np.diag(diag)).max() <= 1e-9
        assert np.abs(diag - 1.0).max() <= 1e-12


class TestSymmetryAndLimits:
    def test_nodal_odd_about_center(self):
        cfg = _exact(1, 2, 0.3)
        w = ws.build_wave(_first_nodal(cfg, 5.0 * math.pi), cfg)
        for d in (0.1, 0.2, 0.31):
            assert ws.evaluate(w, 0.5 + d) == pytest.approx(-ws.evaluate(w, 0.5 - d), abs=1e-12)

    def test_step_limit_states(self):
        w1 = step_limit_wave(1)
        assert w1.kind == OSCILLATORY
        assert w1.k == pytest.approx(2.0 * math.pi)
        for d in (0.05, 0.17, 0.31):
            assert ws.evaluate(w1, 0.5 + d) == pytest.approx(ws.evaluate(w1, 0.5 - d), abs=1e-12)
        assert ws.gram_matrix([w1, w1])[0, 1] == pytest.approx(1.0, abs=1e-12)
        w2 = step_limit_wave(2)
        assert abs(ws.gram_matrix([w1, w2])[0, 1]) < 1e-12

    def test_step_limit_orthogonal_to_nodal(self):
        cfg = _exact(1, 2, 1e-6)
        wn = ws.build_wave(_first_nodal(cfg, 5.0 * math.pi), cfg)
        assert abs(ws.gram_matrix([step_limit_wave(1), wn])[0, 1]) < 1e-12

    def test_strong_limit_even_about_center(self):
        cfg = _exact(1, 2, 1e-3)
        comp = min(
            (s for s in ws.full_spectrum(cfg, 3.0 * math.pi).entries if s.kind == ws.ORDINARY_POSITIVE),
            key=lambda s: abs(s.k - 2.0 * math.pi),
        )
        w = ws.build_wave(comp, cfg)
        for d in (0.07, 0.19):
            lhs = ws.evaluate(w, 0.5 + d)
            rhs = ws.evaluate(w, 0.5 - d)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
