"""Problem-instance types: reduction, accessors, validation, mirror properties."""

import math
import re

import pytest
from hypothesis import given, strategies as st

from wellspec import (
    DimensionlessConfig,
    PositionOutOfRange,
    RationalPosition,
    reduce_position,
)
from wellspec.model import MIN_COUPLING


class TestReducePosition:
    def test_already_reduced(self):
        pos = reduce_position(2, 5)
        assert (pos.p, pos.n) == (2, 5)

    def test_common_factor(self):
        pos = reduce_position(4, 10)
        assert (pos.p, pos.n) == (2, 5)

    def test_wall_rejected(self):
        with pytest.raises(PositionOutOfRange):
            reduce_position(5, 5)
        with pytest.raises(PositionOutOfRange):
            reduce_position(0, 5)
        with pytest.raises(PositionOutOfRange):
            reduce_position(7, 5)

    @given(st.integers(1, 500), st.integers(2, 500))
    def test_idempotent(self, p, n):
        if p >= n:
            return
        pos = reduce_position(p, n)
        again = reduce_position(pos.p, pos.n)
        assert (again.p, again.n) == (pos.p, pos.n)
        assert math.gcd(pos.p, pos.n) == 1
        assert 0 < pos.p < pos.n

    def test_unreduced_construction_rejected(self):
        with pytest.raises(ValueError):
            RationalPosition(2, 4)


class TestConfigValidation:
    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            DimensionlessConfig.generic(0.3, 0.0)

    def test_nan_coupling_rejected(self):
        with pytest.raises(ValueError):
            DimensionlessConfig.generic(0.3, math.nan)

    @pytest.mark.parametrize("f", [1e-200, -1e-310, 5e-324, -0.99e-154])
    def test_tiny_coupling_rejected(self, f):
        # below 1e-154 the binding energy -1/f^2 overflows, and 1/f too past ~1e-308
        with pytest.raises(ValueError, match=re.escape(f"coupling f={f!r}")):
            DimensionlessConfig.generic(0.3, f)

    @pytest.mark.parametrize("f", [MIN_COUPLING, -MIN_COUPLING, 1e-150])
    def test_smallest_couplings_accepted(self, f):
        assert DimensionlessConfig.generic(0.3, f).f == f

    def test_infinite_coupling_sentinel_accepted(self):
        cfg = DimensionlessConfig.generic(0.3, math.inf)
        assert math.isinf(cfg.f)

    def test_wall_positions_rejected(self):
        for rho in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(PositionOutOfRange):
                DimensionlessConfig.generic(rho, 1.0)

    def test_exact_flag_and_accessors(self):
        cfg = DimensionlessConfig.exact(2, 5, 0.5)
        assert cfg.is_exact
        assert cfg.rho == pytest.approx(0.4)
        assert cfg.lam == pytest.approx(4.0)
        assert cfg.binding_energy == pytest.approx(4.0)
        gen = DimensionlessConfig.generic(0.4, 0.5)
        assert not gen.is_exact

    def test_mismatched_declaration_rejected(self):
        with pytest.raises(ValueError):
            DimensionlessConfig(rho=0.3, f=1.0, rational=RationalPosition(2, 5))
