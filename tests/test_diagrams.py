import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from helpers import brute_force_capacity

TRAP = bt.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=200.0)
TRI = bt.Triangular(u=30.0, w=10.0, kappa=200.0)
GS = bt.Greenshields(u=30.0, kappa=200.0)


class TestSpeed:
    def test_free_flow_limit(self):
        assert bt.speed(TRAP, 0.0) == 30.0

    def test_jam_density(self):
        assert bt.speed(TRAP, 200.0) == 0.0

    def test_capacity_branch(self):
        # direct evaluation of min{30, 750/50, 10(200/50 - 1)}
        assert min(30.0, 750.0 / 50.0, 10.0 * (200.0 / 50.0 - 1.0)) == 15.0
        assert bt.speed(TRAP, 50.0) == 15.0

    def test_beyond_jam_clamps_to_zero(self):
        assert bt.speed(TRAP, 250.0) == 0.0
        assert bt.speed(GS, 300.0) == 0.0

    def test_negative_density_rejected(self):
        for rho in (-1.0, -0.5, np.float64(-0.5)):
            with pytest.raises(bt.DomainError):
                bt.speed(TRAP, rho)
            with pytest.raises(bt.DomainError):
                bt.flow(TRAP, rho)

    @pytest.mark.parametrize("rho", [math.nan, np.array([10.0, math.nan]),
                                     pytest.param(np.float64(math.nan), id="float64-nan"),
                                     math.inf, np.array([10.0, math.inf]),
                                     pytest.param(np.float64(math.inf), id="float64-inf")])
    def test_nan_density_rejected(self, rho):
        # a NaN density passes a plain ``rho < 0`` test and reads as free
        # flow; an infinite one gives flow inf * 0 = nan
        for fd in (TRAP, GS):
            with pytest.raises(bt.DomainError):
                bt.speed(fd, rho)
            with pytest.raises(bt.DomainError):
                bt.flow(fd, rho)

    @pytest.mark.parametrize("fd", [TRAP, TRI, GS])
    def test_non_increasing_on_grid(self, fd):
        rho = np.linspace(0.0, fd.kappa, 1000)
        v = fd.speed(rho)
        assert np.all(np.diff(v) <= 1e-12)


def _bits(v):
    return np.float64(v).tobytes()


def _assert_float_path_matches_array(fd, r):
    # the float path is separate code; it must give the array path's bits
    for rho in (float(r), np.float64(r)):
        for fn in (fd.speed, fd.flow):
            got = fn(rho)
            assert type(got) is float
            assert _bits(got) == _bits(fn(np.array([r]))[0]), (fn.__name__, rho)


class TestFloatPath:
    @pytest.mark.parametrize("fd", [TRAP, TRI, GS], ids=["trap", "tri", "gs"])
    def test_matches_array_path_at_named_densities(self, fd):
        rho_cap = fd.capacity()[1]
        for r in (0.0, 5e-324, 1e-310, rho_cap, np.nextafter(rho_cap, 0.0),
                  np.nextafter(rho_cap, np.inf), fd.kappa / 2.0, fd.kappa,
                  2.0 * fd.kappa, 1e6):
            _assert_float_path_matches_array(fd, r)

    def test_tabulated_laws_keep_the_array_path(self):
        tab = bt.TabulatedSpeed((0.0, 50.0, 200.0), (30.0, 15.0, 0.0))
        step = bt.PiecewiseConstantSpeed(((0.0, 30.0), (50.0, 15.0), (200.0, 0.0)))
        for fd in (tab, step):
            for r in (0.0, 25.0, 50.0, 120.0, 300.0):
                _assert_float_path_matches_array(fd, r)


# module level: a parametrized @given method of a class fails Hypothesis's
# differing_executors health check when its pytest plugin is disabled
@pytest.mark.parametrize("fd", [TRAP, TRI, GS], ids=["trap", "tri", "gs"])
@settings(max_examples=25)
@given(r=st.floats(min_value=0.0, max_value=1e9, allow_subnormal=True))
def test_matches_array_path_on_generated_densities(fd, r):
    _assert_float_path_matches_array(fd, r)


class TestFlow:
    def test_zero_density(self):
        assert bt.flow(GS, 0.0) == 0.0

    def test_gridlock(self):
        assert bt.flow(TRAP, 200.0) == 0.0

    def test_capacity_plateau(self):
        assert bt.flow(TRAP, 50.0) == pytest.approx(750.0)

    @pytest.mark.parametrize("fd", [TRAP, TRI, GS])
    def test_vanishes_at_both_ends(self, fd):
        assert bt.flow(fd, 0.0) == 0.0
        assert bt.flow(fd, fd.kappa) == pytest.approx(0.0, abs=1e-9)


class TestCapacity:
    @pytest.mark.parametrize("fd,C,rho_star", [
        (TRAP, 750.0, 25.0),
        (TRI, 1500.0, 50.0),
        (GS, 1500.0, 100.0),
    ])
    def test_analytic_families(self, fd, C, rho_star):
        got_C, got_rho = bt.capacity(fd)
        assert got_C == pytest.approx(C, rel=1e-12)
        assert got_rho == pytest.approx(rho_star, rel=1e-9)
        oracle_C, oracle_rho = brute_force_capacity(fd, fd.kappa)
        assert got_C == pytest.approx(oracle_C, rel=1e-6)
        assert got_rho == pytest.approx(oracle_rho, abs=fd.kappa * 1e-4)

    def test_dominates_flow_everywhere(self):
        C, rho_star = bt.capacity(TRAP)
        rho = np.linspace(0.0, 200.0, 1000)
        assert np.all(TRAP.flow(rho) <= C + 1e-9)
        assert bt.flow(TRAP, rho_star) == pytest.approx(C)

    def test_tabulated_capacity_matches_grid_scan(self):
        fd = bt.TabulatedSpeed(densities=(0.0, 25.0, 100.0, 200.0),
                               speeds=(30.0, 30.0, 10.0, 0.0))
        got_C, _ = bt.capacity(fd)
        oracle_C, _ = brute_force_capacity(fd, 200.0)
        assert got_C == pytest.approx(oracle_C, rel=1e-6)

    def test_step_diagram_capacity(self):
        fd = bt.PiecewiseConstantSpeed(breakpoints=((0.0, 30.0), (50.0, 10.0),
                                                    (150.0, 2.0)))
        got_C, _ = bt.capacity(fd)
        oracle_C, _ = brute_force_capacity(fd, 150.0)
        # supremum sits at an open interval edge; the scan resolves it
        assert got_C == pytest.approx(oracle_C, rel=1e-3)


class TestFlowSlopeSign:
    def test_rising_branch(self):
        assert bt.flow_slope_sign(GS, 50.0) == 1

    def test_hypercongested_branch(self):
        assert bt.flow_slope_sign(GS, 150.0) == -1

    def test_capacity_point(self):
        assert bt.flow_slope_sign(GS, 100.0) == 0

    def test_boundaries_do_not_raise(self):
        assert bt.flow_slope_sign(GS, 0.0) == 1
        assert bt.flow_slope_sign(GS, 200.0) == -1


class TestTrapezoidalDegeneracy:
    def test_high_cap_reduces_to_triangular(self):
        # cap above u*w*kappa/(u+w) never binds
        cap = 30.0 * 10.0 * 200.0 / 40.0
        fat = bt.Trapezoidal(u=30.0, C=cap * 1.5, w=10.0, kappa=200.0)
        rho = np.linspace(0.0, 200.0, 1000)
        assert np.max(np.abs(fat.speed(rho) - TRI.speed(rho))) < 1e-12
        assert fat.capacity() == pytest.approx(TRI.capacity())


class TestStepAndTable:
    def test_step_intervals_closed_on_left(self):
        fd = bt.PiecewiseConstantSpeed(breakpoints=((0.0, 30.0), (5.0, 20.0),
                                                    (10.0, 8.0)))
        assert fd.speed(4.999) == 30.0
        assert fd.speed(5.0) == 20.0
        assert fd.speed(10.0) == 8.0
        assert fd.speed(50.0) == 8.0

    def test_increasing_speed_rejected_without_override(self):
        with pytest.raises(bt.DataError):
            bt.TabulatedSpeed(densities=(0.0, 10.0), speeds=(10.0, 20.0))
        fd = bt.TabulatedSpeed(densities=(0.0, 10.0), speeds=(10.0, 20.0),
                               allow_increasing=True)
        assert fd.speed(5.0) == 15.0

    def test_table_clamps_beyond_last_sample(self):
        fd = bt.TabulatedSpeed(densities=(0.0, 100.0), speeds=(30.0, 5.0))
        assert fd.speed(400.0) == 5.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(bt.DomainError):
            bt.Trapezoidal(u=30.0, C=750.0, w=10.0, kappa=-5.0)
        with pytest.raises(bt.DataError):
            bt.PiecewiseConstantSpeed(breakpoints=((1.0, 30.0), (2.0, 10.0)))


class TestExtendedSpeed:
    def test_zero_alpha_reduces_to_base(self):
        esr = bt.BoardingDelaySpeed(TRAP, alpha=0.0, lane_miles=10.0)
        for rho in (0.0, 50.0, 120.0):
            assert bt.extended_speed(esr, rho, 500.0, 2000.0, 1500.0) == \
                TRAP.speed(rho)

    def test_zero_flux_factor_is_one(self):
        esr = bt.BoardingDelaySpeed(TRAP, alpha=0.001, lane_miles=10.0)
        assert bt.extended_speed(esr, 50.0, 100.0, 0.0, 0.0) == 15.0

    def test_boarding_delay_halves_speed(self):
        esr = bt.BoardingDelaySpeed(TRAP, alpha=0.001, lane_miles=10.0)
        assert bt.extended_speed(esr, 50.0, 100.0, 5000.0, 5000.0) == \
            pytest.approx(7.5)

    def test_negative_inputs_rejected(self):
        esr = bt.BoardingDelaySpeed(TRAP, alpha=0.001, lane_miles=10.0)
        with pytest.raises(bt.DomainError):
            bt.extended_speed(esr, 50.0, -1.0, 0.0, 0.0)
