import numpy as np
import pytest
from hypothesis import given, settings

from bathtub import DataError, PiecewiseLinear
from helpers import assert_same_bits, reference_integral, riemann_integral
from strategies import piecewise_profiles


def test_interpolates_between_nodes():
    pl = PiecewiseLinear([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
    assert pl(0.5) == 1.0
    assert pl(2.0) == 1.0
    assert pl(1.0) == 2.0


def test_clamp_extension_holds_end_values():
    pl = PiecewiseLinear([1.0, 2.0], [3.0, 5.0], extend="clamp")
    assert pl(0.0) == 3.0
    assert pl(10.0) == 5.0


def test_zero_extension_vanishes_outside():
    pl = PiecewiseLinear([1.0, 2.0], [3.0, 5.0], extend="zero")
    assert pl(0.5) == 0.0
    assert pl(2.5) == 0.0
    assert pl(1.5) == 4.0


@pytest.mark.parametrize("extend", ["zero", "clamp"])
def test_integral_matches_quadrature(extend):
    pl = PiecewiseLinear([0.5, 1.0, 2.0, 2.5], [1.0, 3.0, 3.0, 0.0],
                         extend=extend)
    for t in (0.3, 0.75, 1.7, 2.5, 4.0):
        oracle = riemann_integral(pl, 0.0, t, n=100_000)
        # quadrature smears the zero-extension jump over one sample cell
        assert pl.integral(t) == pytest.approx(oracle, abs=1e-4)


def test_integral_of_negative_time_is_zero():
    pl = PiecewiseLinear([0.0, 1.0], [2.0, 2.0])
    assert pl.integral(-1.0) == 0.0


def test_rejects_unsorted_nodes():
    with pytest.raises(DataError):
        PiecewiseLinear([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(DataError):
        PiecewiseLinear([0.0, 1.0], [0.0, float("nan")])


def test_vectorized_evaluation():
    pl = PiecewiseLinear([0.0, 2.0], [0.0, 4.0], extend="zero")
    out = pl(np.array([-1.0, 1.0, 3.0]))
    assert np.array_equal(out, np.array([0.0, 2.0, 0.0]))


@pytest.mark.parametrize("extend", ["zero", "clamp"])
def test_float_path_matches_array_path(extend):
    # the float path mirrors np.interp; compare bits, not values
    profiles = [PiecewiseLinear([0.0, 0.4, 0.6, 1.0], [2.0, 5.0, 5.0, 2.0], extend=extend),
                PiecewiseLinear([-1.5, 0.1, 0.7, 3.0], [0.3, 1e-3, 7.25, 0.0], extend=extend),
                PiecewiseLinear([2.0], [4.5], extend=extend)]
    for pl in profiles:
        x = pl.x
        pts = [*x, *(0.5 * (x[1:] + x[:-1])), *np.nextafter(x, -np.inf),
               *np.nextafter(x, np.inf), x[0] - 1.0, x[-1] + 1.0, -1e300, 1e300]
        array = pl(np.asarray(pts))
        for t, want in zip(pts, array):
            for arg in (float(t), np.float64(t)):
                got = pl(arg)
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes(), (extend, t)


@pytest.mark.parametrize("x, y, t, exact", [
    ([-2.0, -1.0], [1.0, 1.0], 1.0, 1.0),
    ([-2.0, -1.0], [1.0, 3.0], 2.0, 6.0),
    ([-3.0], [2.5], 4.0, 10.0),
    ([-2.0, 0.0], [1.0, 3.0], 2.0, 6.0),
    ([-2.0, 2.0], [1.0, 3.0], 3.0, 0.5 * (2.0 + 3.0) * 2.0 + 3.0),
])
def test_clamp_integral_with_nodes_before_zero(x, y, t, exact):
    # only [0, t] counts, however far before 0 the nodes lie
    assert PiecewiseLinear(x, y, extend="clamp").integral(t) == pytest.approx(exact, rel=1e-15)


@settings(max_examples=25)
@given(pl=piecewise_profiles)
def test_integral_matches_the_min_max_reference(pl):
    # t on the nodes, between them, just either side, and before 0 and past
    # the last node; the deterministic march reads the cumulative inflow here
    x = pl.x
    ts = [*x, *(0.5 * (x[1:] + x[:-1])), *np.nextafter(x, -np.inf),
          *np.nextafter(x, np.inf), x[0] - 1.0, x[-1] + 1.0, 0.0, 1e-3]
    for t in ts:
        got = pl.integral(float(t))
        assert type(got) is float
        assert_same_bits(got, reference_integral(pl, float(t)))
