"""The scenario composites reach the flow regime each draw is tagged with:
every draw is run on the characteristic scheme, so a tag is checked, not
assumed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathtub as bt
from strategies import (CONGESTED, FREE, GRIDLOCK, congested, free_flowing,
                        gridlocking)


@pytest.mark.parametrize("composite", [free_flowing, congested, gridlocking],
                         ids=[FREE, CONGESTED, GRIDLOCK])
@settings(max_examples=8)
@given(data=st.data())
def test_draw_reaches_its_regime(composite, data):
    draw = data.draw(composite())
    traj = bt.solve_characteristic(draw.scenario)
    u = draw.scenario.fd.u
    if draw.regime == FREE:
        assert np.all(traj.v == u)
    elif draw.regime == CONGESTED:
        assert traj.termination is bt.Termination.HORIZON and traj.v.min() < u
    else:
        assert traj.termination is bt.Termination.GRIDLOCK
