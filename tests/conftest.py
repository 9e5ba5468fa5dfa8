import numpy as np
import pytest

from limsupdim import Cantor, Circle, Interval, ProductSpace, mc


@pytest.fixture(autouse=True)
def cold_fiber_memo():
    """Each test starts with no fiber-sum curves in memory, so every fiber
    sum walks its expectation curves unless the test warms the memo."""
    mc._last_curves = None


@pytest.fixture
def interval():
    return Interval()


@pytest.fixture
def circle():
    return Circle()


@pytest.fixture
def cantor_third():
    return Cantor(1.0 / 3.0)


@pytest.fixture
def torus2():
    return ProductSpace((Circle(), Circle()))


@pytest.fixture
def unit_square():
    return ProductSpace((Interval(), Interval()))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
