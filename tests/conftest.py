import math

import mpmath
import pytest

from kinterp.weights import One, parse_weight


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


@pytest.fixture(scope="session")
def w_one():
    return One()


@pytest.fixture(scope="session")
def w_l02():
    return parse_weight("log(0,-2)")


@pytest.fixture(scope="session")
def w_l03():
    return parse_weight("log(0,-3)")


@pytest.fixture(scope="session")
def w_l01():
    return parse_weight("log(0,-1)")


@pytest.fixture(scope="session")
def w_lm20():
    return parse_weight("log(-2,0)")


@pytest.fixture(scope="session")
def w_lm22():
    return parse_weight("log(-2,-2)")


@pytest.fixture(scope="session")
def far_sup():
    """A weight whose supremum on (1, inf) lies near ln t = 1e6, far outside
    any fixed sampling window, and that supremum from mpmath: the maximum of
    (1+x)^5 exp(-0.01 sqrt(x)), where 5/(1+x) = 0.005/sqrt(x)."""
    with mpmath.workdps(30):
        x = mpmath.findroot(lambda x: 5 / (1 + x) - 0.005 / mpmath.sqrt(x), 1e6)
        value = float((1 + x) ** 5 * mpmath.exp(-0.01 * mpmath.sqrt(x)))
    return parse_weight("mul(log(0,5),pow(explog(0.5),-0.01))"), value


@pytest.fixture
def power_pieces(monkeypatch):
    """(beta, x1, x2) of every power integral the compiled q-norm integrals
    of the weights compute, in call order."""
    from kinterp import weights
    pieces = []
    power_integral = weights.power_integral

    def recorded(beta, x1, x2):
        pieces.append((beta, x1, x2))
        return power_integral(beta, x1, x2)

    monkeypatch.setattr(weights, "power_integral", recorded)
    return pieces
