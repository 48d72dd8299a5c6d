import math

from eitsim.constants import C_LIGHT, EPSILON_0, HBAR, TWO_PI


def test_codata_values():
    assert EPSILON_0 == 8.8541878128e-12
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 2.99792458e8
    assert TWO_PI == 2.0 * math.pi
