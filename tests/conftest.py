"""Fixtures shared by the test modules: the constellation, the default
input map and the two analog presets, each built once per module."""

import pytest

from demapsim.analog import build_demapper
from demapsim.calibration import input_map
from demapsim.constellation import build_pam8


@pytest.fixture(scope="module")
def c():
    return build_pam8()


@pytest.fixture(scope="module")
def imap(c):
    return input_map(c, 0.04, 0.60)


@pytest.fixture(scope="module")
def bjt(c, imap):
    return build_demapper(c, imap, "analog-bjt")


@pytest.fixture(scope="module")
def mosfet(c, imap):
    return build_demapper(c, imap, "analog-mosfet")
