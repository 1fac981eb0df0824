import os

import pytest
from hypothesis import settings

from knopf.exactalg import FieldSpec

# `pytest --hypothesis-profile=ci` draws every test's examples from the test
# itself instead of a random seed, so a failure in CI reproduces locally with
# the same command; each test keeps its own max_examples
settings.register_profile("ci", derandomize=True)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def data_dir() -> str:
    return DATA


@pytest.fixture
def QQ() -> FieldSpec:
    return FieldSpec.rationals()


@pytest.fixture(params=[2, 3, 5])
def Fp(request) -> FieldSpec:
    return FieldSpec.prime(request.param)
