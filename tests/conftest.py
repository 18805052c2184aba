import random

import numpy as np
import pytest

from generators import (c2_swap_instance, m2m2_swap_instance,
                        nonstrong_instance, qubit_instance)


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


@pytest.fixture
def probe_rng():
    """The standard-library generator that qistate's random probes take."""
    return random.Random(20240229)


@pytest.fixture(scope="session")
def qubit():
    return qubit_instance()


@pytest.fixture(scope="session")
def c2_swap():
    return c2_swap_instance()


@pytest.fixture(scope="session")
def m2m2_swap():
    return m2m2_swap_instance()


@pytest.fixture(scope="session")
def nonstrong():
    return nonstrong_instance()
