import itertools

import numpy as np
import pytest

from hadamard_msr.codec import demo_params, search_params

SMALL_PRIMES = (7, 11, 13, 17, 19, 23, 101, 257, 751)


@pytest.fixture(scope="session")
def demo_k2():
    return demo_params(2)


@pytest.fixture(scope="session")
def demo_k3():
    return demo_params(3)


@pytest.fixture(scope="session")
def searched_params():
    """Parameter sets for k beyond the demo profiles, found once per run."""
    return {k: search_params(k) for k in (4, 5, 6)}


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)


def params_for(k, searched):
    return demo_params(k) if k in (2, 3) else searched[k]


def erasure_patterns(k):
    """Every erasure pattern of at most two nodes, in a fixed order."""
    nodes = range(1, k + 3)
    return [()] + [(x,) for x in nodes] + list(itertools.combinations(nodes, 2))
