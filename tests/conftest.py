import math

import pytest

from complement_opt import Objective, curve, make_config


@pytest.fixture(scope="session")
def strong():
    return make_config(4.0, 2.0 * math.pi, 20)


@pytest.fixture(scope="session")
def weak():
    return make_config(0.25, 2.0 * math.pi, 20)


@pytest.fixture(scope="session")
def optimized_curves(strong, weak):
    """Optimized curves for both presets and all objectives, shared by the
    acceptance criteria that read different aspects of the same runs."""
    configs = {"strong": strong, "weak": weak}
    return {
        (name, objective): curve(cfg, objective, 20)
        for name, cfg in configs.items()
        for objective in Objective
    }
