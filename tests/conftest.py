import numpy as np
import pytest

import isingbm.model
from isingbm.mock_server import MockAnnealerServer


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def mock_server():
    with MockAnnealerServer(beta=2.0, seed=11) as server:
        yield server


@pytest.fixture
def enumeration_cap(monkeypatch):
    """Setter for the enumeration cap, restored after the test: a small cap
    reaches the paths past it on machines that are cheap to enumerate."""

    def set_cap(cap: int) -> None:
        monkeypatch.setattr(isingbm.model, "ENUMERATION_CAP", cap)

    return set_cap
