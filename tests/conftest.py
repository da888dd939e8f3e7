import math

import numpy as np
import pytest

from fbst import TTestData, ttest_metropolis

PRIOR_SCALE = math.sqrt(2.0) / 2.0


def two_group_data(data_seed: int = 69) -> TTestData:
    """The pinned two-group design: n=18 per group, true effect about -0.33."""
    rng = np.random.default_rng(data_seed)
    return TTestData(group1=rng.normal(0.0, 1.7, 18),
                     group2=rng.normal(0.8, 3.0, 18))


@pytest.fixture(autouse=True)
def draws_cache_dir(tmp_path, monkeypatch):
    """Each test's own cache directory, so no test reads or fills the user's;
    CLI subprocesses inherit it through the environment."""
    home = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "fbst"


@pytest.fixture(scope="session")
def example_chain():
    """One effect-size chain on the pinned dataset, shared across tests."""
    return ttest_metropolis(two_group_data(), PRIOR_SCALE, 100_000, seed=0)
