import pytest

from fbst import ttest_metropolis
from ground_truth import PRIOR_SCALE, two_group_data


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
