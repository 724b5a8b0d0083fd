import numpy as np
import pytest

from gpchannels.channels import sample_cp_eigenvalues


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def cp_sampler():
    """(d, count, rng) -> array of CP eigenvalue vectors, shape (count, d+1)."""
    return sample_cp_eigenvalues
