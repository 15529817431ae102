import numpy as np
import pytest
from hypothesis import settings

from homcrb import groups
from homcrb.models import GaussianMeanModel, LandmarkModel, NetworkModel, SpdModel

# Property tests draw the same examples on every run of the same code,
# so a test cannot pass on one run and fail on the next; each module
# sets its own max_examples.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def built_elements(monkeypatch):
    """A one-item list counting the GroupElements built from here on."""
    count = [0]
    validate = groups.GroupElement.__post_init__

    def counted(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(groups.GroupElement, "__post_init__", counted)
    return count


@pytest.fixture
def draw_h():
    """draw_h(struct, rng): one draw from struct's H as a GroupElement,
    row 0 of a one-row sample_subgroup stack."""

    def draw(struct, rng):
        return groups.GroupElement(struct.group, struct.sample_subgroup(rng, 1)[0])

    return draw


@pytest.fixture(scope="session")
def landmark_one():
    return LandmarkModel([[1.0, 0.0, 0.0]])


@pytest.fixture(scope="session")
def landmark_two():
    return LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]])


@pytest.fixture(scope="session")
def triangle_network():
    return NetworkModel(
        [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], 0.3
    )


@pytest.fixture(scope="session")
def spd3():
    return SpdModel(3)


@pytest.fixture(scope="session")
def gaussian1():
    return GaussianMeanModel(1)


class ReplicatedModel:
    """Treat r i.i.d. draws of a base model as one joint observation;
    its FIM is r times the single-draw FIM (test oracle for the sum
    rule)."""

    def __init__(self, base, r):
        self.base = base
        self.r = r
        self.descriptor = base.descriptor
        self.struct = base.struct
        self.side = base.side

    def sample(self, g, m, rng):
        draws = self.base.sample(g, m * self.r, rng)
        return draws.reshape((m, self.r) + draws.shape[1:])

    def loglik_batch(self, observations, g):
        x = np.asarray(observations, dtype=float)
        flat = x.reshape((-1,) + x.shape[2:])
        return self.base.loglik_batch(flat, g).reshape(x.shape[0], self.r).sum(axis=1)

    def analytic_gradient_batch(self, observations, g, directions):
        x = np.asarray(observations, dtype=float)
        flat = x.reshape((-1,) + x.shape[2:])
        grads = self.base.analytic_gradient_batch(flat, g, directions)
        return grads.reshape(x.shape[0], self.r, -1).sum(axis=1)

    def natural_fim(self, G, directions):
        return self.r * self.base.natural_fim(G, directions)

    def _as_batch(self, x):
        return np.asarray(x, dtype=float)[None, ...]


@pytest.fixture
def replicate():
    return ReplicatedModel
