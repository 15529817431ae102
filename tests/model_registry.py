"""The models under test: one registry, and the one contract in
test_models.py runs every case over each entry.

An entry is a factory, a point and a seed. A network entry is checked
at its reference element, the canonical positions with identity
rotations; every other entry at random_element(descriptor,
default_rng(seed), 0.4). A contract case draws everything else from the
same stream, so a new model or formula gets every check from one added
line here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from homcrb import groups
from homcrb.models import GaussianMeanModel, LandmarkModel, NetworkModel, SpdModel


def geometric_graph(seed, n, side, radius, sigma) -> dict:
    """A network config section: n agents uniform on [0, side]^2 from
    default_rng(seed), an edge [i, j] for each pair closer than radius,
    one sigma for every edge. Lists throughout, as JSON reads them back."""
    p = np.random.default_rng(seed).uniform(0.0, side, (n, 2))
    dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    edges = [[i, j] for i in range(n) for j in range(i + 1, n) if dist[i, j] < radius]
    return {"positions": p.tolist(), "edges": edges, "sigmas": sigma}


def random_point(model, rng):
    return groups.random_element(model.descriptor, rng, 0.4)


def reference_point(model, rng):
    return model.reference_element()


@dataclass(frozen=True)
class Entry:
    factory: Callable
    point: Callable  # (model, rng) -> the GroupElement the contract checks at
    seed: int


REGISTRY = {
    "landmark1": Entry(lambda: LandmarkModel([[1.0, 0.0, 0.0]]), random_point, 1),
    "landmark2": Entry(
        lambda: LandmarkModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.3]], noise=[0.5, 2.0]),
        random_point, 2,
    ),
    "landmark3": Entry(
        lambda: LandmarkModel(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.3], [-0.4, 0.2, 1.1]], noise=[1.0, 0.3, 0.7]
        ),
        random_point, 3,
    ),
    "triangle_network": Entry(
        lambda: NetworkModel(
            [[0.0, 0.0], [0.0, 1.0], [0.9, 0.6]], [(0, 1), (1, 2), (0, 2)], [0.2, 0.3, 0.45]
        ),
        reference_point, 4,
    ),
    # test_golden's network campaigns.
    "seed30_network": Entry(
        lambda: NetworkModel(**geometric_graph(30, 30, 3.0, 1.5, 0.1)), reference_point, 5
    ),
    # perfbench's network workload and criterion 13.
    "benchmark16_network": Entry(
        lambda: NetworkModel(**geometric_graph(3, 16, 1.0, 0.6, 0.1)), reference_point, 6
    ),
    "spd2": Entry(lambda: SpdModel(2), random_point, 7),
    "spd3": Entry(lambda: SpdModel(3), random_point, 8),
    "gaussian1": Entry(lambda: GaussianMeanModel(1), random_point, 9),
    "gaussian2": Entry(lambda: GaussianMeanModel(2, noise=0.7), random_point, 10),
}


def instance(name):
    """(model, point, rng) of a registry entry: a fresh model, and the
    entry's stream after the point is drawn from it."""
    entry = REGISTRY[name]
    rng = np.random.default_rng(entry.seed)
    model = entry.factory()
    return model, entry.point(model, rng), rng
