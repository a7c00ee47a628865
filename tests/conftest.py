import os

import numpy as np
import pytest

from gpembed.dataset import from_arrays, load_csv
from gpembed.evolution import EvolutionConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WINE_CSV = os.path.join(REPO_ROOT, "data", "wine.csv")


@pytest.fixture(scope="session")
def wine_dataset():
    return load_csv(WINE_CSV, label_column="class")


@pytest.fixture
def random_dataset():
    """50 random points in 6-D, labelled arbitrarily."""
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(50, 6))
    labels = ["a" if i % 2 == 0 else "b" for i in range(50)]
    return from_arrays(X, labels=labels)


def small_config(**kwargs) -> EvolutionConfig:
    """EvolutionConfig for desk-size tests: neighbourhood clamped to the population."""
    population = kwargs.get("population_size", EvolutionConfig.population_size)
    neighbourhood = kwargs.get("moead_neighbourhood", EvolutionConfig.moead_neighbourhood)
    return EvolutionConfig(**{**kwargs, "moead_neighbourhood": min(neighbourhood, population)})


def make_clusters(n_per_cluster, n_features, n_clusters, seed, spread=0.5, separation=10.0):
    """Gaussian blobs around randomly drawn centers, with string labels."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, separation, size=(n_clusters, n_features))
    rows = []
    labels = []
    for c in range(n_clusters):
        rows.append(centers[c] + rng.normal(0.0, spread, size=(n_per_cluster, n_features)))
        labels.extend([f"cluster_{c}"] * n_per_cluster)
    return np.vstack(rows), labels


def make_separated_clusters(n_per_cluster, n_features, n_clusters, seed,
                            sigma=1.0, separation=10.0):
    """Gaussian blobs with centers exactly `separation * sigma` apart on axis 0."""
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for c in range(n_clusters):
        center = np.zeros(n_features)
        center[0] = c * separation * sigma
        rows.append(center + rng.normal(0.0, sigma, size=(n_per_cluster, n_features)))
        labels.extend([f"cluster_{c}"] * n_per_cluster)
    return np.vstack(rows), labels
