from __future__ import annotations

import sys

import numpy as np
import pytest

from chamferlab import PointCloud, cloud


def brute_force_nearest(points: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Reference nearest-neighbor scan: first minimum wins ties."""
    diff = points - q
    sq = (diff * diff).sum(axis=1)
    i = int(np.argmin(sq))
    return i, float(np.sqrt(sq[i]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)


@pytest.fixture
def nn_calls(monkeypatch) -> list[int]:
    """Row counts of the nearest_neighbors passes made through any chamferlab module."""
    calls: list[int] = []
    original = cloud.nearest_neighbors

    def counted(queries, *args, **kwargs):
        calls.append(len(queries))
        return original(queries, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chamferlab" and getattr(module, "nearest_neighbors", None) is original:
            monkeypatch.setattr(module, "nearest_neighbors", counted)
    return calls


def random_cloud(rng: np.random.Generator, n: int, dim: int = 3, scale: float = 1.0) -> PointCloud:
    return PointCloud(scale * rng.random((n, dim)))
