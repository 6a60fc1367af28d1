from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from chamferlab import (
    FcdWeights,
    PointCloud,
    ScheduleSpec,
    UncertaintyState,
    cloud,
    fcd,
    schedule_weights,
)


def brute_force_nearest(points: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """Reference nearest-neighbor scan: first minimum wins ties."""
    diff = points - q
    sq = (diff * diff).sum(axis=1)
    i = int(np.argmin(sq))
    return i, float(np.sqrt(sq[i]))


@dataclass(frozen=True)
class StageLossSpec:
    """Predicted/target cloud pairs for the coarse stages plus the fine stage."""

    coarse_pairs: tuple[tuple[PointCloud, PointCloud], ...]
    fine_pair: tuple[PointCloud, PointCloud]
    epoch: int


def multi_stage_loss(
    spec: StageLossSpec,
    schedule: ScheduleSpec,
    r: int = 1,
    state: UncertaintyState | None = None,
) -> float:
    """Sum of stage losses: coarse stages at fixed (tau, theta), fine stage scheduled.

    The coarse stages always use the static weight pair regardless of the fine
    schedule; with no coarse pairs this reduces to the fine loss alone.
    """
    coarse_weights = FcdWeights(alpha=schedule.tau, beta=schedule.theta)
    total = 0.0
    for pred, target in spec.coarse_pairs:
        total += fcd(pred, target, coarse_weights, r)
    fine_weights = schedule_weights(schedule, spec.epoch, state)
    pred, target = spec.fine_pair
    total += fcd(pred, target, fine_weights, r)
    return total


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)


@pytest.fixture
def nn_calls(monkeypatch) -> list[int]:
    """Row counts of the nearest-neighbour passes, counted where the work is done: each
    ``NNIndex.query_many`` (every kd-tree search) and each direction a ``Matching``
    reads from its block with ``cloud._nearest_in_block``."""
    calls: list[int] = []
    query_many, in_block = cloud.NNIndex.query_many, cloud._nearest_in_block

    def counted_query_many(self, queries):
        calls.append(len(queries))
        return query_many(self, queries)

    def counted_in_block(sq, axis):
        calls.append(sq.shape[1 - axis])
        return in_block(sq, axis)

    monkeypatch.setattr(cloud.NNIndex, "query_many", counted_query_many)
    monkeypatch.setattr(cloud, "_nearest_in_block", counted_in_block)
    return calls


@pytest.fixture
def index_builds(monkeypatch) -> list[PointCloud]:
    """The clouds that ``cloud.build_index`` builds a kd-tree over, one entry per build."""
    built: list[PointCloud] = []
    build_index = cloud.build_index

    def counted(target):
        built.append(target)
        return build_index(target)

    monkeypatch.setattr(cloud, "build_index", counted)
    return built


def random_cloud(rng: np.random.Generator, n: int, dim: int = 3, scale: float = 1.0) -> PointCloud:
    return PointCloud(scale * rng.random((n, dim)))
