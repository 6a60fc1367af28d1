"""Direct gradient descent of free point coordinates against a target cloud,
including the coarse-to-fine supervised variant."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import Matching, PointCloud, subsample
from .errors import DivergenceError, InvalidInputError
from .metrics import EMD_EXACT_MAX, cd_global, cd_local, chamfer_l1, dcd, emd_exact
from .objective import (
    FcdWeights,
    ScheduleSpec,
    UncertaintyState,
    dcd_gradient,
    fcd,
    fcd_gradient,
    schedule_weights,
    uncertainty_loss,
)

DIVERGENCE_FACTOR = 1e6
OBJECTIVE_KINDS = ("cd-l1", "cd-l2", "fcd", "dcd-loss")

TRACE_COLUMNS = ("epoch", "objective", "alpha", "beta", "cd_l1", "dcd", "emd", "grad_max")


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain / momentum gradient-descent settings."""

    steps: int
    step_size: float
    update_rule: str = "plain"
    momentum_coeff: float = 0.0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidInputError(f"steps must be >= 1, got {self.steps}")
        if self.step_size <= 0:
            raise InvalidInputError(f"step_size must be positive, got {self.step_size}")
        if self.update_rule not in ("plain", "momentum"):
            raise InvalidInputError(f"unknown update rule {self.update_rule!r}")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise InvalidInputError(f"momentum_coeff must lie in [0, 1), got {self.momentum_coeff}")
        if self.record_every < 1:
            raise InvalidInputError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which loss drives the descent.

    cd-l1 and cd-l2 are the symmetric Chamfer conventions (weights (1/2, 1/2)
    with plain distances, and (1, 1) with squared distances, respectively);
    fcd takes explicit weights or a schedule; dcd-loss descends the
    density-aware distance directly.
    """

    kind: str
    weights: FcdWeights | None = None
    r: int = 1
    dcd_temperature: float = 1000.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidInputError(f"unknown objective kind {self.kind!r}")
        if self.r not in (1, 2):
            raise InvalidInputError(f"distance order r must be 1 or 2, got {self.r}")
        if self.dcd_temperature <= 0:
            raise InvalidInputError("dcd_temperature must be positive")

    def resolved(self) -> tuple[FcdWeights | None, int]:
        """Fixed (weights, r) for this objective, or (None, r) when scheduled."""
        if self.kind == "cd-l1":
            return FcdWeights(0.5, 0.5), 1
        if self.kind == "cd-l2":
            return FcdWeights(1.0, 1.0), 2
        if self.kind == "fcd":
            return self.weights, self.r
        return None, 1  # dcd-loss


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    objective: float
    alpha: float
    beta: float
    cd_l1: float
    dcd: float
    emd: float
    grad_max: float


@dataclass
class OptimizationTrace:
    """Per-step record of objective, weights, snapshot metrics, and gradient size."""

    records: list[TraceRecord]

    def to_csv(self) -> str:
        lines = [",".join(TRACE_COLUMNS)]
        for rec in self.records:
            lines.append(
                ",".join(
                    [str(rec.epoch)]
                    + [
                        repr(float(v))
                        for v in (
                            rec.objective,
                            rec.alpha,
                            rec.beta,
                            rec.cd_l1,
                            rec.dcd,
                            rec.emd,
                            rec.grad_max,
                        )
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


@dataclass(frozen=True)
class HierarchySpec:
    """Parametric coarse-to-fine cloud: each coarse point carries m children.

    The fine cloud is the union of (coarse point + child offset); offsets are
    free variables initialized near zero.
    """

    coarse_count: int
    children_per_coarse: int
    offset_scale: float = 1e-3

    def __post_init__(self):
        if self.coarse_count < 1 or self.children_per_coarse < 1:
            raise InvalidInputError("hierarchy sizes must be >= 1")
        if self.offset_scale < 0:
            raise InvalidInputError("offset_scale must be >= 0")

    @property
    def fine_count(self) -> int:
        return self.coarse_count * self.children_per_coarse


def support_pinning(cloud: PointCloud, pinned) -> np.ndarray:
    """Validate pin indices against a cloud; pinned points never move."""
    idx = np.unique(np.asarray(list(pinned), dtype=np.intp).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= len(cloud)):
        raise InvalidInputError(f"pinned indices out of range for cloud of size {len(cloud)}")
    return idx


def _snapshot(epoch: int, value: float, weights: FcdWeights, grads: tuple[np.ndarray, ...],
              p: PointCloud, target: PointCloud, seed: int) -> TraceRecord:
    """Trace record at p; its snapshot metrics share one matching of (p, target)."""
    m = Matching(p, target)
    return TraceRecord(
        epoch=epoch,
        objective=value,
        alpha=weights.alpha,
        beta=weights.beta,
        cd_l1=chamfer_l1(p, target, matching=m),
        dcd=dcd(p, target, matching=m),
        emd=_snapshot_emd(p, target, seed),
        grad_max=max(float(np.linalg.norm(g, axis=1).max()) if g.size else 0.0 for g in grads),
    )


def _snapshot_emd(p: PointCloud, target: PointCloud, seed: int) -> float:
    if len(p) == len(target) and len(p) <= EMD_EXACT_MAX:
        return emd_exact(p, target)
    k = min(128, len(p), len(target))
    return emd_exact(
        subsample(p, k, "random", seed),
        subsample(target, k, "random", seed),
    )


class _Loss:
    """Objective value / gradient / weight resolution for one optimization run."""

    def __init__(self, objective: ObjectiveSpec, schedule: ScheduleSpec | None):
        self.objective = objective
        self.schedule = schedule
        self.state: UncertaintyState | None = None
        fixed_weights, self.r = objective.resolved()
        if objective.kind == "fcd":
            if schedule is None and fixed_weights is None:
                raise InvalidInputError("fcd objective needs explicit weights or a schedule")
            self.r = objective.r
            if schedule is not None and schedule.kind == "uncertainty":
                self.state = UncertaintyState.initial(schedule.tau, schedule.theta)
        elif schedule is not None:
            raise InvalidInputError(f"objective kind {objective.kind!r} does not take a schedule")
        self.fixed_weights = fixed_weights

    def weights_at(self, epoch: int) -> FcdWeights:
        if self.objective.kind == "dcd-loss":
            return FcdWeights(0.5, 0.5)  # the two directional terms carry 1/2 each
        if self.objective.kind == "fcd" and self.schedule is not None:
            clamped = min(epoch, self.schedule.T)
            return schedule_weights(self.schedule, clamped, self.state)
        return self.fixed_weights

    def value_grad(self, points: np.ndarray, target: PointCloud, epoch: int):
        """Returns (objective, point gradient, weights, state gradient or None)."""
        p = PointCloud(points)
        m = Matching(p, target)
        weights = self.weights_at(epoch)
        if self.objective.kind == "dcd-loss":
            temp = self.objective.dcd_temperature
            value = dcd(p, target, temp, matching=m)
            return value, dcd_gradient(p, target, temp, matching=m), weights, None
        if self.state is not None:
            local = cd_local(p, target, self.r, matching=m)
            glob = cd_global(p, target, self.r, matching=m)
            total, state_grad = uncertainty_loss(local, glob, self.state)
            grad = fcd_gradient(p, target, weights, self.r, matching=m)
            return total, grad, weights, state_grad
        value = fcd(p, target, weights, self.r, matching=m)
        return value, fcd_gradient(p, target, weights, self.r, matching=m), weights, None


def optimize(
    init: PointCloud,
    target: PointCloud,
    objective: ObjectiveSpec,
    config: OptimizerConfig,
    schedule: ScheduleSpec | None = None,
    pinned=None,
) -> tuple[PointCloud, OptimizationTrace]:
    """Descend free point coordinates against a target cloud.

    Nearest-neighbor assignments (and scheduled weights) are recomputed every
    step; pinned points receive zero update. Runs are deterministic for a
    fixed config. Raises DivergenceError if the objective exceeds 1e6 times
    its initial value.
    """
    if init.dim != target.dim:
        raise InvalidInputError(f"dimension mismatch: {init.dim} vs {target.dim}")
    pin_idx = support_pinning(init, pinned) if pinned is not None else np.empty(0, dtype=np.intp)
    loss = _Loss(objective, schedule)

    x = init.points.copy()
    velocity = np.zeros_like(x)
    records: list[TraceRecord] = []
    initial_value: float | None = None

    def record(epoch: int, value: float, weights: FcdWeights, grad: np.ndarray) -> None:
        snap = PointCloud(x)
        records.append(_snapshot(epoch, value, weights, (grad,), snap, target, config.seed))

    for step in range(config.steps):
        value, grad, weights, state_grad = loss.value_grad(x, target, step)
        if initial_value is None:
            initial_value = value
        if not np.isfinite(value):
            raise DivergenceError(f"objective became non-finite at step {step}")
        if value > DIVERGENCE_FACTOR * max(initial_value, 1e-12):
            raise DivergenceError(
                f"objective {value:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x initial "
                f"{initial_value:.3e} at step {step}"
            )
        if step % config.record_every == 0:
            record(step, value, weights, grad)

        if pin_idx.size:
            grad[pin_idx] = 0.0
        if config.update_rule == "momentum":
            velocity = config.momentum_coeff * velocity + grad
            x = x - config.step_size * velocity
        else:
            x = x - config.step_size * grad
        if loss.state is not None and state_grad is not None:
            loss.state = UncertaintyState(
                s_local=loss.state.s_local - config.step_size * state_grad[0],
                s_global=loss.state.s_global - config.step_size * state_grad[1],
            )
        if not np.isfinite(x).all():
            raise DivergenceError(f"coordinates became non-finite at step {step}")

    value, grad, weights, _ = loss.value_grad(x, target, config.steps)
    record(config.steps, value, weights, grad)
    return PointCloud(x), OptimizationTrace(records)


def optimize_hierarchical(
    init_coarse: PointCloud,
    hierarchy: HierarchySpec,
    target: PointCloud,
    schedule: ScheduleSpec,
    config: OptimizerConfig,
    r: int = 1,
    freeze_offsets: bool = False,
) -> tuple[PointCloud, PointCloud, OptimizationTrace]:
    """Coarse-to-fine descent: a coarse skeleton plus per-point child offsets.

    The coarse cloud is supervised against a farthest-point subsample of the
    target with static (tau, theta) weights; the fine cloud (coarse points
    plus offsets) is supervised against the full target with the scheduled
    weights. Coarse coordinates and offsets descend jointly.
    """
    if len(init_coarse) != hierarchy.coarse_count:
        raise InvalidInputError(
            f"init_coarse has {len(init_coarse)} points, hierarchy expects {hierarchy.coarse_count}"
        )
    if init_coarse.dim != target.dim:
        raise InvalidInputError(f"dimension mismatch: {init_coarse.dim} vs {target.dim}")
    if hierarchy.coarse_count > len(target):
        raise InvalidInputError("coarse_count exceeds target size")

    coarse_target = subsample(target, hierarchy.coarse_count, "farthest-point", config.seed)
    coarse_weights = FcdWeights(schedule.tau, schedule.theta)
    m = hierarchy.children_per_coarse

    rng = np.random.default_rng(config.seed)
    coarse = init_coarse.points.copy()
    offsets = hierarchy.offset_scale * rng.standard_normal((hierarchy.fine_count, init_coarse.dim))

    state = UncertaintyState.initial(schedule.tau, schedule.theta) if schedule.kind == "uncertainty" else None
    records: list[TraceRecord] = []
    initial_value: float | None = None

    def fine_points() -> np.ndarray:
        return np.repeat(coarse, m, axis=0) + offsets

    def evaluate(epoch: int):
        nonlocal state
        clamped = min(epoch, schedule.T)
        fine_weights = schedule_weights(schedule, clamped, state)
        coarse_cloud = PointCloud(coarse)
        fine_cloud = PointCloud(fine_points())
        coarse_m = Matching(coarse_cloud, coarse_target)
        fine_m = Matching(fine_cloud, target)
        value = fcd(coarse_cloud, coarse_target, coarse_weights, r, matching=coarse_m) + fcd(
            fine_cloud, target, fine_weights, r, matching=fine_m
        )
        grad_coarse = fcd_gradient(
            coarse_cloud, coarse_target, coarse_weights, r, matching=coarse_m
        )
        grad_fine = fcd_gradient(fine_cloud, target, fine_weights, r, matching=fine_m)
        # children chain back onto their coarse parent
        total_coarse = grad_coarse + grad_fine.reshape(hierarchy.coarse_count, m, -1).sum(axis=1)
        return value, total_coarse, grad_fine, fine_weights

    for step in range(config.steps):
        value, grad_coarse, grad_fine, fine_weights = evaluate(step)
        if initial_value is None:
            initial_value = value
        if not np.isfinite(value):
            raise DivergenceError(f"objective became non-finite at step {step}")
        if value > DIVERGENCE_FACTOR * max(initial_value, 1e-12):
            raise DivergenceError(f"objective diverged at step {step}")
        if step % config.record_every == 0:
            snap, grads = PointCloud(fine_points()), (grad_coarse, grad_fine)
            records.append(_snapshot(step, value, fine_weights, grads, snap, target, config.seed))
        coarse = coarse - config.step_size * grad_coarse
        if not freeze_offsets:
            offsets = offsets - config.step_size * grad_fine
        if state is not None:
            fine_cloud = PointCloud(fine_points())
            fine_m = Matching(fine_cloud, target)
            local = cd_local(fine_cloud, target, r, matching=fine_m)
            glob = cd_global(fine_cloud, target, r, matching=fine_m)
            _, state_grad = uncertainty_loss(local, glob, state)
            state = UncertaintyState(
                s_local=state.s_local - config.step_size * state_grad[0],
                s_global=state.s_global - config.step_size * state_grad[1],
            )

    value, grad_coarse, grad_fine, fine_weights = evaluate(config.steps)
    fine_cloud, grads = PointCloud(fine_points()), (grad_coarse, grad_fine)
    final = _snapshot(config.steps, value, fine_weights, grads, fine_cloud, target, config.seed)
    records.append(final)
    return fine_cloud, PointCloud(coarse), OptimizationTrace(records)


def clustered_grid_benchmark(
    n: int = 64, seed: int = 42, noise_scale: float = 0.05
) -> tuple[PointCloud, PointCloud]:
    """Canonical clustered-init benchmark: (init, target).

    Target is a planar unit grid of n points; init draws n points from a
    Gaussian blob centered on the grid corner at the origin, reproducing the
    pathological local clustering that symmetric Chamfer descent struggles to
    escape.
    """
    side = round(n ** 0.5)
    if side * side != n:
        raise InvalidInputError(f"benchmark size must be a perfect square, got {n}")
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    target = PointCloud(np.column_stack([gx.ravel(), gy.ravel()]))
    rng = np.random.default_rng(seed)
    init = PointCloud(noise_scale * rng.standard_normal((n, 2)))
    return init, target
