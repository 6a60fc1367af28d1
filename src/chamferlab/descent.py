"""Direct gradient descent of free point coordinates against a target cloud,
including the coarse-to-fine supervised variant."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .cloud import Matching, PointCloud, _check_int, _check_pair, _check_seed, _row_sq_dists
from .cloud import _whole_numbers, subsample
from .errors import DivergenceError, InvalidInputError, NumericalError
from .metrics import chamfer_l1, dcd, emd_exact
from .metrics import _CD_L1, _CD_L2, _DCD, _check_positive, _check_r
from .objective import (
    FcdWeights,
    ScheduleSpec,
    UncertaintyState,
    _value_grad,
    schedule_weights,
    uncertainty_loss,
)

DIVERGENCE_FACTOR = 1e6
OBJECTIVE_KINDS = ("cd-l1", "cd-l2", "fcd", "dcd-loss")
# the (weights, r) that every kind but fcd fixes: those of the metric it descends
_FIXED_WEIGHTS = {kind: (FcdWeights(alpha, beta), r) for kind, (alpha, beta, r)
                  in (("cd-l1", _CD_L1), ("cd-l2", _CD_L2), ("dcd-loss", _DCD))}


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient-descent settings; a positive momentum_coeff selects the momentum update."""

    steps: int
    step_size: float
    momentum_coeff: float = 0.0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        _check_int("steps", self.steps, 1)
        _check_positive("step_size", self.step_size)
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise InvalidInputError(f"momentum_coeff must lie in [0, 1), got {self.momentum_coeff}")
        _check_seed(self.seed)
        _check_int("record_every", self.record_every, 1)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which loss drives the descent.

    cd-l1, cd-l2 and dcd-loss descend chamfer_l1, chamfer_l2 and dcd, at the
    fixed weights and distance order of that metric; fcd takes explicit weights
    or a schedule.
    """

    kind: str
    weights: FcdWeights | None = None
    r: int = 1
    dcd_temperature: float = 1000.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise InvalidInputError(f"unknown objective kind {self.kind!r}")
        _check_r(self.r)
        if self.kind == "dcd-loss":  # no other kind reads the temperature
            _check_positive("dcd_temperature", self.dcd_temperature)


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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class OptimizationTrace:
    """Per-step record of objective, weights, snapshot metrics, and gradient size."""

    records: list[TraceRecord]

    def to_csv(self) -> str:
        lines = [",".join(TRACE_COLUMNS)]
        for rec in self.records:
            cells = [str(rec.epoch)] + [repr(float(getattr(rec, c))) for c in TRACE_COLUMNS[1:]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HierarchySpec:
    """Parametric coarse-to-fine cloud: each coarse point carries m children.

    The fine cloud is the union of (coarse point + child offset); offsets are
    free variables initialized near zero.
    """

    children_per_coarse: int
    offset_scale: float = 1e-3

    def __post_init__(self):
        _check_int("children_per_coarse", self.children_per_coarse, 1)
        if not 0 <= self.offset_scale < math.inf:
            raise InvalidInputError(f"offset_scale must be >= 0 and finite, got {self.offset_scale}")


def support_pinning(cloud: PointCloud, pinned) -> np.ndarray:
    """Validate pin indices against a cloud; pinned points never move."""
    idx = np.unique(_whole_numbers("pinned", list(pinned)).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= len(cloud)):
        raise InvalidInputError(f"pinned indices out of range for cloud of size {len(cloud)}")
    return idx


def _snapshot(epoch: int, value: float, weights: FcdWeights, grad: np.ndarray,
              m: Matching, seed: int) -> TraceRecord:
    """Trace record at m.p; its snapshot metrics reuse the step's matching of (m.p, m.g),
    and its emd is exact EMD on seeded random subsamples of min(128, n, m) points."""
    p, target = m.p, m.g
    k = min(128, len(p), len(target))
    try:
        emd = emd_exact(subsample(p, k, "random", seed), subsample(target, k, "random", seed))
    except NumericalError as exc:  # an overflowing cost names its column, as a report does
        raise type(exc)(f"emd at step {epoch}: {exc}") from exc
    return TraceRecord(
        epoch=epoch,
        objective=value,
        alpha=weights.alpha,
        beta=weights.beta,
        cd_l1=chamfer_l1(p, target, matching=m),
        dcd=dcd(p, target, matching=m),
        emd=emd,
        grad_max=float(np.linalg.norm(grad, axis=1).max()),
    )


class _Loss:
    """One stage's objective: its value, gradient and weights at an epoch.

    The weights are the objective's fixed ones (``_FIXED_WEIGHTS``, or fcd's
    own), or, under a schedule, the schedule's at the epoch clamped to T. Only fcd
    takes a schedule; the uncertainty kind adds a state that the descent
    loop updates.
    """

    def __init__(self, objective: ObjectiveSpec, schedule: ScheduleSpec | None):
        self.schedule = schedule
        self.state: UncertaintyState | None = None
        self.weights, self.r = _FIXED_WEIGHTS.get(objective.kind, (objective.weights, objective.r))
        self.temperature = objective.dcd_temperature if objective.kind == "dcd-loss" else None
        if schedule is not None and objective.kind != "fcd":
            raise InvalidInputError(f"objective kind {objective.kind!r} does not take a schedule")
        if schedule is None and self.weights is None:
            raise InvalidInputError("fcd objective needs explicit weights or a schedule")
        if schedule is not None and schedule.kind == "uncertainty":
            self.state = UncertaintyState.initial(schedule.tau, schedule.theta)

    def value_grad(self, m: Matching, epoch: int):
        """Returns (objective, gradient at m.p, weights, state gradient or None)."""
        weights = self.weights
        if self.schedule is not None:
            weights = schedule_weights(self.schedule, min(epoch, self.schedule.T), self.state)
        local, glob, grad = _value_grad(m, weights.alpha, weights.beta, self.r, self.temperature)
        if self.state is None:
            return weights.alpha * local + weights.beta * glob, grad, weights, None
        value, state_grad = uncertainty_loss(local, glob, self.state)
        return value, grad, weights, state_grad


class _FreePoints:
    """Parameter rows that are the fine cloud itself; pinned rows stay frozen."""

    def __init__(self, init: PointCloud, frozen: np.ndarray):
        self.start = init.points
        self.frozen = frozen

    def clouds(self, theta: np.ndarray) -> list[np.ndarray]:
        return [theta]

    def chain(self, grads: list[np.ndarray]) -> np.ndarray:
        return grads[0]


class _Skeleton:
    """Parameter rows [coarse points; child offsets]: stage clouds coarse, then fine.

    The fine cloud repeats each coarse point once per child and adds the
    child's offset; frozen offsets form one block of frozen rows.
    """

    def __init__(self, coarse: np.ndarray, offsets: np.ndarray, freeze_offsets: bool):
        self.start = np.concatenate([coarse, offsets])
        self.count = len(coarse)
        self.children = len(offsets) // len(coarse)
        rows = np.arange(len(self.start))
        self.frozen = rows[self.count:] if freeze_offsets else rows[:0]

    def clouds(self, theta: np.ndarray) -> list[np.ndarray]:
        coarse = theta[: self.count]
        return [coarse, np.repeat(coarse, self.children, axis=0) + theta[self.count:]]

    def chain(self, grads: list[np.ndarray]) -> np.ndarray:
        grad_coarse, grad_fine = grads
        # children chain back onto their coarse parent
        children = grad_fine.reshape(self.count, self.children, -1).sum(axis=1)
        return np.concatenate([grad_coarse + children, grad_fine])


def _descend(param: _FreePoints | _Skeleton, stages: list[tuple[PointCloud, _Loss]],
             config: OptimizerConfig) -> tuple[list[PointCloud], OptimizationTrace]:
    """The descent loop: evaluates config.steps + 1 parameter states, steps between them.

    ``stages`` holds one (target, loss) pair per cloud of ``param.clouds``,
    the fine stage last. Each evaluation matches every stage cloud with its
    target once and sums the stage values; ``param.chain`` sums the stage
    gradients onto the parameters. The fine stage's matching, weights and
    state gradient feed the trace snapshot and the uncertainty update.
    The start clouds are checked ``PointCloud``s; each later one wraps stepped rows
    that one pass over their squared distances to the target centroid has found
    finite and within reach. Returns the stage clouds of the last evaluation.
    """
    theta = param.start.copy()
    velocity = np.zeros_like(theta)
    records: list[TraceRecord] = []
    target, loss = stages[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report an overflow
        center = target.points.mean(axis=0)
        clouds = [PointCloud(points) for points in param.clouds(theta)]
        radius_sq = max(_row_sq_dists(c.points, center).max() for c in [*clouds, target])
        reach_sq = DIVERGENCE_FACTOR**2 * radius_sq  # radius of init and target about the centroid
        for step in range(config.steps + 1):
            value, grads = 0.0, []
            for cloud, (stage_target, stage_loss) in zip(clouds, stages):
                m = Matching(cloud, stage_target)
                try:
                    stage_value, stage_grad, weights, state_grad = stage_loss.value_grad(m, step)
                except NumericalError as exc:  # a non-finite gradient, or uncertainty weights
                    raise DivergenceError(f"{exc} at step {step}") from None
                value += stage_value
                grads.append(stage_grad)
            grad = param.chain(grads)  # m, weights and state_grad are the fine stage's
            if not math.isfinite(value):
                raise DivergenceError(f"objective became non-finite at step {step}")
            if param.frozen.size:  # before the snapshot, so its grad_max is the applied gradient's
                grad[param.frozen] = 0.0
            if step % config.record_every == 0 or step == config.steps:
                records.append(_snapshot(step, value, weights, grad, m, config.seed))
            if step == config.steps:
                return clouds, OptimizationTrace(records)

            if config.momentum_coeff:
                velocity = config.momentum_coeff * velocity + grad
                grad = velocity
            theta = theta - config.step_size * grad
            stage_points = param.clouds(theta)  # a coarse point plus its offset can overflow
            tops = [_row_sq_dists(points, center).max() for points in stage_points]
            if not (all(map(math.isfinite, tops)) or all(np.isfinite(p).all() for p in stage_points)):
                raise DivergenceError(f"coordinates became non-finite at step {step}")
            clouds = [PointCloud._trusted(points) for points in stage_points]
            if state_grad is not None:
                s_local = loss.state.s_local - config.step_size * state_grad[0]
                s_global = loss.state.s_global - config.step_size * state_grad[1]
                if not (math.isfinite(s_local) and math.isfinite(s_global)):
                    raise DivergenceError(f"uncertainty state left the float range at step {step}")
                loss.state = UncertaintyState(s_local, s_global)
            if max(tops) > reach_sq:
                # hypot does not square, so a finite offset past 1e154 reports a finite distance
                spread = max(float(np.hypot.reduce(p - center, axis=1).max()) for p in stage_points)
                raise DivergenceError(
                    f"a point lies {spread:.3e} from the target centroid, beyond "
                    f"{DIVERGENCE_FACTOR:.0e} x the radius of init and target, at step {step + 1}"
                )


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
    fixed config. Raises DivergenceError if the objective, the gradient or the
    coordinates become non-finite, if the uncertainty weights overflow or
    underflow, or if a point moves farther from the target centroid than 1e6
    times the radius of init and target about it.
    """
    _check_pair(init, target)
    pin_idx = support_pinning(init, pinned) if pinned is not None else np.empty(0, dtype=np.intp)
    stages = [(target, _Loss(objective, schedule))]
    (final,), trace = _descend(_FreePoints(init, pin_idx), stages, config)
    return final, trace


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
    weights. Coarse coordinates and offsets descend jointly, under the same
    update rule, uncertainty update and divergence guard as ``optimize``.
    """
    _check_pair(init_coarse, target)
    count = len(init_coarse)
    if count > len(target):
        raise InvalidInputError(f"more coarse points than target points ({count} > {len(target)})")

    coarse_target = subsample(target, count, "farthest-point")
    rng = np.random.default_rng(config.seed)
    n_fine = count * hierarchy.children_per_coarse
    offsets = hierarchy.offset_scale * rng.standard_normal((n_fine, init_coarse.dim))
    coarse_loss = _Loss(ObjectiveSpec("fcd", FcdWeights(schedule.tau, schedule.theta), r), None)
    stages = [(coarse_target, coarse_loss), (target, _Loss(ObjectiveSpec("fcd", r=r), schedule))]
    param = _Skeleton(init_coarse.points, offsets, freeze_offsets)
    (coarse, fine), trace = _descend(param, stages, config)
    return fine, coarse, trace


def clustered_grid_benchmark(n: int = 64, seed: int = 42) -> tuple[PointCloud, PointCloud]:
    """Canonical clustered-init benchmark: (init, target).

    Target is a planar unit grid of n points; init draws n points from a
    Gaussian blob of standard deviation 0.05 centered on the grid corner at the
    origin, reproducing the pathological local clustering that symmetric
    Chamfer descent struggles to escape.
    """
    _check_int("n", n, 1)  # a negative n has a complex square root
    side = round(n ** 0.5)
    if side * side != n:
        raise InvalidInputError(f"benchmark size must be a perfect square, got {n}")
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    target = PointCloud(np.column_stack([gx.ravel(), gy.ravel()]))
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    init = PointCloud(0.05 * rng.standard_normal((n, 2)))
    return init, target
