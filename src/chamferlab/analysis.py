"""Closed-form gradient verification for the two-point stalemate scenario,
value/gradient sweeps along the connecting line, and the equal-Chamfer
ambiguity construction (clustered vs uniform prediction)."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .cloud import Matching, PointCloud, _check_int, _check_seed
from .errors import ConstructionError, InvalidInputError, MidpointAmbiguityError
from .metrics import chamfer_l1, dcd
from .objective import FcdWeights, fcd, fcd_gradient

_CD_WEIGHTS = FcdWeights(1.0, 1.0)
# default_sweep_config's cap on abscissae: under six minutes of sweep and a 100 MB CSV
_MAX_ABSCISSAE = 1_000_000
_MIDPOINT = "lies on the ambiguous midpoint; exclude it"  # a MidpointAmbiguityError


def _vec2(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape != (2,) or not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be a finite 2D point")
    return arr


def _stalemate_problem(p2: np.ndarray, g1: np.ndarray, g2: np.ndarray, p1: np.ndarray):
    """What keeps the free point p2 out of the configuration the closed forms assume, or
    None: g1's nearest prediction is p1, p2 is off the midpoint and strictly between the
    targets, and g2's nearest prediction is p2 (strictly: a tie goes to p1, the lower index)."""
    d1, d2 = np.linalg.norm(p2 - g1), np.linalg.norm(p2 - g2)
    if d1 <= np.linalg.norm(p1 - g1):
        return "violates the validity condition |p2-g1| > |p1-g1|"
    if d1 == d2:
        return _MIDPOINT
    span = g2 - g1
    if not 0.0 < np.dot(p2 - g1, span) / np.dot(span, span) < 1.0:
        return "does not lie strictly between g1 and g2"
    if not d2 < np.linalg.norm(p1 - g2):
        return "violates the validity condition |p2-g2| < |p1-g2|"
    return None


@dataclass(frozen=True)
class SweepConfig:
    """Two fixed targets, one matched point, and abscissae for the free point.

    The free point moves along (x, 0); every abscissa must put it in the
    configuration that ``closed_form_gradients`` accepts, so that ``sweep``
    accepts every x.
    """

    g1: np.ndarray
    g2: np.ndarray
    p1: np.ndarray
    xs: np.ndarray
    weights: FcdWeights

    def __post_init__(self):
        object.__setattr__(self, "g1", _vec2(self.g1, "g1"))
        object.__setattr__(self, "g2", _vec2(self.g2, "g2"))
        object.__setattr__(self, "p1", _vec2(self.p1, "p1"))
        xs = np.asarray(self.xs, dtype=np.float64).reshape(-1)
        if xs.size == 0 or not np.isfinite(xs).all():
            raise InvalidInputError("xs must be a non-empty finite sequence")
        if not (np.diff(xs) > 0).all():
            raise InvalidInputError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        for x in xs:
            problem = _stalemate_problem(np.array([x, 0.0]), self.g1, self.g2, self.p1)
            if problem is not None:
                raise InvalidInputError(f"x={x} {problem}")


def default_sweep_config(weights: FcdWeights = FcdWeights(1.0, 2.0), x_min: float = 0.6,
                         x_max: float = 3.4, x_step: float = 0.1) -> SweepConfig:
    """Canonical sweep: targets (0,0) and (4,0), matched point (0.5,0), and the free
    point at x_min + k * x_step up to x_max (with 1e-9 of a step for rounding), less
    any abscissa within 1e-9 of the midpoint 2.0, at most _MAX_ABSCISSAE of them."""
    # the step count in Python floats, which overflow to inf where numpy would warn
    if (not np.isfinite((x_min, x_max, x_step)).all() or x_min >= x_max or x_step <= 0
            or (count := (float(x_max) - float(x_min)) / float(x_step) + 1e-9) >= _MAX_ABSCISSAE):
        raise InvalidInputError(
            f"invalid sweep range: x_min={x_min}, x_max={x_max}, x_step={x_step}"
        )
    xs = x_min + x_step * np.arange(int(count) + 1)
    return SweepConfig(g1=np.array([0.0, 0.0]), g2=np.array([4.0, 0.0]), p1=np.array([0.5, 0.0]),
                       xs=xs[np.abs(xs - 2.0) > 1e-9], weights=weights)


@dataclass(frozen=True)
class ClosedFormGradients:
    """Analytic gradients at the free point for both conventions and orders."""

    cd_l1: np.ndarray
    fcd_l1: np.ndarray
    cd_l2: np.ndarray
    fcd_l2: np.ndarray


def _two_point_gradient(
    p2: np.ndarray, g1: np.ndarray, g2: np.ndarray, weights: FcdWeights, r: int
) -> np.ndarray:
    """Gradient at the free point of the weighted objective on {p1, p2} vs {g1, g2}.

    Valid while p1 stays matched to g1 and g2's nearest prediction is p2: the
    local term pairs p2 with whichever target is closer, the coverage term
    always pulls toward g2.
    """
    d1 = float(np.sqrt(((p2 - g1) ** 2).sum()))
    d2 = float(np.sqrt(((p2 - g2) ** 2).sum()))
    anchor, anchor_dist = (g1, d1) if d1 < d2 else (g2, d2)
    if r == 1:
        local = (weights.alpha / 2.0) * ((p2 - anchor) / anchor_dist)
        coverage = (weights.beta / 2.0) * ((p2 - g2) / d2)
    else:
        local = (weights.alpha / 2.0) * (2.0 * (p2 - anchor))
        coverage = (weights.beta / 2.0) * (2.0 * (p2 - g2))
    return local + coverage


def closed_form_gradients(
    p2, g1, g2, p1, weights: FcdWeights = FcdWeights(1.0, 2.0)
) -> ClosedFormGradients:
    """Analytic stalemate-scenario gradients at the free point p2.

    Requires the configuration the analysis assumes (see ``_stalemate_problem``):
    MidpointAmbiguityError on the midpoint, where the local assignment is
    ambiguous, and InvalidInputError off the configuration elsewhere.
    """
    p2 = _vec2(p2, "p2")
    g1 = _vec2(g1, "g1")
    g2 = _vec2(g2, "g2")
    p1 = _vec2(p1, "p1")
    problem = _stalemate_problem(p2, g1, g2, p1)
    if problem is not None:
        error = MidpointAmbiguityError if problem == _MIDPOINT else InvalidInputError
        raise error(f"p2=({p2[0]}, {p2[1]}) {problem}")
    return ClosedFormGradients(
        cd_l1=_two_point_gradient(p2, g1, g2, _CD_WEIGHTS, 1),
        fcd_l1=_two_point_gradient(p2, g1, g2, weights, 1),
        cd_l2=_two_point_gradient(p2, g1, g2, _CD_WEIGHTS, 2),
        fcd_l2=_two_point_gradient(p2, g1, g2, weights, 2),
    )


@dataclass(frozen=True)
class SweepRow:
    x: float
    cd_l1: float
    fcd_l1: float
    cd_l2: float
    fcd_l2: float
    grad_cd_l1_x: float
    grad_fcd_l1_x: float
    grad_cd_l2_x: float
    grad_fcd_l2_x: float


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))

_CROSS_CHECK_TOL = 1e-12


def sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate objective values and free-point gradients along the abscissae.

    Values and gradients come from the full two-point clouds; every gradient
    is cross-checked against the closed forms before a row is emitted.
    """
    rows = []
    g = PointCloud(np.stack([config.g1, config.g2]))
    for x in config.xs:
        p2 = np.array([x, 0.0])
        p = PointCloud(np.stack([config.p1, p2]))
        m = Matching(p, g)
        values, grads = {}, {}
        for r in (1, 2):
            for label, weights in (("cd", _CD_WEIGHTS), ("fcd", config.weights)):
                values[f"{label}_l{r}"] = fcd(p, g, weights, r, matching=m)
                grads[f"{label}_l{r}"] = fcd_gradient(p, g, weights, r, matching=m)[1]
        closed = closed_form_gradients(p2, config.g1, config.g2, config.p1, config.weights)
        for key, grad in grads.items():
            gap = np.abs(grad - getattr(closed, key)).max()
            if gap > _CROSS_CHECK_TOL:
                raise ConstructionError(
                    f"gradient cross-check failed at x={x} for {key}: |delta|={gap:.3e}"
                )
        grad_x = {f"grad_{key}_x": float(grad[0]) for key, grad in grads.items()}
        rows.append(SweepRow(x=float(x), **values, **grad_x))
    return rows


def sweep_to_csv(rows: list[SweepRow], config: SweepConfig) -> str:
    """Render sweep rows as CSV with a comment line recording the setup choices."""
    header = (
        f"# setup: g1=({config.g1[0]},{config.g1[1]}) g2=({config.g2[0]},{config.g2[1]}) "
        f"p1=({config.p1[0]},{config.p1[1]}) weights=({config.weights.alpha},{config.weights.beta}); "
        "free point on (x,0), midpoint excluded; these defaults are this toolkit's choice"
    )
    lines = [header, ",".join(SWEEP_COLUMNS)]
    lines += [",".join(repr(float(v)) for v in astuple(row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AmbiguityReport:
    cd_clustered: float
    cd_uniform: float
    dcd_clustered: float
    dcd_uniform: float
    temperature: float
    cluster_offset: float


def _grid_shape(n: int) -> tuple[int, int]:
    rows = 1
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            rows = d
    return rows, n // rows


def build_ambiguity_pair(
    n: int, seed: int, temperature: float | None = None
) -> tuple[PointCloud, PointCloud, PointCloud, AmbiguityReport]:
    """Construct two predictions with equal Chamfer distance but different density.

    The target is a planar unit grid of n points. The uniform prediction
    jitters every grid point; the clustered prediction covers only half the
    grid with point pairs, its pair offset bisected until both predictions
    match in Chamfer distance within 0.5% (acceptance criterion 5 asks for
    1%). The density-aware distance then separates them. The report's
    temperature defaults to 2 / grid pitch so the exponential kernel stays
    sensitive at this construction's scale.
    """
    _check_int("n", n)
    if n < 8 or n % 2 != 0:
        raise InvalidInputError(f"n must be even and >= 8, got {n}")
    rows, cols = _grid_shape(n)
    ys = np.linspace(0.0, 1.0, rows)
    xs = np.linspace(0.0, 1.0, cols)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    target = PointCloud(grid)
    pitch = min(1.0 / (cols - 1), 1.0 / (rows - 1))
    if temperature is None:
        temperature = 2.0 / pitch

    _check_seed(seed)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.45 * pitch, 0.45 * pitch, size=grid.shape)
    uniform = PointCloud(grid + jitter)
    uniform_m = Matching(uniform, target)
    cd_uniform = chamfer_l1(uniform, target, matching=uniform_m)

    # anchors: a checkerboard half of the grid; each carries a pair of points
    ii, jj = np.divmod(np.arange(n), cols)
    anchors = grid[(ii + jj) % 2 == 0]
    dirs = rng.standard_normal((len(anchors), 2, 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)

    def clustered(offset: float) -> PointCloud:
        pts = (anchors[:, None, :] + offset * dirs).reshape(-1, 2)
        return PointCloud(pts)

    lo, hi = 0.0, pitch
    f_lo = chamfer_l1(clustered(lo), target) - cd_uniform
    f_hi = chamfer_l1(clustered(hi), target) - cd_uniform
    if f_lo > 0 or f_hi < 0:
        raise ConstructionError(
            "cannot match Chamfer values: clustered construction does not bracket the target"
        )
    for _ in range(200):
        offset = 0.5 * (lo + hi)
        gap = chamfer_l1(clustered(offset), target) - cd_uniform
        if abs(gap) <= 0.005 * cd_uniform:
            break
        if gap < 0:
            lo = offset
        else:
            hi = offset
    else:
        raise ConstructionError("Chamfer matching bisection did not converge in 200 iterations")

    clustered_cloud = clustered(offset)
    clustered_m = Matching(clustered_cloud, target)
    report = AmbiguityReport(
        cd_clustered=chamfer_l1(clustered_cloud, target, matching=clustered_m),
        cd_uniform=cd_uniform,
        dcd_clustered=dcd(clustered_cloud, target, temperature, matching=clustered_m),
        dcd_uniform=dcd(uniform, target, temperature, matching=uniform_m),
        temperature=float(temperature),
        cluster_offset=float(offset),
    )
    return clustered_cloud, uniform, target, report
