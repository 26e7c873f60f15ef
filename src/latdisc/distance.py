"""Distance-function norms of lattice point sets, covering radii with
certified enclosures, slab-union volumes, the distance-vs-spectral-test
sandwich, and the Sobolev approximation-error proxy.

Distances are non-periodic: the plain Euclidean distance inside the cube.
On the midpoint grid they come from an exact block-wise nearest-point
search: each box of cells is measured only against the points a KD-tree
query proves can be nearest to one of its cells, with the same float
operations as the KD-tree query itself, so the values are its values.

Every certified enclosure here is deterministic: per-cell brackets on the
grid, branch and bound for the covering radius, closed forms in d = 1.
Nothing is sampled. The enclosures are widened outward by a bound on the
float rounding of the distances and sums (see `_dist_margin`).

The KD-tree is scipy's `cKDTree`, imported by the functions that build one,
so importing this module loads numpy only.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .discrepancy import halfspace_cube_volume
from .lattice import IntegrationLattice, LatticePointSet, enumerate_points
from .reduction import SpectralReport, hyperplane_family, spectral_test

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

GammaValue = float  # finite positive real or math.inf

GRID_BOX_ENTRIES = 1 << 15  # cap on the cells x candidates of one grid-search temporary
GRID_BOX_MIN_CELLS = 1 << 8  # smaller boxes cost more in per-box overhead than in arithmetic
GRID_CELL_BUDGET = 21**4  # cells of the default grid for d >= 4
GRID_CHUNK_CELLS = 1 << 16  # cells per chunk of the grid walk
EPS = float(np.finfo(float).eps)  # 2^-52, twice the unit roundoff u


@dataclass(frozen=True)
class DistanceNormConfig:
    grid_resolution: int | None = None  # per-axis; None picks a default by dim
    covering_tol: float = 1e-4


def _default_resolution(d: int) -> int:
    """401 cells per axis for d <= 2, 101 for d = 3, and beyond that the
    largest m with m^d <= GRID_CELL_BUDGET (21 for d = 4)."""
    if d <= 2:
        return 401
    if d == 3:
        return 101
    m = int(round(GRID_CELL_BUDGET ** (1.0 / d)))
    while m**d > GRID_CELL_BUDGET:
        m -= 1
    return m


def _dist_margin(d: int) -> float:
    """Bound on |computed - exact| for a float distance between two points of
    the cube, (d + 6) sqrt(d) eps: the inputs are within u of the rationals
    they stand for in each coordinate (sqrt(d) u/2 for a point, sqrt(d) u
    for a computed cell centre), and the d differences, squares, d - 1
    additions and the sqrt add a relative (d + 3) u / 2 to a value at most
    sqrt(d). This is four times the sum of those terms."""
    return (d + 6) * math.sqrt(d) * EPS


@dataclass(frozen=True)
class CoveringRadius:
    lower: float
    upper: float
    witness: tuple[float, ...]
    n_evals: int
    converged: bool
    estimate: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DistanceNormReport:
    gamma: GammaValue
    value: float
    lower_certified: float
    upper_certified: float
    method: str  # closed-form-1d | grid | covering
    resolution: int

    def to_json_dict(self) -> dict:
        return {
            "gamma": "inf" if math.isinf(self.gamma) else self.gamma,
            "value": self.value,
            "lower_certified": self.lower_certified,
            "upper_certified": self.upper_certified,
            "method": self.method,
            "resolution": self.resolution,
        }


def dist_to_pointset(x, ps: LatticePointSet | np.ndarray) -> float:
    """Min Euclidean distance from x to the point set (non-periodic)."""
    pts = ps.as_array() if isinstance(ps, LatticePointSet) else np.asarray(ps, float)
    if pts.size == 0:
        raise ValueError("empty point set")
    x = np.asarray(x, dtype=float)
    return float(np.min(np.linalg.norm(pts - x, axis=1)))


def covering_radius(
    ps: LatticePointSet | np.ndarray,
    tol: float = 1e-4,
    max_evals: int = 4_000_000,
) -> CoveringRadius:
    """Certified enclosure of sup_{y in cube} dist(y, P) by branch-and-bound.

    dist is 1-Lipschitz, so a cell of half-width h satisfies
    sup_cell <= dist(center) + h sqrt(d). Cells are split until the largest
    remaining cell potential is within tol of the best evaluated point.
    The sup over the closed cube equals the half-open sup by continuity.

    Cell centres are dyadic, so exact in floats; the KD-tree distances and
    the potentials are not. `lower` is the best distance minus, and `upper`
    the largest potential plus, a margin of `_dist_margin(d)` + 6 sqrt(d) eps
    (the rounding of h sqrt(d) and of its sum with a distance). The stop
    test measures the widened interval, so `converged` means width <= tol.
    `estimate` is the midpoint of the interval before widening.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    from scipy.spatial import cKDTree

    pts = ps.as_array() if isinstance(ps, LatticePointSet) else np.asarray(ps, float)
    tree = cKDTree(pts)
    d = pts.shape[1]
    sqrt_d = math.sqrt(d)
    margin = _dist_margin(d) + 6 * sqrt_d * EPS

    def is_open(ub: float) -> bool:
        return (ub + margin) - (lb - margin) > tol

    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    start = np.vstack([corners, np.full((1, d), 0.5)])
    vals = tree.query(start)[0]
    n_evals = len(start)
    best_idx = int(np.argmax(vals))
    lb = float(vals[best_idx])
    witness = tuple(start[best_idx])

    counter = itertools.count()
    heap: list[tuple[float, int, tuple, float]] = []
    root_ub = float(vals[-1]) + 0.5 * sqrt_d
    heapq.heappush(heap, (-root_ub, next(counter), tuple(np.full(d, 0.5)), 0.5))

    offsets = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    batch = max(1, 1024 // (1 << d))
    while heap and is_open(-heap[0][0]) and n_evals < max_evals:
        cells = []
        while heap and len(cells) < batch and is_open(-heap[0][0]):
            cells.append(heapq.heappop(heap))
        if not cells:
            break
        centers = np.array([c for _, _, c, _ in cells])
        halves = np.array([h for _, _, _, h in cells])
        child_half = halves / 2.0
        children = (
            centers[:, None, :] + offsets[None, :, :] * child_half[:, None, None]
        ).reshape(-1, d)
        child_halves = np.repeat(child_half, offsets.shape[0])
        cvals = tree.query(children)[0]
        n_evals += children.shape[0]
        top = int(np.argmax(cvals))
        if cvals[top] > lb:
            lb = float(cvals[top])
            witness = tuple(children[top])
        ubs = cvals + child_halves * sqrt_d
        for i in range(children.shape[0]):
            if ubs[i] > lb:
                heapq.heappush(
                    heap, (-float(ubs[i]), next(counter), tuple(children[i]), float(child_halves[i]))
                )
    ub = max(lb, -heap[0][0]) if heap else lb
    lower, upper = lb - margin, ub + margin
    return CoveringRadius(lower, upper, witness, n_evals, upper - lower <= tol, 0.5 * (lb + ub))


# ---------------------------------------------------------------------------
# Distance norms
# ---------------------------------------------------------------------------

def _moment_1d(xs: np.ndarray, denom: int, gamma: float) -> tuple[float, float, float]:
    """(value, lower, upper) of the integral of dist(., P)^gamma on [0, 1] for
    the sorted 1-d points xs / denom.

    With g = gamma + 1 the integral is the closed form

        (x_0^g + (1 - x_last)^g + 2 sum ((x_{i+1} - x_i) / 2)^g) / g,

    where every base q is an exact integer over denom or 2 denom. To first
    order the float value errs by a relative

        g u             the quotient q, correctly rounded (integers below 2^53)
                        and raised to the power g
        8 u             the power, four ulps
        |e| ln(2 denom) the rounding e of g = gamma + 1 in the exponent,
                        as q >= 1 / (2 denom) for q != 0
        (n - 1) u       the sum of n terms, by Higham's bound (Accuracy and
                        Stability of Numerical Algorithms, 2002, sec. 4.2)
        u + |e| / g     the division by the float g.

    The bracket widens the value by a relative (n + gamma + 10) eps +
    2 |e| (ln(2 denom) + 1), at least twice that total (eps = 2 u), and absolutely
    by (n + 1) 2^-1070 for terms that underflow.
    """
    g1 = gamma + 1.0
    g1_err = float(abs(Fraction(g1) - 1 - Fraction(gamma)))
    ends = np.array([xs[0], denom - xs[-1]]) / denom
    halves = np.diff(xs) / (2 * denom)
    terms = np.concatenate([ends**g1, 2.0 * halves**g1])
    n = len(terms)
    moment = float(np.sum(terms)) / g1
    slack = (n + gamma + 10) * EPS + 2 * g1_err * (math.log(2 * denom) + 1)
    tiny = (n + 1) * 2.0**-1070
    return moment, max(moment * (1 - slack) - tiny, 0.0), moment * (1 + slack) + tiny


def _grid_axis(m: int) -> np.ndarray:
    """Cell-centre coordinates of the m-cell midpoint grid along one axis."""
    return (np.arange(m) + 0.5) * (1.0 / m)


def _grid_row_chunks(d: int, m: int) -> list[tuple[int, int]]:
    """First-axis row ranges [start, stop) of the m^d grid's chunks, each
    about GRID_CHUNK_CELLS cells."""
    rows = max(1, GRID_CHUNK_CELLS // m ** (d - 1))
    return [(start, min(start + rows, m)) for start in range(0, m, rows)]


def _grid_centers_chunks(d: int, m: int):
    """Yield cell-center chunks of the m^d midpoint grid, in lexicographic
    order."""
    axis = _grid_axis(m)
    tail = (
        np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
        if d > 1
        else np.empty((1, 0))
    )
    for start, stop in _grid_row_chunks(d, m):
        block = axis[start:stop]
        head = np.repeat(block, tail.shape[0])[:, None]
        body = np.tile(tail, (block.shape[0], 1))
        yield np.hstack([head, body])


def _box_distances(axes: list[np.ndarray], cands: np.ndarray) -> np.ndarray:
    """dist to `cands` of every cell centre of the tensor box with per-axis
    coordinates `axes`, shaped like the box. Squares are summed in axis
    order, then min and sqrt: cKDTree's own operations, so the result is
    bit-identical to its query. Candidates go in batches so that no
    temporary exceeds GRID_BOX_ENTRIES entries."""
    d = len(axes)
    shape = tuple(len(a) for a in axes)
    batch = max(1, GRID_BOX_ENTRIES // math.prod(shape))
    best = np.full(shape, np.inf)
    for j in range(0, len(cands), batch):
        part = cands[j : j + batch]
        sq = 0.0
        for k, a in enumerate(axes):
            diff = a - part[:, k, None]
            sq = sq + (diff * diff).reshape((len(part),) + (1,) * k + (len(a),) + (1,) * (d - 1 - k))
        np.minimum(best, sq.min(axis=0), out=best)
    return np.sqrt(best)


def _grid_distance_chunks(tree: cKDTree, d: int, m: int):
    """Yield dist(., P) at the cell centres of each `_grid_centers_chunks`
    chunk, in the same order and bit-identical to `tree.query`.

    Each chunk is cut into boxes of about one point spacing (between
    GRID_BOX_MIN_CELLS and GRID_BOX_ENTRIES cells). A box whose cell centres
    lie within h of its centre c, with u = dist(c, P), has every cell's
    nearest point p* within u + 2h of c, since |p* - c| <= dist(x) + h; the
    points in that ball (with a margin for rounding) are the box's candidates.
    """
    axis = _grid_axis(m)
    pts = tree.data
    side = m * tree.n ** (-1.0 / d)  # one point spacing, in cells
    side = min(max(side, GRID_BOX_MIN_CELLS ** (1.0 / d)), GRID_BOX_ENTRIES ** (1.0 / d), m)
    side = int(side + 1e-9)  # (2^15)^(1/3) evaluates to just under 32
    for start, stop in _grid_row_chunks(d, m):
        axes = [axis[start:stop]] + [axis] * (d - 1)
        boxes = list(itertools.product(
            *([slice(a, min(a + side, len(ax))) for a in range(0, len(ax), side)] for ax in axes)
        ))
        lo = np.array([[ax[s.start] for ax, s in zip(axes, box)] for box in boxes])
        hi = np.array([[ax[s.stop - 1] for ax, s in zip(axes, box)] for box in boxes])
        centres = 0.5 * (lo + hi)
        half = 0.5 * np.sqrt(np.sum((hi - lo) ** 2, axis=1))
        reach = tree.query(centres)[0] + 2 * half
        cands = tree.query_ball_point(centres, reach * (1 + 1e-9) + 1e-12)
        out = np.empty([len(ax) for ax in axes])
        for box, idx in zip(boxes, cands):
            out[box] = _box_distances([ax[s] for ax, s in zip(axes, box)], pts[idx])
        yield out.reshape(-1)


def _grid_moments_multi(
    tree: cKDTree, d: int, m: int, gammas: list[float]
) -> dict[float, tuple[float, float, float]]:
    """(midpoint sum, lower bracket, upper bracket) of the dist^gamma integral
    for each gamma, sharing one pass over the grid. The distances come from
    the exact block-wise search of `_grid_distance_chunks`, chunk by chunk.

    dist is 1-Lipschitz, so on a cell with centre c and half-diagonal
    r = sqrt(d) / (2m), max(dist(c) - r, 0) <= dist <= dist(c) + r, and for
    every gamma > 0

        sum max(dist - r, 0)^gamma / m^d <= integral <= sum (dist + r)^gamma / m^d.

    Rounding is covered outward: r is widened by `_dist_margin(d)` (the
    error of the computed dist(c)) and a few ulps of its own, and each
    bracket sum by a relative (n + gamma + 8) eps, n = m^d. That contains
    Higham's any-order summation bound (n - 1) u sum |x_i| (Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 4.2), the rounding of
    each term's subtraction or addition and power, and the division by n.
    """
    n = m**d
    reach = math.sqrt(d) / (2 * m) * (1 + 4 * EPS) + _dist_margin(d)
    sums = {g: [0.0, 0.0, 0.0] for g in gammas}
    for dist in _grid_distance_chunks(tree, d, m):
        below = np.maximum(dist - reach, 0.0)
        above = dist + reach
        for g in gammas:
            s = sums[g]
            s[0] += float(np.sum(dist**g))
            s[1] += float(np.sum(below**g))
            s[2] += float(np.sum(above**g))
    out = {}
    for g, (mid, lo, hi) in sums.items():
        slack = (n + g + 8) * EPS
        out[g] = (mid / n, lo / n * (1 - slack), hi / n * (1 + slack))
    return out


def _root_outward(lo: float, hi: float, g: float) -> tuple[float, float]:
    """lo^(1/g) rounded down and hi^(1/g) rounded up: two ulps for the power,
    and |ln x| eps / g for the rounding of the exponent 1/g."""

    def widen(x: float) -> float:
        return (2 + abs(math.log(x)) / g) * EPS if x > 0 else 0.0

    return lo ** (1.0 / g) * (1 - widen(lo)), hi ** (1.0 / g) * (1 + widen(hi))


def distance_norms(
    ps: LatticePointSet,
    gammas,
    config: DistanceNormConfig | None = None,
) -> dict[GammaValue, DistanceNormReport]:
    """L_gamma norms of dist(., P) for several gammas, sharing the grid.

    gamma = inf delegates to the covering radius. For d = 1 the piecewise
    integral is evaluated in closed form from the exact integer gaps, and the
    certified bounds widen it for every rounding (`_moment_1d`). For every d >= 2 the value is the
    midpoint rule on a tensor grid (`_default_resolution`), and the
    certified bounds are its per-cell brackets (`_grid_moments_multi`),
    widened outward for rounding. Nothing is sampled.
    """
    cfg = config or DistanceNormConfig()
    gammas = list(gammas)
    d = ps.dim
    pts = ps.as_array()
    out: dict[GammaValue, DistanceNormReport] = {}

    bad = [g for g in gammas if not g > 0]  # also nan and -inf
    if bad:
        raise ValueError(f"gamma must be positive, got {bad[0]}")
    finite = [g for g in gammas if not math.isinf(g)]
    if any(math.isinf(g) for g in gammas):
        cr = covering_radius(ps, tol=cfg.covering_tol)
        out[math.inf] = DistanceNormReport(
            gamma=math.inf,
            value=cr.estimate,
            lower_certified=cr.lower,
            upper_certified=cr.upper,
            method="covering",
            resolution=0,
        )

    if not finite:
        return out

    if d == 1:
        xs = np.sort(ps.ints[:, 0])
        for g in finite:
            moment, lo, hi = _moment_1d(xs, ps.denom, g)
            lower, upper = _root_outward(lo, hi, g)
            out[g] = DistanceNormReport(
                gamma=g,
                value=moment ** (1.0 / g),
                lower_certified=lower,
                upper_certified=upper,
                method="closed-form-1d",
                resolution=0,
            )
        return out

    from scipy.spatial import cKDTree

    m = cfg.grid_resolution or _default_resolution(d)
    grid = _grid_moments_multi(cKDTree(pts), d, m, finite)
    for g in finite:
        moment, lo, hi = grid[g]
        lower, upper = _root_outward(lo, hi, g)
        out[g] = DistanceNormReport(
            gamma=g,
            value=moment ** (1.0 / g),
            lower_certified=lower,
            upper_certified=upper,
            method="grid",
            resolution=m,
        )
    return out


def distance_norm(
    ps: LatticePointSet, gamma: GammaValue, config: DistanceNormConfig | None = None
) -> DistanceNormReport:
    return distance_norms(ps, [gamma], config)[
        math.inf if math.isinf(gamma) else gamma
    ]


# ---------------------------------------------------------------------------
# Slab unions and the lower-bound construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabUnion:
    """Volumes of B_t (points within t sigma of some covering hyperplane)
    and its complement A_t, both exact rationals."""

    t: Fraction
    vol_bt: Fraction
    vol_at: Fraction
    per_plane: tuple[Fraction, ...]


def slab_union_volume(
    lat: IntegrationLattice, h, t, report: SpectralReport | None = None
) -> SlabUnion:
    """Exact Vol(B_t) = sum_k Vol({|h.x - k| < t} cap cube) for the shortest
    dual vector h. In functional units the slab around plane k is
    (k - t, k + t) because the plane spacing is exactly sigma = 1/||h||.
    `report` is the lattice's spectral test, run here when omitted."""
    t = Fraction(t)
    if not 0 < t < Fraction(1, 2):
        raise ValueError("t must lie in (0, 1/2)")
    h = tuple(int(x) for x in h)
    rep = report if report is not None else spectral_test(lat)
    if sum(x * x for x in h) != rep.dual_norm_sq:
        raise ValueError("h must be a shortest dual vector")
    fam = hyperplane_family(lat, h)
    per = []
    for k in range(fam.k_min, fam.k_max + 1):
        vol = halfspace_cube_volume(h, k + t) - halfspace_cube_volume(h, k - t)
        per.append(vol)
    total = sum(per, Fraction(0))
    return SlabUnion(t, total, 1 - total, tuple(per))


@dataclass(frozen=True)
class Prop1Report:
    lattice_id: str
    dim: int
    n_points: int
    sigma: float
    v_d: float
    t_d: float
    c_d: float
    vol_a_td: float
    vol_a_ok: bool
    vol_b_bound: float
    vol_b_bound_ok: bool
    gammas: tuple[GammaValue, ...]
    norms: tuple[DistanceNormReport, ...]
    lower_bounds: tuple[float, ...]
    lower_ok: tuple[bool, ...]
    ratios: tuple[float, ...]
    ratio_inf: float

    def to_json_dict(self) -> dict:
        return {
            "lattice_id": self.lattice_id,
            "d": self.dim,
            "N": self.n_points,
            "sigma": self.sigma,
            "v_d": self.v_d,
            "t_d": self.t_d,
            "c_d": self.c_d,
            "vol_a_td": self.vol_a_td,
            "vol_a_ok": self.vol_a_ok,
            "vol_b_bound": self.vol_b_bound,
            "vol_b_bound_ok": self.vol_b_bound_ok,
            "gammas": ["inf" if math.isinf(g) else g for g in self.gammas],
            "norms": [r.to_json_dict() for r in self.norms],
            "lower_bounds": list(self.lower_bounds),
            "lower_ok": list(self.lower_ok),
            "ratios": list(self.ratios),
            "ratio_inf": self.ratio_inf,
        }


def hyperplane_section_constant(d: int) -> float:
    """v_d: the maximal (d-1)-volume of a hyperplane section of the cube.

    v_1 = 1 (a point); v_d = sqrt(2) for d >= 2 (diagonal section)."""
    return 1.0 if d == 1 else math.sqrt(2.0)


def verify_prop1(
    lat: IntegrationLattice,
    gammas=(0.5, 1.0, 2.0, math.inf),
    config: DistanceNormConfig | None = None,
    lattice_id: str = "",
    report: SpectralReport | None = None,
    norm_reports: dict[GammaValue, DistanceNormReport] | None = None,
) -> Prop1Report:
    """Check the distance-norm sandwich pieces that are verifiable:

    - Vol(A_{t_d}) >= 1/2 exactly, with t_d = 1/(12 sqrt(d) v_d);
    - Vol(B_t) <= (2 sqrt(d) + 4 sigma) v_d t;
    - c_d sigma / 2^(1/gamma) <= ||dist||_gamma for each gamma (c_d = t_d);
    - the empirical ratio norm_inf / sigma (the companion constant to C_d
      is unknown, so the ratio is recorded, not asserted).

    `report` and `norm_reports` (the `distance_norms` of the lattice's
    points for at least these gammas) are computed here when omitted.
    """
    rep = report if report is not None else spectral_test(lat)
    d = lat.dim
    sigma = rep.sigma
    v_d = hyperplane_section_constant(d)
    t_d = 1.0 / (12.0 * math.sqrt(d) * v_d)
    # rational t >= t_d so that A_t subset A_{t_d} makes the check conservative
    t_rat = Fraction(math.ceil(t_d * 10**12), 10**12)
    su = slab_union_volume(lat, rep.shortest_dual, t_rat, rep)
    vol_a_ok = su.vol_at >= Fraction(1, 2)
    b_bound = (2 * math.sqrt(d) + 4 * sigma) * v_d * float(t_rat)
    vol_b_bound_ok = float(su.vol_bt) <= b_bound + 1e-12

    gammas = tuple(gammas)
    reports = norm_reports
    if reports is None:
        reports = distance_norms(enumerate_points(lat), gammas, config)
    norms = tuple(reports[math.inf if math.isinf(g) else g] for g in gammas)
    lower_bounds = tuple(
        t_d * sigma / (1.0 if math.isinf(g) else 2.0 ** (1.0 / g)) for g in gammas
    )
    lower_ok = tuple(
        r.lower_certified >= lb for r, lb in zip(norms, lower_bounds)
    )
    ratios = tuple(r.value / sigma for r in norms)
    ratio_inf = next((r for g, r in zip(gammas, ratios) if math.isinf(g)), float("nan"))
    return Prop1Report(
        lattice_id=lattice_id,
        dim=d,
        n_points=lat.n_points,
        sigma=sigma,
        v_d=v_d,
        t_d=t_d,
        c_d=t_d,
        vol_a_td=float(su.vol_at),
        vol_a_ok=bool(vol_a_ok),
        vol_b_bound=b_bound,
        vol_b_bound_ok=bool(vol_b_bound_ok),
        gammas=gammas,
        norms=norms,
        lower_bounds=lower_bounds,
        lower_ok=lower_ok,
        ratios=ratios,
        ratio_inf=ratio_inf,
    )


# ---------------------------------------------------------------------------
# Approximation-error proxy
# ---------------------------------------------------------------------------

def _inv(x) -> Fraction:
    """1/x as an exact rational; x may be a number, Fraction, or inf."""
    if x == math.inf or (isinstance(x, str) and x == "inf"):
        return Fraction(0)
    f = Fraction(x)
    if f < 1:
        raise ValueError("p and q must lie in [1, inf]")
    return 1 / f


@dataclass(frozen=True)
class ProxySpec:
    s: int
    p: object
    q: object
    d: int
    inv_p: Fraction
    inv_q: Fraction
    gamma: Fraction | float  # exact rational, or math.inf
    exponent: Fraction

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "p": "inf" if self.inv_p == 0 else str(Fraction(1) / self.inv_p),
            "q": "inf" if self.inv_q == 0 else str(Fraction(1) / self.inv_q),
            "d": self.d,
            "gamma": "inf" if self.gamma == math.inf else str(self.gamma),
            "exponent": str(self.exponent),
        }


def proxy_spec(s: int, p, q, d: int) -> ProxySpec:
    """Derive gamma and the proxy exponent exactly in rational arithmetic.

    gamma = s (1/q - 1/p)^(-1) when q < p, else inf;
    exponent = s - d (1/p - 1/q)_+ ; requires s > d/p.
    """
    inv_p, inv_q = _inv(p), _inv(q)
    s = int(s)
    if s <= d * inv_p:
        raise ValueError("smoothness must satisfy s > d/p")
    diff = inv_p - inv_q
    exponent = s - d * max(diff, Fraction(0))
    if exponent <= 0:
        raise ValueError("proxy exponent must be positive")
    if inv_q > inv_p:  # q < p
        gamma = Fraction(s) / (inv_q - inv_p)
    else:
        gamma = math.inf
    return ProxySpec(s, p, q, d, inv_p, inv_q, gamma, exponent)


def error_proxy(
    ps: LatticePointSet, spec: ProxySpec, config: DistanceNormConfig | None = None
) -> float:
    """||dist(., P)||_gamma raised to the proxy exponent."""
    g = math.inf if spec.gamma == math.inf else float(spec.gamma)
    rep = distance_norm(ps, g, config)
    return rep.value ** float(spec.exponent)


def nn_baseline_error(
    ps: LatticePointSet,
    f,
    q: GammaValue,
    grid_per_dim: int = 201,
    lipschitz: float | None = None,
) -> float:
    """L_q error, on a fine midpoint grid, of the nearest-neighbor
    piecewise-constant reconstruction of f from samples at P.

    For q = inf and an L-Lipschitz f the result is at most
    L * (covering radius) + grid slack.
    """
    from scipy.spatial import cKDTree

    pts = ps.as_array()
    tree = cKDTree(pts)
    d = ps.dim
    total = 0.0
    worst = 0.0
    n_cells = grid_per_dim**d
    for centers in _grid_centers_chunks(d, grid_per_dim):
        idx = tree.query(centers)[1]
        err = np.abs(np.asarray(f(centers)) - np.asarray(f(pts[idx])))
        if math.isinf(q):
            worst = max(worst, float(np.max(err, initial=0.0)))
        else:
            total += float(np.sum(err**q))
    if math.isinf(q):
        return worst
    return (total / n_cells) ** (1.0 / q)
