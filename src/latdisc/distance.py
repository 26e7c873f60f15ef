"""Distance-function norms of lattice point sets, covering radii with
certified enclosures, the distance-vs-spectral-test sandwich of
Proposition 1, and the exponents of the Sobolev approximation-error proxy.

Distances are non-periodic: the plain Euclidean distance inside the cube.
On the midpoint grid they come from an exact block-wise nearest-point
search: each box of cells is measured only against the points a KD-tree
query proves can be nearest to one of its cells, less those the bisector
test proves are beaten everywhere in the box by q, the nearest point of
its centre. For points p, q and x, |x - p|^2 - |x - q|^2 is affine in x,
so its minimum over a box sits at a corner and has a closed form; p is
dropped when that minimum exceeds a bound on the float rounding of it and
of the squared distances (see `_grid_distance_chunks`). The kept points
are measured with the same float operations as the KD-tree query itself,
so the values are its values.

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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import TOL, require
from .lattice import IntegrationLattice, LatticePointSet, enumerate_points
from .reduction import SpectralReport, spectral_test

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

GammaValue = float  # finite positive real or math.inf

GRID_BOX_ENTRIES = 1 << 15  # cap on the cells x candidates of one grid-search temporary
GRID_BOX_MIN_CELLS = 1 << 8  # smaller boxes cost more in per-box overhead than in arithmetic
GRID_CELL_BUDGET = 21**4  # cells of the default grid for d >= 4
GRID_CHUNK_CELLS = 1 << 16  # cells per chunk of the grid walk
COVERING_MAX_EVALS = 4_000_000  # distance evaluations before the covering radius stops unconverged
EPS = float(np.finfo(float).eps)  # 2^-52, twice the unit roundoff u


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
    n_evals: int
    converged: bool
    estimate: float


@dataclass(frozen=True)
class DistanceNormReport:
    gamma: GammaValue
    value: float
    lower_certified: float
    upper_certified: float
    method: str  # closed-form-1d | grid | covering
    resolution: int

    def to_json_dict(self) -> dict:
        """The report's fields, each infinite value written as "inf"."""
        return {k: "inf" if v == math.inf else v for k, v in asdict(self).items()}


def covering_radius(ps: LatticePointSet, tol: float) -> CoveringRadius:
    """Certified enclosure of sup_{y in cube} dist(y, P) by branch-and-bound.

    dist is 1-Lipschitz, so a cell of half-width h satisfies
    sup_cell <= dist(center) + h sqrt(d). Cells are split until the largest
    remaining cell potential is within tol of the best evaluated point.
    The sup over the closed cube equals the half-open sup by continuity.

    Cell centres are dyadic, so exact in floats; the KD-tree distances and
    the potentials are not. `lower` is the best distance minus, and `upper`
    the largest potential plus, a margin of `_dist_margin(d)` + 6 sqrt(d) eps
    (the rounding of h sqrt(d) and of its sum with a distance). The stop
    test measures the widened interval, so `converged` means width <= tol;
    after COVERING_MAX_EVALS distance evaluations the search stops with the
    enclosure it has, `converged` False. `estimate` is the midpoint of the
    interval before widening.
    """
    require("tol", tol, TOL)
    from scipy.spatial import cKDTree

    tree = cKDTree(ps.as_array())
    d = ps.dim
    sqrt_d = math.sqrt(d)
    margin = _dist_margin(d) + 6 * sqrt_d * EPS

    def is_open(ub: float) -> bool:
        return (ub + margin) - (lb - margin) > tol

    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    start = np.vstack([corners, np.full((1, d), 0.5)])
    vals = tree.query(start)[0]
    n_evals = len(start)
    lb = float(np.max(vals))

    counter = itertools.count()
    heap: list[tuple[float, int, tuple, float]] = []
    root_ub = float(vals[-1]) + 0.5 * sqrt_d
    heapq.heappush(heap, (-root_ub, next(counter), tuple(np.full(d, 0.5)), 0.5))

    offsets = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    batch = max(1, 1024 // (1 << d))
    while heap and is_open(-heap[0][0]) and n_evals < COVERING_MAX_EVALS:
        cells = []
        while heap and len(cells) < batch and is_open(-heap[0][0]):
            cells.append(heapq.heappop(heap))
        centers = np.array([c for _, _, c, _ in cells])
        halves = np.array([h for _, _, _, h in cells])
        child_half = halves / 2.0
        children = (
            centers[:, None, :] + offsets[None, :, :] * child_half[:, None, None]
        ).reshape(-1, d)
        child_halves = np.repeat(child_half, offsets.shape[0])
        cvals = tree.query(children)[0]
        n_evals += children.shape[0]
        lb = max(lb, float(np.max(cvals)))
        ubs = cvals + child_halves * sqrt_d
        live = ubs > lb
        for neg_ub, child, half in zip(
            (-ubs[live]).tolist(), children[live].tolist(), child_halves[live].tolist()
        ):
            heapq.heappush(heap, (neg_ub, next(counter), tuple(child), half))
    ub = max(lb, -heap[0][0]) if heap else lb
    lower, upper = lb - margin, ub + margin
    return CoveringRadius(lower, upper, n_evals, upper - lower <= tol, 0.5 * (lb + ub))


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


def _balanced_boxes(n: int, side: int) -> list[tuple[int, int, int]]:
    """Cut n cells into ceil(n / side) runs whose sizes differ by at most one,
    the larger first: (first cell, size, first cell of the runs of that
    size) per run."""
    count = -(-n // side)
    q, r = divmod(n, count)
    large = [(i * (q + 1), q + 1, 0) for i in range(r)]
    return large + [(r * (q + 1) + i * q, q, r * (q + 1)) for i in range(count - r)]


def _grid_distance_chunks(tree: cKDTree, d: int, m: int):
    """Yield dist(., P) at the cell centres of each `_grid_row_chunks`
    chunk, in lexicographic order and bit-identical to `tree.query`. The
    points of P and the cells lie in the unit cube.

    The search runs on slabs of two consecutive chunks (the last slab is a
    single chunk when the count is odd), so a box is not clipped to the
    depth of one chunk; each slab then yields its chunks one by one, the
    same arrays a chunk-by-chunk search would give. A slab is cut into
    boxes of about one point spacing (between GRID_BOX_MIN_CELLS and
    GRID_BOX_ENTRIES cells), balanced along each axis: their sizes differ
    by at most one cell (`_balanced_boxes`). A box whose cell centres
    lie within h of its centre c, with u = dist(c, P), has every cell's
    nearest point p* within u + 2h of c, since |p* - c| <= dist(x) + h; the
    points in that ball (with a margin for rounding) are the box's raw
    candidates.

    The bisector test then drops every raw candidate p that q, the nearest
    point of c, beats at every cell x of the box. Exactly,
    |x - p|^2 - |x - q|^2 = |p|^2 - |q|^2 - 2 (p - q).x, and over the box of
    the cell centres, with centre c and half-widths w,

        max_x 2 (p - q).x + |q|^2 - |p|^2
            = 2 (p - q).c + 2 sum_k |p_k - q_k| w_k + |q|^2 - |p|^2 =: F,

    so F < 0 puts every cell strictly on q's side of the bisector of p and q
    (the lifting-map view of the Voronoi diagram: Aurenhammer, "Power
    diagrams", SIAM J. Comput. 16(1), 1987). p is dropped when the computed
    F is below -8 d (d + 4) eps. With coordinates in [0, 1] and u = eps / 2,
    that bound covers two roundings (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 3.1 and 4.2):

    - the computed F errs by at most gamma_{d+5} 4d. c and w are one
      rounding from the exact box, each product two more, its sum with the
      other one more, the sum over k d - 1 more, and the two additions of
      the norms two more (the norms themselves carry gamma_d). The terms'
      magnitudes sum to at most 4d, as |p_k - q_k| <= 1, c_k + w_k <= 1 and
      |p|^2, |q|^2 <= d;
    - each squared distance, as computed, errs by at most gamma_{d+2} d.

    Their sum for F and two distances is 3 d (d + 4) eps to first order, so
    the threshold is more than twice it: a dropped p computes strictly
    larger than q at every cell. q itself, with F = 0, is never dropped, so
    the minimum over the kept candidates is the minimum over all of P,
    value for value.

    The kept candidates are measured for many boxes per numpy call: boxes
    are grouped by shape and sorted by kept count, each batch is padded to
    its largest count with a sentinel point at +inf, and the results are
    written through a strided view of the slab, built once per shape, that
    tiles it with boxes of that shape from the first box of that shape.
    Squares are summed in axis order from 0.0, then min, then one sqrt
    over the slab: cKDTree's own operations, so the result is bit-identical
    to its query. Every temporary that grows with candidates times cells,
    and the coordinates of each slice of filtered pairs, are held to
    GRID_BOX_ENTRIES entries.
    """
    axis = _grid_axis(m)
    pts = tree.data
    padded = np.vstack([pts, np.full((1, d), np.inf)])  # row N is the sentinel
    norms = np.sum(pts * pts, axis=1)
    slack = 8 * d * (d + 4) * EPS
    pair_step = max(1, GRID_BOX_ENTRIES // d)  # filter slice: pairs x coordinates <= the cap
    side = m * tree.n ** (-1.0 / d)  # one point spacing, in cells
    side = min(max(side, GRID_BOX_MIN_CELLS ** (1.0 / d)), GRID_BOX_ENTRIES ** (1.0 / d), m)
    side = int(side + 1e-9)  # (2^15)^(1/3) evaluates to just under 32
    chunks = _grid_row_chunks(d, m)
    for slab in (chunks[i : i + 2] for i in range(0, len(chunks), 2)):
        start, stop = slab[0][0], slab[-1][1]
        axes = [axis[start:stop]] + [axis] * (d - 1)
        lens = [len(ax) for ax in axes]
        # per box and axis: (first cell, size, first cell of the boxes of that size)
        boxes = np.array(list(itertools.product(*map(_balanced_boxes, lens, [side] * d))))
        firsts, sizes, corners = boxes[:, :, 0], boxes[:, :, 1], boxes[:, :, 2]
        lo = np.stack([ax[f] for ax, f in zip(axes, firsts.T)], axis=1)
        hi = np.stack([ax[f] for ax, f in zip(axes, (firsts + sizes - 1).T)], axis=1)
        centres = 0.5 * (lo + hi)
        widths = 0.5 * (hi - lo)
        u, nearest = tree.query(centres)
        reach = u + 2 * np.sqrt(np.sum(widths**2, axis=1))
        balls = tree.query_ball_point(centres, reach * (1 + 1e-9) + 1e-12, return_sorted=False)

        n = len(firsts)
        owner = np.repeat(np.arange(n), np.fromiter(map(len, balls), np.intp, n))
        cand = np.fromiter(itertools.chain.from_iterable(balls), np.intp, owner.size)
        del balls
        keep = np.empty(owner.size, bool)
        for j in range(0, owner.size, pair_step):
            b, p = owner[j : j + pair_step], cand[j : j + pair_step]
            q = nearest[b]
            f = 0.0
            for k in range(d):
                a = pts[p, k] - pts[q, k]
                f = f + (a * centres[b, k] + np.abs(a) * widths[b, k])
            keep[j : j + pair_step] = 2 * f + norms[q] - norms[p] >= -slack
        owner, cand = owner[keep], cand[keep]

        # batch order: boxes by shape, then by kept count, each box's kept
        # candidates contiguous
        counts = np.bincount(owner, minlength=n)
        order = np.lexsort((counts, *sizes.T))
        cand = cand[np.argsort(np.argsort(order)[owner], kind="stable")]
        counts, firsts, sizes, corners = counts[order], firsts[order], sizes[order], corners[order]
        count_of, ends = counts.tolist(), np.cumsum(counts).tolist()
        shapes = list(map(tuple, sizes.tolist()))
        # boxes of one shape tile the slab from one corner
        tile_of = (firsts - corners) // sizes
        corners = corners.tolist()
        coords = [  # per box, its cells' coordinates along each axis, padded to side
            ax[np.minimum(firsts[:, k, None] + np.arange(side), len(ax) - 1)]
            for k, ax in enumerate(axes)
        ]

        out = np.empty(lens)
        i = 0
        while i < n:
            shape = shapes[i]
            # the slab's cells tiled by boxes of this shape, viewed as (tile
            # index per axis..., cell index along the last axis, then along
            # the others): a box's block holds its last axis outermost, so the
            # one full-size add runs one inner loop over the other axes
            corner = corners[i]
            tiles = np.ndarray(
                tuple((size - a) // s for size, a, s in zip(lens, corner, shape)) + shape,
                buffer=out,
                offset=sum(a * t for a, t in zip(corner, out.strides)),
                strides=tuple(t * s for t, s in zip(out.strides, shape)) + out.strides,
            )
            tiles = np.moveaxis(tiles, -1, d)
            limit = max(1, GRID_BOX_ENTRIES // math.prod(shape))  # box x candidate pairs
            while i < n and shapes[i] == shape:
                j = i + 1
                while j < n and shapes[j] == shape and (j + 1 - i) * count_of[j] <= limit:
                    j += 1
                width = count_of[j - 1]
                idx = np.full((j - i, width), len(pts))
                kept = cand[ends[i] - count_of[i] : ends[j - 1]]
                idx[np.arange(width) < counts[i:j, None]] = kept
                best = None
                step = max(1, limit // (j - i))
                for c in range(0, width, step):
                    part = padded[idx[:, c : c + step]]
                    sq = 0.0
                    for k, s in enumerate(shape):
                        diff = coords[k][i:j, None, :s] - part[:, :, k, None]
                        pos = (k + 1) % d  # axis k's place in the block
                        along_k = diff.shape[:2] + (1,) * pos + (s,) + (1,) * (d - 1 - pos)
                        sq = sq + (diff * diff).reshape(along_k)
                    near = sq.min(axis=1)
                    best = near if best is None else np.minimum(best, near, out=best)
                tiles[tuple(tile_of[i:j].T)] = best
                i = j
        np.sqrt(out, out=out)
        for a, b in slab:
            yield out[a - start : b - start].reshape(-1)
        del out, tiles  # free the slab before the next search, unless the caller holds a chunk


def _grid_moments_multi(
    tree: cKDTree, d: int, m: int, gammas: list[float], bracketed: set[float]
) -> dict[float, tuple[float, float, float]]:
    """(midpoint sum, lower bracket, upper bracket) of the dist^gamma integral
    for each gamma, sharing one pass over the grid. The distances come from
    the exact block-wise search of `_grid_distance_chunks`, chunk by chunk:
    each sum adds one np.sum per chunk, however the search cut its slabs.

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

    The bracket sums are taken only for the gammas in `bracketed`; every
    other gamma gets the vacuous but true bracket (0, inf).
    """
    n = m**d
    reach = math.sqrt(d) / (2 * m) * (1 + 4 * EPS) + _dist_margin(d)
    sums = {g: [0.0, 0.0, 0.0] for g in gammas}
    with_brackets = [g for g in gammas if g in bracketed]

    def add(i: int, x: np.ndarray, gs: list[float]) -> None:
        for g in gs:
            sums[g][i] += float(np.sum(x if g == 1 else x**g))  # x**1.0 is x, exactly

    for dist in _grid_distance_chunks(tree, d, m):
        add(0, dist, gammas)
        if with_brackets:
            bracket = np.maximum(dist - reach, 0.0)
            add(1, bracket, with_brackets)
            add(2, np.add(dist, reach, out=bracket), with_brackets)
            del bracket
        del dist  # so the walk can free each slab before it cuts the next
    out = {}
    for g, (mid, lo, hi) in sums.items():
        slack = (n + g + 8) * EPS
        bounds = (lo / n * (1 - slack), hi / n * (1 + slack)) if g in bracketed else (0.0, math.inf)
        out[g] = (mid / n, *bounds)
    return out


def _root(x: float, g: float) -> float:
    """x^(1/g), or inf where that overflows, as it can for a tiny gamma."""
    try:
        return x ** (1.0 / g)
    except OverflowError:
        return math.inf


def _root_outward(lo: float, hi: float, g: float) -> tuple[float, float]:
    """lo^(1/g) rounded down and hi^(1/g) rounded up: two ulps for the power,
    and |ln x| eps / g for the rounding of the exponent 1/g. A lower end
    that underflows reads 0, and an upper end that overflows reads inf."""

    def widen(x: float) -> float:
        return (2 + abs(math.log(x)) / g) * EPS if x > 0 else 0.0

    return max(0.0, _root(lo, g) * (1 - widen(lo))), _root(hi, g) * (1 + widen(hi))


def distance_norms(
    ps: LatticePointSet,
    gammas,
    covering_tol: float = 1e-4,
    *,
    bracketed=None,
) -> dict[GammaValue, DistanceNormReport]:
    """L_gamma norms of dist(., P) for several gammas, sharing the grid.

    gamma = inf delegates to the covering radius, to within `covering_tol`.
    For d = 1 the piecewise integral is evaluated in closed form from the
    exact integer gaps, and the certified bounds widen it for every rounding
    (`_moment_1d`). For every d >= 2 the value is the midpoint rule on a grid
    of `_default_resolution(d)`^d cells, and the certified bounds are its
    per-cell brackets (`_grid_moments_multi`), widened outward for rounding.
    Nothing is sampled.

    `bracketed` (default: every gamma) names the gammas whose certified
    bounds the caller reads. On the grid the bracket sums of the other
    gammas are skipped, and their reports carry the vacuous but true
    enclosure [0, inf]; their values are unchanged. The closed form and the
    covering radius bracket every gamma, at no extra cost.
    """
    require("covering_tol", covering_tol, TOL)
    gammas = list(dict.fromkeys(gammas))  # a repeated gamma must not add its grid sums twice
    bad = [g for g in gammas if not g > 0]  # also nan and -inf
    if bad:
        raise ValueError(f"gamma must be positive, got {bad[0]}")
    out: dict[GammaValue, DistanceNormReport] = {}
    if math.inf in gammas:
        cr = covering_radius(ps, covering_tol)
        out[math.inf] = DistanceNormReport(
            gamma=math.inf,
            value=cr.estimate,
            lower_certified=cr.lower,
            upper_certified=cr.upper,
            method="covering",
            resolution=0,
        )
    finite = [g for g in gammas if not math.isinf(g)]
    if not finite:
        return out

    d = ps.dim
    if d == 1:
        xs = np.sort(ps.ints[:, 0])
        method, m = "closed-form-1d", 0
        moments = {g: _moment_1d(xs, ps.denom, g) for g in finite}
    else:
        from scipy.spatial import cKDTree

        method, m = "grid", _default_resolution(d)
        moments = _grid_moments_multi(
            cKDTree(ps.as_array()), d, m, finite, set(gammas if bracketed is None else bracketed)
        )
    for g, (moment, lo, hi) in moments.items():
        lower, upper = _root_outward(lo, hi, g)
        out[g] = DistanceNormReport(
            gamma=g,
            value=_root(moment, g),
            lower_certified=lower,
            upper_certified=upper,
            method=method,
            resolution=m,
        )
    return out


# ---------------------------------------------------------------------------
# Proposition 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prop1Report:
    sigma: float
    v_d: float
    t_d: float
    vol_a_td: float
    vol_a_ok: bool
    vol_b_bound: float
    vol_b_bound_ok: bool
    gammas: tuple[GammaValue, ...]
    norms: tuple[DistanceNormReport, ...]
    lower_bounds: tuple[float, ...]
    lower_ok: tuple[bool, ...]
    ratios: tuple[float, ...]


def hyperplane_section_constant(d: int) -> float:
    """v_d: the maximal (d-1)-volume of a hyperplane section of the cube.

    v_1 = 1 (a point); v_d = sqrt(2) for d >= 2 (diagonal section)."""
    return 1.0 if d == 1 else math.sqrt(2.0)


def verify_prop1(
    lat: IntegrationLattice,
    gammas=(0.5, 1.0, 2.0, math.inf),
    report: SpectralReport | None = None,
    norm_reports: dict[GammaValue, DistanceNormReport] | None = None,
) -> Prop1Report:
    """Check the distance-norm sandwich pieces that are verifiable:

    - Vol(A_{t_d}) >= 1/2 exactly, with t_d = 1/(12 sqrt(d) v_d);
    - Vol(B_t) <= (2 sqrt(d) + 4 sigma) v_d t;
    - t_d sigma / 2^(1/gamma) <= ||dist||_gamma for each gamma (the paper's
      c_d is t_d);
    - the empirical ratios norm_gamma / sigma (the companion constant to C_d
      is unknown, so the ratios are recorded, not asserted).

    B_t is the set of points of the cube within t sigma of a hyperplane
    h.x = k of a shortest dual vector h, and A_t its complement. The plane
    spacing is exactly sigma = 1/||h||, so in units of h.x B_t is the set
    where h.x lies within t of an integer. Vol(B_t) = 2t exactly for every
    nonzero integer h and 0 < t < 1/2: some h_i is a nonzero integer, so
    h_i x_i mod 1 is uniform for x_i uniform on [0, 1], and adding the
    independent rest of h.x keeps h.x mod 1 uniform. So Vol(A_t) = 1 - 2t
    whichever shortest dual vector h is, and only sigma is read.

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
    vol_bt = 2 * t_rat
    vol_at = 1 - vol_bt
    b_bound = (2 * math.sqrt(d) + 4 * sigma) * v_d * float(t_rat)

    gammas = tuple(gammas)
    reports = norm_reports
    if reports is None:
        reports = distance_norms(enumerate_points(lat), gammas)
    norms = tuple(reports[g] for g in gammas)
    # 2^(1/inf) = 1; where 2^(1/gamma) overflows the bound underflows to 0,
    # and only a positive certified end is above the positive bound it stands for
    lower_bounds = tuple(t_d * sigma / _root(2.0, g) for g in gammas)
    lower_ok = tuple(
        r.lower_certified >= lb and r.lower_certified > 0 for r, lb in zip(norms, lower_bounds)
    )
    ratios = tuple(r.value / sigma for r in norms)
    return Prop1Report(
        sigma=sigma,
        v_d=v_d,
        t_d=t_d,
        vol_a_td=float(vol_at),
        vol_a_ok=vol_at >= Fraction(1, 2),
        vol_b_bound=b_bound,
        vol_b_bound_ok=float(vol_bt) <= b_bound + 1e-12,
        gammas=gammas,
        norms=norms,
        lower_bounds=lower_bounds,
        lower_ok=lower_ok,
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# Approximation-error proxy
# ---------------------------------------------------------------------------

def _inv(x) -> Fraction:
    """1/x as an exact rational; x may be a number, Fraction, or inf."""
    if not x >= 1:  # nan fails the comparison
        raise ValueError("p and q must lie in [1, inf]")
    return Fraction(0) if x == math.inf else 1 / Fraction(x)


@dataclass(frozen=True)
class ProxySpec:
    inv_p: Fraction
    inv_q: Fraction
    gamma: Fraction | float  # exact rational, or math.inf
    exponent: Fraction


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
    return ProxySpec(inv_p, inv_q, gamma, exponent)
