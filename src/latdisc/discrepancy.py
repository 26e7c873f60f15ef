"""Certified lower bounds for the isotropic discrepancy of lattice point
sets, and the d 2^(2(d+1)) sigma upper-bound verdict.

Witness families: empty dual slabs, half-space cuts and 2-d convex hulls
(exact volumes), and random balls (an exact rational enclosure of the
volume). Every witness is certified: its value is a true lower bound for
the isotropic discrepancy, and any of them may decide the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .convex import AxisBox, Ball, ConvexBody, HPolytope, VolumeEstimate, VPolytope
from .lattice import IntegrationLattice, LatticePointSet, enumerate_points
from .montecarlo import chunk_rng
from .reduction import (
    SpectralReport,
    hyperplane_family,
    shortest_dual_vectors,
    spectral_test,
)

Vec = tuple[Fraction, ...]

SNAP_DENOM = 1 << 20


# ---------------------------------------------------------------------------
# Exact half-space geometry
# ---------------------------------------------------------------------------

def _scaled_cut(a, b) -> tuple[list[int], int, int]:
    """The cut a.x <= b of the cube in integers: zero coefficients dropped,
    negative ones reflected via x -> 1 - x, then all scaled by the common
    denominator c. Returns (pos, t, c); the cube volume is that of pos.x <= t.
    """
    a = [Fraction(x) for x in a]
    b = Fraction(b) - sum(x for x in a if x < 0)
    pos = [abs(x) for x in a if x]
    c = math.lcm(b.denominator, *(x.denominator for x in pos))
    scaled = [x.numerator * (c // x.denominator) for x in pos]
    return scaled, b.numerator * (c // b.denominator), c


def _ie_sum(pos: list[int], t: int, power: int) -> int:
    """sum over subsets S of pos of (-1)^|S| (t - sum S)_+^power."""
    sums = [(0, 1)]
    for x in pos:
        sums += [(s + x, -sgn) for s, sgn in sums]
    return sum(sgn * (t - s) ** power for s, sgn in sums if t > s)


def halfspace_cube_volume(a, b) -> Fraction:
    """Vol({x in [0,1]^d : a.x <= b}) by inclusion-exclusion, exact.

    Zero coefficients factor out; negative ones are reflected. The closed
    form is sum over vertex subsets S of (-1)^|S| (b - a_S)_+^k / (k! prod a),
    evaluated in integers after scaling the cut to integer coefficients.
    """
    pos, t, _ = _scaled_cut(a, b)
    if not pos:
        return Fraction(int(t >= 0))
    return Fraction(_ie_sum(pos, t, len(pos)), math.factorial(len(pos)) * math.prod(pos))


def halfspace_cube_volume_derivative(a, b) -> Fraction:
    """d/db of the half-space cube volume.

    Equals Vol_{d-1}({a.x = b} cap cube) / ||a||_2, so multiplying by ||a||
    gives the exact cross-section measure.
    """
    pos, t, c = _scaled_cut(a, b)
    k = len(pos)
    if k == 0 or t <= 0 or t >= sum(pos):
        return Fraction(0)
    return Fraction(c * _ie_sum(pos, t, k - 1), math.factorial(k - 1) * math.prod(pos))


# math.pi is pi correctly rounded, so it lies within half an ulp, 2^-52, of pi
_PI_LO = Fraction(math.pi) - Fraction(1, 1 << 52)
_PI_HI = Fraction(math.pi) + Fraction(1, 1 << 52)


def ball_volume_enclosure(d: int, r) -> tuple[Fraction, Fraction]:
    """Rationals lo <= kappa_d r^d <= hi enclosing the volume of a d-ball of
    rational radius r.

    kappa_d is a rational times pi^m: pi^m / m! for d = 2m and
    2^d m! pi^m / d! for d = 2m + 1. Powers of the bounds on pi enclose pi^m,
    so the relative width is about 2 m 2^-52 / pi.
    """
    m, odd = divmod(d, 2)
    c = Fraction(2**d * math.factorial(m), math.factorial(d)) if odd else Fraction(1, math.factorial(m))
    scale = c * Fraction(r) ** d
    return scale * _PI_LO**m, scale * _PI_HI**m


# ---------------------------------------------------------------------------
# Exact counting
#
# A point is P / D with P an integer vector (LatticePointSet.ints). A rational
# linear form a.p is s / scale with s = m.P an integer, so every comparison
# against a rational threshold is an integer comparison against a threshold
# rounded once, exactly. Products run in int64 when a magnitude bound shows
# they cannot overflow, and on Python-int object arrays otherwise.
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _exact_ints(ps: LatticePointSet, bound: int) -> np.ndarray:
    """The points' integers, as Python-int objects when `bound` (a bound on
    every intermediate magnitude) does not fit in int64."""
    return ps.ints if bound <= _INT64_MAX else ps.ints.astype(object)


def _scaled_dot(ps: LatticePointSet, a) -> tuple[np.ndarray, int]:
    """Integers s and a scale with a.p = s[i] / scale for every point p."""
    a = [Fraction(x) for x in a]
    q = math.lcm(*(x.denominator for x in a))
    m = [x.numerator * (q // x.denominator) for x in a]
    ints = _exact_ints(ps, sum(map(abs, m)) * ps.denom)
    return ints @ np.array(m, dtype=ints.dtype), q * ps.denom


def _at_most(s: np.ndarray, t: int) -> np.ndarray:
    """s <= t elementwise. An int64 s lies inside the int64 range, so
    clamping t into that range leaves the answer unchanged."""
    if s.dtype != object:
        t = min(max(t, -_INT64_MAX), _INT64_MAX)
    return np.asarray(s <= t, dtype=bool)


def _in_halfspaces(ps: LatticePointSet, halfspaces) -> np.ndarray:
    """Mask of the points with a.p <= b for every (a, b), exact."""
    inside = np.ones(ps.n, dtype=bool)
    for a, b in halfspaces:
        s, scale = _scaled_dot(ps, a)
        inside &= _at_most(s, math.floor(Fraction(b) * scale))
    return inside


def _in_ball(ps: LatticePointSet, ball: Ball) -> np.ndarray:
    """Mask of |p - c|^2 <= r^2, exact. With c = C/S, r = R/S and p = P/D
    this is sum_i (S P_i - D C_i)^2 <= (D R)^2."""
    c = [Fraction(v) for v in ball.center.tolist()]
    r = Fraction(ball.radius)
    scale = math.lcm(r.denominator, *(x.denominator for x in c))
    cs = [x.numerator * (scale // x.denominator) for x in c]
    big_c = max(abs(x) for x in cs)
    ints = _exact_ints(ps, ps.dim * (ps.denom * (scale + big_c)) ** 2)
    u = ints * scale - np.array(cs, dtype=ints.dtype) * ps.denom
    big_r = r.numerator * (scale // r.denominator)
    return _at_most((u * u).sum(axis=1), (ps.denom * big_r) ** 2)


def count_points_halfspace(ps: LatticePointSet, a, b) -> int:
    return int(np.count_nonzero(_in_halfspaces(ps, [(a, b)])))


def count_points_slab(ps: LatticePointSet, h, lo, hi, closed: bool = True) -> int:
    """Points with lo <= h.x <= hi (or strict when closed=False), exact."""
    s, scale = _scaled_dot(ps, h)
    lo, hi = Fraction(lo) * scale, Fraction(hi) * scale
    if closed:
        inside = _at_most(-s, -math.ceil(lo)) & _at_most(s, math.floor(hi))
    else:
        inside = _at_most(-s, -math.floor(lo) - 1) & _at_most(s, math.ceil(hi) - 1)
    return int(np.count_nonzero(inside))


def _hull_halfplanes(hull: list[Vec]) -> list[tuple[Vec, Fraction]]:
    """Half-planes (a, b), a.p <= b, whose intersection is the closed
    counterclockwise hull: a polygon, a segment, or a point."""
    if len(hull) >= 3:
        return [
            ((q[1] - p[1], p[0] - q[0]), (q[1] - p[1]) * p[0] - (q[0] - p[0]) * p[1])
            for p, q in zip(hull, hull[1:] + hull[:1])
        ]
    p, q = hull[0], hull[-1]
    # a segment is its line and the two end caps; a point is a segment whose
    # direction is taken as e_1
    e = (q[0] - p[0], q[1] - p[1]) if len(hull) == 2 else (Fraction(1), Fraction(0))
    n = (e[1], -e[0])
    n_p = n[0] * p[0] + n[1] * p[1]
    return [
        (n, n_p),
        ((-n[0], -n[1]), -n_p),
        (e, e[0] * q[0] + e[1] * q[1]),
        ((-e[0], -e[1]), -(e[0] * p[0] + e[1] * p[1])),
    ]


def convex_hull_2d(points: list[Vec]) -> list[Vec]:
    """Andrew's monotone chain on exact rational points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[Vec] = []
        for p in seq:
            while len(out) >= 2:
                o, q = out[-2], out[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return lower[:-1] + upper[:-1]


def polygon_area_exact(hull: list[Vec]) -> Fraction:
    if len(hull) < 3:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        acc += a[0] * b[1] - a[1] * b[0]
    return abs(acc) / 2


def _exact_halfspaces(body: ConvexBody) -> list[tuple[Vec, Fraction]]:
    """A box, an H-polytope or a 2-d hull as exact half-spaces a.x <= b."""
    if isinstance(body, HPolytope):
        return [
            ([Fraction(v) for v in row], Fraction(b))
            for row, b in zip(body.normals.tolist(), body.offsets.tolist())
        ]
    if isinstance(body, AxisBox):
        unit = np.eye(body.dim, dtype=int).tolist()
        return [(e, Fraction(v)) for e, v in zip(unit, body.upper.tolist())] + [
            ([-x for x in e], -Fraction(v)) for e, v in zip(unit, body.lower.tolist())
        ]
    if isinstance(body, VPolytope) and body.dim == 2:
        return _hull_halfplanes(
            convex_hull_2d([tuple(Fraction(v) for v in row) for row in body.vertices.tolist()])
        )
    raise TypeError(f"exact counting not supported for {type(body).__name__}")


def count_points(ps: LatticePointSet, body: ConvexBody) -> int:
    """Exact membership count for balls, boxes, H-polytopes, and 2-d hulls.

    Float parameters are dyadic rationals, so all comparisons are exact;
    membership is closed, matching closed witness bodies.
    """
    if isinstance(body, Ball):
        inside = _in_ball(ps, body)
    else:
        inside = _in_halfspaces(ps, _exact_halfspaces(body))
    return int(np.count_nonzero(inside))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscrepancyWitness:
    body: ConvexBody
    inside_count: int
    volume: VolumeEstimate
    local_value: float
    family: str
    local_value_exact: Fraction | None = None
    dual_slab: tuple[tuple[int, ...], int] | None = None  # (h, k) of a dual-slab witness

    @property
    def certified(self) -> bool:
        return self.local_value_exact is not None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "body": self.body.to_json_dict(),
            "inside_count": self.inside_count,
            "volume": self.volume.to_json_dict(),
            "local_value": self.local_value,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class Thm1Report:
    lattice_id: str
    dim: int
    n_points: int
    sigma: float
    j_lower: float
    bound: float
    old_bound: float
    verdict: str
    slab_value: float
    slab_floor: float
    slab_floor_ok: bool
    best_family: str
    n_witnesses: int

    def to_json_dict(self) -> dict:
        return {
            "lattice_id": self.lattice_id,
            "d": self.dim,
            "N": self.n_points,
            "sigma": self.sigma,
            "j_lower": self.j_lower,
            "bound": self.bound,
            "old_bound": self.old_bound,
            "verdict": self.verdict,
            "slab_value": self.slab_value,
            "slab_floor": self.slab_floor,
            "slab_floor_ok": self.slab_floor_ok,
            "best_family": self.best_family,
            "n_witnesses": self.n_witnesses,
        }


def _slab_eps_functional(h: tuple[int, ...]) -> Fraction:
    """Rational upper bound of 1e-9 * ||h||: a Euclidean shrink of 1e-9."""
    hh = sum(x * x for x in h)
    return Fraction(math.isqrt(hh * 10**18) + 1, 10**18)


def _cube_slab_body(h: tuple[int, ...], lo: Fraction, hi: Fraction, d: int) -> HPolytope:
    normals = np.vstack([np.array(h, dtype=float), -np.array(h, dtype=float), np.eye(d), -np.eye(d)])
    offsets = np.r_[float(hi), -float(lo), np.ones(d), np.zeros(d)]
    return HPolytope(normals, offsets, skip_checks=True)


def _best_slab(h: tuple[int, ...]) -> tuple[int, Fraction]:
    """The first k maximising Vol(k + eps <= h.x <= k + 1 - eps) over the
    slabs between adjacent planes that meet the cube, and that volume.

    Scaled by eps's denominator q every cut has integer coefficients q|h_i|,
    so all slab volumes share one denominator and compare as integers.
    """
    eps = _slab_eps_functional(h)
    q, e = eps.denominator, eps.numerator
    shift = -sum(x for x in h if x < 0)  # reflecting x -> 1 - x for h_i < 0
    pos = [q * abs(x) for x in h if x]
    best_k, best = None, None
    for k in range(-shift, sum(x for x in h if x > 0)):
        t = q * (k + shift)
        v = _ie_sum(pos, t + q - e, len(pos)) - _ie_sum(pos, t + e, len(pos))
        if best is None or v > best:
            best_k, best = k, v
    if best_k is None or best <= 0:
        raise AssertionError("no slab with positive cube intersection")
    return best_k, Fraction(best, math.factorial(len(pos)) * math.prod(pos))


def slab_witness(
    lat: IntegrationLattice,
    h: tuple[int, ...] | None = None,
    points: LatticePointSet | None = None,
) -> DiscrepancyWitness:
    """The empty slab between adjacent covering hyperplanes of the dual
    vector h (shortest dual when omitted), shrunk by a Euclidean 1e-9 so the
    closed witness contains no lattice point; all values exact."""
    if h is None:
        h = shortest_dual_vectors(lat, 1)[0]
    ps = points if points is not None else enumerate_points(lat)
    h = hyperplane_family(lat, h).h  # raises unless h is a dual vector
    best_k, best_vol = _best_slab(h)
    eps = _slab_eps_functional(h)
    lo, hi = best_k + eps, best_k + 1 - eps
    inside = count_points_slab(ps, h, lo, hi)
    if inside != 0:
        raise AssertionError("slab witness contains lattice points; dual vector invalid")
    body = _cube_slab_body(h, lo, hi, lat.dim)
    return DiscrepancyWitness(
        body=body,
        inside_count=0,
        volume=VolumeEstimate.exact_value(float(best_vol)),
        local_value=float(best_vol),
        family="dual-slab",
        local_value_exact=best_vol,
        dual_slab=(h, best_k),
    )


def _snap(x: float) -> Fraction:
    return Fraction(round(x * SNAP_DENOM), SNAP_DENOM)


def _snap_unit(x: float) -> Fraction:
    """Snap into the dyadic grid, clamped to [0, 1] (rounding may overshoot)."""
    return min(max(_snap(x), Fraction(0)), Fraction(1))


def _halfspace_witness(
    ps: LatticePointSet, rng: np.random.Generator, pts_float: np.ndarray
) -> DiscrepancyWitness:
    """Best |count/N - volume| over thresholds of one random direction.

    Float screening picks the candidate; the returned value is re-certified
    in exact arithmetic (volume, count, and tie handling).
    """
    d = ps.dim
    n = ps.n
    while True:
        a_f = rng.normal(size=d)
        if np.linalg.norm(a_f) > 1e-9:
            break
    a_f /= np.linalg.norm(a_f)
    a = [_snap(v) for v in a_f]
    if not any(a):
        a[0] = Fraction(1)
    a_float = np.array([float(v) for v in a])
    proj = pts_float @ a_float
    order = np.argsort(proj, kind="stable")
    ts = proj[order]
    vols = _halfspace_volume_float(a_float, ts)
    cnt_le = np.searchsorted(ts, ts, side="right")
    cnt_lt = np.searchsorted(ts, ts, side="left")
    cand_close = np.abs(cnt_le / n - vols)
    cand_open = np.abs(cnt_lt / n - vols)
    j_closed = int(np.argmax(cand_close))
    j_open = int(np.argmax(cand_open))
    use_open = cand_open[j_open] > cand_close[j_closed]
    j = j_open if use_open else j_closed
    s, scale = _scaled_dot(ps, a)
    b_exact = Fraction(int(s[order[j]]), scale)
    if use_open:
        b_exact -= Fraction(1, 1 << 40)
    vol = halfspace_cube_volume(a, b_exact)
    count = int(np.count_nonzero(_at_most(s, math.floor(b_exact * scale))))
    local = abs(Fraction(count, n) - vol)
    body = _cube_halfspace_body(a, b_exact, d)
    return DiscrepancyWitness(
        body=body,
        inside_count=count,
        volume=VolumeEstimate.exact_value(float(vol)),
        local_value=float(local),
        family="halfspace",
        local_value_exact=local,
    )


def _halfspace_volume_float(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Float inclusion-exclusion volumes for many thresholds at once."""
    pos = np.abs(a[a != 0])
    shift = -a[a < 0].sum()
    k = pos.shape[0]
    if k == 0:
        return (bs >= 0).astype(float)
    subset_sums = np.zeros(1)
    signs = np.ones(1)
    for x in pos:
        subset_sums = np.r_[subset_sums, subset_sums + x]
        signs = np.r_[signs, -signs]
    t = (bs[:, None] + shift) - subset_sums[None, :]
    np.maximum(t, 0.0, out=t)
    acc = (t**k * signs[None, :]).sum(axis=1)
    denom = math.factorial(k) * float(np.prod(pos))
    return np.clip(acc / denom, 0.0, 1.0)


def _cube_halfspace_body(a: list[Fraction], b: Fraction, d: int) -> HPolytope:
    normals = np.vstack([np.array([float(v) for v in a]), np.eye(d), -np.eye(d)])
    offsets = np.r_[float(b), np.ones(d), np.zeros(d)]
    return HPolytope(normals, offsets, skip_checks=True)


def _ball_witness(ps: LatticePointSet, rng: np.random.Generator) -> DiscrepancyWitness:
    """Random ball inside the cube: exact count and an exact enclosure
    [lo, hi] of its volume (`ball_volume_enclosure`). The certified value is
    the distance from count/N to [lo, hi], at most |count/N - volume|."""
    d = ps.dim
    r = float(rng.uniform(0.05, 0.45))
    c = rng.uniform(r, 1 - r, size=d)
    r_snap = max(float(_snap(r)), 1 / SNAP_DENOM)
    center = [
        min(max(float(_snap(v)), r_snap), 1.0 - r_snap) for v in c
    ]  # snapping may overshoot the containment margin
    ball = Ball(center, r_snap)
    count = count_points(ps, ball)
    lo, hi = ball_volume_enclosure(d, Fraction(r_snap))
    frac = Fraction(count, ps.n)
    local = max(lo - frac, frac - hi, Fraction(0))
    return DiscrepancyWitness(
        body=ball,
        inside_count=count,
        volume=VolumeEstimate(float((lo + hi) / 2), False),
        local_value=float(local),
        family="ball",
        local_value_exact=local,
    )


def _hull_witness(ps: LatticePointSet, rng: np.random.Generator) -> DiscrepancyWitness:
    """2-d hull of random rational points: exact area and count."""
    m = int(rng.integers(3, 9))
    raw = rng.uniform(0, 1, size=(m, 2))
    pts = [tuple(_snap_unit(v) for v in row) for row in raw]
    hull = convex_hull_2d(pts)
    area = polygon_area_exact(hull)
    count = int(np.count_nonzero(_in_halfspaces(ps, _hull_halfplanes(hull))))
    local = abs(Fraction(count, ps.n) - area)
    body = VPolytope([[float(x) for x in v] for v in hull] if len(hull) >= 3 else [[float(x) for x in v] for v in pts])
    return DiscrepancyWitness(
        body=body,
        inside_count=count,
        volume=VolumeEstimate.exact_value(float(area)),
        local_value=float(local),
        family="hull",
        local_value_exact=local,
    )


def isotropic_lower_bound(
    ps: LatticePointSet,
    budget: int,
    seed: int,
    n_slabs: int = 10,
    report: SpectralReport | None = None,
) -> tuple[DiscrepancyWitness, list[DiscrepancyWitness]]:
    """Search for the best witness; every witness is certified.

    Candidate i draws from a stream keyed by (seed, i), so a larger budget
    extends (never reshuffles) the candidate list and the best value is
    monotone in the budget for a fixed seed. `report`, the spectral test of
    `ps.source`, lends the slab search its reduced dual basis.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    witnesses: list[DiscrepancyWitness] = []
    if ps.source is not None:
        for h in shortest_dual_vectors(ps.source, n_slabs, report):
            witnesses.append(slab_witness(ps.source, h, points=ps))
    pts_float = ps.as_array()
    for i in range(budget):
        rng = chunk_rng(seed, i)
        kind = i % 3
        if kind == 1:
            witnesses.append(_ball_witness(ps, rng))
        elif kind == 2 and ps.dim == 2:
            witnesses.append(_hull_witness(ps, rng))
        else:
            witnesses.append(_halfspace_witness(ps, rng, pts_float))
    best = max(witnesses, key=lambda w: (w.local_value_exact, w.family, w.inside_count))
    return best, witnesses


def verify_thm1(
    lat: IntegrationLattice,
    budget: int = 12,
    seed: int = 0,
    lattice_id: str = "",
    report: SpectralReport | None = None,
    points: LatticePointSet | None = None,
) -> Thm1Report:
    """PASS iff the best certified lower bound respects min(1, d 2^(2(d+1)) sigma),
    and the slab witness stays above a fifth of its exact cross-section floor."""
    rep = report if report is not None else spectral_test(lat)
    ps = points if points is not None else enumerate_points(lat)
    best, witnesses = isotropic_lower_bound(ps, budget, seed, report=rep)
    return thm1_verdict(lat, rep, best, witnesses, lattice_id)


def thm1_verdict(
    lat: IntegrationLattice,
    rep: SpectralReport,
    best: DiscrepancyWitness,
    witnesses: list[DiscrepancyWitness],
    lattice_id: str = "",
) -> Thm1Report:
    """The Theorem 1 verdict from a finished witness search (see verify_thm1)."""
    d = lat.dim
    nsq = rep.dual_norm_sq
    j = best.local_value_exact
    factor = d * 2 ** (2 * (d + 1))
    # j <= min(1, factor * sigma), decided in exact arithmetic
    ok_one = j <= 1
    ok_bound = j * j * nsq <= Fraction(factor) ** 2
    slab = next(w for w in witnesses if w.family == "dual-slab")
    # the floor is the cross-section of the slab witness's own (h, k)
    h, best_k = slab.dual_slab
    cross = halfspace_cube_volume_derivative(h, Fraction(2 * best_k + 1, 2))
    floor = Fraction(1, 5) * cross  # 0.2 * sigma * cross-section; sigma*CS = dV/db
    ok_slab = slab.local_value_exact >= floor and slab.local_value_exact > 0
    verdict = "PASS" if (ok_one and ok_bound) else "FAIL"
    return Thm1Report(
        lattice_id=lattice_id,
        dim=d,
        n_points=lat.n_points,
        sigma=rep.sigma,
        j_lower=float(j),
        bound=factor * rep.sigma,
        old_bound=d * d * 2**d * rep.sigma,
        verdict=verdict,
        slab_value=slab.local_value,
        slab_floor=float(floor),
        slab_floor_ok=bool(ok_slab),
        best_family=best.family,
        n_witnesses=len(witnesses),
    )
