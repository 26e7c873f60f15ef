"""Convex bodies in the unit cube, parallel-body volumes, and the Steiner
formula machinery, plus the quantitative sub-exponential bounds on the
binomial-kappa sum.

Geometry here is floating point; exact rational counting for discrepancy
witnesses lives in the discrepancy module. The distance to a polytope is the
same nearest-face search in every dimension, finite and without a
convergence tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.special import gammaln, logsumexp

from .errors import EmptyBodyError
from .montecarlo import McConfig, box_fraction, box_fractions_multi

MIN_MC_BUDGET = 10**4
FEASIBLE_TOL = 1e-10  # max facet margin of a face projection that counts as inside
INCIDENCE_TOL = 1e-9  # |margin| of a vertex on a facet plane
RANK_TOL = 1e-9  # relative singular-value floor of a face's affine hull


# ---------------------------------------------------------------------------
# kappa_j and cube functionals
# ---------------------------------------------------------------------------

def kappa(j: int) -> float:
    """Volume of the j-dimensional Euclidean unit ball, pi^(j/2)/Gamma(1+j/2)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return math.exp(log_kappa(j))


def log_kappa(j: int) -> float:
    """log kappa_j, stable for j up to 1e7 and beyond."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return 0.5 * j * math.log(math.pi) - math.lgamma(1 + 0.5 * j)


def cube_intrinsic_volume(d: int, j: int) -> int:
    """V_j of the unit cube: exactly binomial(d, j)."""
    if not 0 <= j <= d:
        raise ValueError("j out of range")
    return math.comb(d, j)


def cube_quermassintegral(d: int, j: int) -> float:
    """W_j of the unit cube via binom(d,j) W_j = kappa_j V_{d-j}: equals kappa_j."""
    if not 0 <= j <= d:
        raise ValueError("j out of range")
    return kappa(j) * cube_intrinsic_volume(d, d - j) / math.comb(d, j)


def box_quermassintegral(sides, j: int) -> float:
    """W_j of an axis box via binom(d,j) W_j = kappa_j V_{d-j}, with
    V_k(box) = e_k(sides)."""
    sides = np.asarray(sides, dtype=float)
    d = sides.shape[0]
    if not 0 <= j <= d:
        raise ValueError("j out of range")
    e = _elementary_symmetric(sides)
    return kappa(j) * e[d - j] / math.comb(d, j)


def binom_kappa_sum(d: int) -> float:
    """log of sum_{j=1}^d binom(d,j) kappa_j, evaluated in the log domain."""
    if d < 1:
        raise ValueError("d must be positive")
    j = np.arange(1, d + 1, dtype=float)
    log_terms = (
        gammaln(d + 1)
        - gammaln(j + 1)
        - gammaln(d - j + 1)
        + 0.5 * j * math.log(math.pi)
        - gammaln(1 + 0.5 * j)
    )
    return float(logsumexp(log_terms))


def remark_lower(d: int, delta: float) -> float:
    """log of the sub-exponential lower expression for the binomial-kappa sum."""
    if not 0 < delta < 2 / 3:
        raise ValueError("delta must lie in (0, 2/3)")
    if d < 1:
        raise ValueError("d must be positive")
    return -math.log(math.sqrt(2 * math.pi) * math.e * d) + delta * d ** (
        2 / 3 - delta
    ) * math.log(d)


def remark_upper(d: int, kappa_exp: float) -> float:
    """log of the upper expression (d sqrt(2 e^3 pi))^(kappa d^(2/3)),
    implied constant taken as 1."""
    if kappa_exp <= math.e * (2 * math.pi) ** (1 / 3):
        raise ValueError("kappa must exceed e (2 pi)^(1/3)")
    if d < 1:
        raise ValueError("d must be positive")
    return kappa_exp * d ** (2 / 3) * math.log(d * math.sqrt(2 * math.e**3 * math.pi))


# ---------------------------------------------------------------------------
# Volume estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "exact": self.exact,
        }

    @staticmethod
    def exact_value(v: float) -> "VolumeEstimate":
        return VolumeEstimate(v, 0.0, 0, 0, True)


@dataclass(frozen=True)
class OffsetSpec:
    rho: float
    side: str  # "outer" or "inner"

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.side not in ("outer", "inner"):
            raise ValueError('side must be "outer" or "inner"')


# ---------------------------------------------------------------------------
# Convex bodies
# ---------------------------------------------------------------------------

class ConvexBody:
    """Common surface for the body variants; coordinates are floats."""

    variant: str
    dim: int

    def contains_many(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :])[0])

    def dist_many(self, x: np.ndarray, cap: float = math.inf) -> np.ndarray:
        """Euclidean distance to the body (0 inside). A distance above `cap`
        may be reported as +inf; distances up to `cap` are exact."""
        raise NotImplementedError

    def dist_to_body(self, x) -> float:
        return float(self.dist_many(np.asarray(x, dtype=float)[None, :])[0])

    def complement_margin_many(self, x: np.ndarray) -> np.ndarray:
        """Distance to the complement (depth inside the body, 0 outside)."""
        raise NotImplementedError

    def dist_to_complement(self, x) -> float:
        return float(self.complement_margin_many(np.asarray(x, dtype=float)[None, :])[0])

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume_exact(self) -> float | None:
        """Closed-form volume when available, else None."""
        return None

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class Ball(ConvexBody):
    variant = "ball"

    def __init__(self, center: Sequence[float], radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.dim = self.center.shape[0]
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if np.any(self.center - self.radius < -1e-12) or np.any(
            self.center + self.radius > 1 + 1e-12
        ):
            raise ValueError("ball is not contained in the unit cube")

    def contains_many(self, x):
        d = x - self.center
        return np.einsum("ij,ij->i", d, d) <= self.radius**2

    def dist_many(self, x, cap=math.inf):
        d = np.linalg.norm(x - self.center, axis=1) - self.radius
        return np.maximum(d, 0.0)

    def complement_margin_many(self, x):
        d = self.radius - np.linalg.norm(x - self.center, axis=1)
        return np.maximum(d, 0.0)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        v = x - self.center
        n = np.linalg.norm(v)
        if n <= self.radius:
            return x.copy()
        return self.center + v * (self.radius / n)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume_exact(self):
        return kappa(self.dim) * self.radius**self.dim

    def to_json_dict(self):
        return {
            "variant": "ball",
            "center": self.center.tolist(),
            "radius": self.radius,
        }


class AxisBox(ConvexBody):
    variant = "axis_box"

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.dim = self.lower.shape[0]
        if self.upper.shape != self.lower.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower exceeds upper")
        if np.any(self.lower < -1e-12) or np.any(self.upper > 1 + 1e-12):
            raise ValueError("box is not contained in the unit cube")

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    def contains_many(self, x):
        return np.all((x >= self.lower) & (x <= self.upper), axis=1)

    def dist_many(self, x, cap=math.inf):
        gap = np.maximum(np.maximum(self.lower - x, x - self.upper), 0.0)
        return np.linalg.norm(gap, axis=1)

    def complement_margin_many(self, x):
        depth = np.minimum(x - self.lower, self.upper - x).min(axis=1)
        return np.maximum(depth, 0.0)

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def volume_exact(self):
        return float(np.prod(self.sides))

    def to_json_dict(self):
        return {
            "variant": "axis_box",
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


def unit_cube(d: int) -> AxisBox:
    return AxisBox(np.zeros(d), np.ones(d))


class _Faces:
    """Every proper face of a polytope, each stored once by one of its
    vertices and an orthonormal basis of its affine hull (an SVD of the
    vertex differences with a rank tolerance).

    The nearest point of the body to an exterior x lies in the relative
    interior of some face F, where it is the orthogonal projection of x onto
    aff(F) (Wolfe's nearest-point problem, with the active set found by
    enumeration). Every projection that lands in the body is a point of the
    body, so the distance is the least |x - p| over the faces whose
    projection p is feasible: exact, in a fixed number of steps, in any
    dimension. The faces are the facets' vertex sets closed under
    intersection; the vertices themselves are the 0-dimensional faces.
    """

    def __init__(self, vertices: np.ndarray, unit_normals: np.ndarray, unit_offsets: np.ndarray):
        incident = np.abs(vertices @ unit_normals.T - unit_offsets) <= INCIDENCE_TOL
        facets = {sum(1 << int(i) for i in np.flatnonzero(col)) for col in incident.T} - {0}
        faces, frontier = set(facets), set(facets)
        while frontier:
            frontier = {a & b for a in frontier for b in facets} - faces - {0}
            faces |= frontier
        self.unit_normals = unit_normals
        self.unit_offsets = unit_offsets
        # for vertex o and basis Q, x minus its projection onto aff(F) is
        # (x - o) P with P = I - Q^T Q; stored as (P, o P)
        self.residual_maps: list[tuple[np.ndarray, np.ndarray]] = []
        eye = np.eye(vertices.shape[1])
        for mask in sorted(faces, key=lambda f: (f.bit_count(), f)):
            members = vertices[[i for i in range(len(vertices)) if mask >> i & 1]]
            _, s, vt = np.linalg.svd(members[1:] - members[0], full_matrices=False)
            rank = int(np.count_nonzero(s > RANK_TOL * max(1.0, s[0]))) if s.size else 0
            p = eye - vt[:rank].T @ vt[:rank]
            self.residual_maps.append((p, members[0] @ p))

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distances, nearest points) for points outside the body.

        A face whose affine hull is no nearer than the best feasible point
        so far cannot improve on it, so only the remaining points are
        checked for feasibility."""
        best_sq = np.full(x.shape[0], np.inf)
        best_p = np.empty_like(x)
        for p_map, shift in self.residual_maps:
            r = x @ p_map - shift
            dist_sq = np.einsum("ij,ij->i", r, r)
            cand = np.flatnonzero(dist_sq < best_sq)
            if cand.size == 0:
                continue
            p = x[cand] - r[cand]
            ok = (p @ self.unit_normals.T - self.unit_offsets).max(axis=1) <= FEASIBLE_TOL
            sel = cand[ok]
            best_sq[sel] = dist_sq[sel]
            best_p[sel] = p[ok]
        return np.sqrt(best_sq), best_p


class HPolytope(ConvexBody):
    """Intersection of halfspaces a_i . x <= b_i (normals need not be unit)."""

    variant = "h_polytope"

    def __init__(self, normals, offsets, skip_checks: bool = False):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        self.offsets = np.asarray(offsets, dtype=float)
        self.dim = self.normals.shape[1]
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(norms == 0):
            raise ValueError("zero normal vector")
        self._unit_normals = self.normals / norms[:, None]
        self._unit_offsets = self.offsets / norms
        self._vertices: np.ndarray | None = None
        self._face_set: _Faces | None = None
        if not skip_checks:
            self._check_nonempty_and_contained()

    def _chebyshev_lp(self):
        """linprog result for the largest ball inside: maximise r subject to
        a_i . c + |a_i| r <= b_i. Raises EmptyBodyError when infeasible."""
        d = self.dim
        res = linprog(
            c=np.r_[np.zeros(d), -1.0],
            A_ub=np.c_[self.normals, np.linalg.norm(self.normals, axis=1)],
            b_ub=self.offsets,
            bounds=[(None, None)] * d + [(0, None)],
            method="highs",
        )
        if res.status == 2:
            raise EmptyBodyError("H-polytope is empty")
        return res

    def _check_nonempty_and_contained(self):
        d = self.dim
        self._chebyshev_lp()
        for i in range(d):
            # extreme of sign * x_i must stay within [0, 1]
            for sign, limit in ((1.0, 1.0), (-1.0, 0.0)):
                c = np.zeros(d)
                c[i] = -sign
                r = linprog(
                    c=c,
                    A_ub=self.normals,
                    b_ub=self.offsets,
                    bounds=[(None, None)] * d,
                    method="highs",
                )
                if r.status == 3:
                    raise ValueError("H-polytope is unbounded")
                if r.status == 0 and -r.fun > limit + 1e-9:
                    raise ValueError("H-polytope is not contained in the unit cube")

    def margins_many(self, x: np.ndarray) -> np.ndarray:
        """Signed distances to the facet planes; positive means violated."""
        return x @ self._unit_normals.T - self._unit_offsets

    def contains_many(self, x):
        return np.all(self.margins_many(x) <= 1e-12, axis=1)

    def dist_many(self, x, cap=math.inf):
        """Distances, with values certainly above `cap` reported as +inf.

        The max facet margin lower-bounds the distance, so points with
        margin > cap skip projection entirely; points whose single-facet
        projection lands inside get their exact distance for free. The
        remainder takes the exact nearest-face search (`_Faces`).
        """
        m = self.margins_many(x)
        mm = m.max(axis=1)
        out = np.maximum(mm, 0.0)
        over = mm > cap
        out[over] = np.inf
        idx = np.flatnonzero(~over & (mm > 1e-12))
        if idx.size == 0:
            return out
        worst = np.argmax(m[idx], axis=1)
        proj = x[idx] - mm[idx, None] * self._unit_normals[worst]
        hard = idx[~self.contains_many(proj)]
        if hard.size:
            out[hard] = self._faces().nearest(x[hard])[0]
        return out

    def _faces(self) -> _Faces:
        """The face structure, built on the first point that needs it."""
        if self._face_set is None:
            v = self._vertices
            if v is None:
                res = self._chebyshev_lp()
                if res.status != 0 or res.x is None:
                    raise EmptyBodyError("Chebyshev-center LP failed")
                halfspaces = np.c_[self.normals, -self.offsets]
                v = HalfspaceIntersection(halfspaces, res.x[: self.dim]).intersections
            self._face_set = _Faces(v, self._unit_normals, self._unit_offsets)
        return self._face_set

    def set_known_vertices(self, vertices: np.ndarray) -> None:
        """Use these vertices for the face structure instead of computing them."""
        self._vertices = np.asarray(vertices, dtype=float)

    def complement_margin_many(self, x):
        depth = -self.margins_many(x).max(axis=1)
        return np.maximum(depth, 0.0)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if self.contains(x):
            return x.copy()
        return self._faces().nearest(x[None, :])[1][0]

    def bounding_box(self):
        d = self.dim
        lo = np.zeros(d)
        hi = np.zeros(d)
        for i in range(d):
            for sign, tgt in ((1.0, hi), (-1.0, lo)):
                c = np.zeros(d)
                c[i] = -sign
                r = linprog(
                    c=c,
                    A_ub=self.normals,
                    b_ub=self.offsets,
                    bounds=[(None, None)] * d,
                    method="highs",
                )
                if r.status != 0:
                    raise EmptyBodyError("bounding box LP failed")
                tgt[i] = sign * (-r.fun)
        return lo, hi

    def to_json_dict(self):
        return {
            "variant": "h_polytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


class VPolytope(ConvexBody):
    """Convex hull of a vertex list.

    Full-dimensional hulls convert to an internal H-form; the degenerate
    point and segment cases are handled directly (their inner offsets are
    empty and outer offsets reduce to plain distance).
    """

    variant = "v_polytope"

    def __init__(self, vertices):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.dim = self.vertices.shape[1]
        if self.vertices.shape[0] < 1:
            raise ValueError("vertex list is empty")
        if np.any(self.vertices < -1e-12) or np.any(self.vertices > 1 + 1e-12):
            raise ValueError("vertices are not contained in the unit cube")
        self._hform: HPolytope | None = None
        self._segment: tuple[np.ndarray, np.ndarray] | None = None
        uniq = np.unique(self.vertices, axis=0)
        if uniq.shape[0] == 1:
            self._kind = "point"
            self._point = uniq[0]
        else:
            try:
                hull = ConvexHull(self.vertices)
                # equations: A x + b <= 0 inside
                self._hform = HPolytope(
                    hull.equations[:, :-1], -hull.equations[:, -1], skip_checks=True
                )
                self._hform.set_known_vertices(self.vertices[hull.vertices])
                self._hull = hull
                self._kind = "full"
            except QhullError:
                span = uniq - uniq[0]
                if np.linalg.matrix_rank(span, tol=1e-9) == 1:
                    t = span @ span[-1]
                    self._segment = (uniq[np.argmin(t)], uniq[np.argmax(t)])
                    self._kind = "segment"
                else:
                    raise ValueError(
                        "degenerate V-polytope beyond point/segment is not supported"
                    )

    def contains_many(self, x):
        if self._kind == "full":
            return self._hform.contains_many(x)
        return self.dist_many(x) <= 1e-12

    def dist_many(self, x, cap=math.inf):
        if self._kind == "point":
            return np.linalg.norm(x - self._point, axis=1)
        if self._kind == "segment":
            a, b = self._segment
            ab = b - a
            t = np.clip((x - a) @ ab / (ab @ ab), 0.0, 1.0)
            return np.linalg.norm(x - (a + t[:, None] * ab), axis=1)
        return self._hform.dist_many(x, cap)

    def complement_margin_many(self, x):
        if self._kind != "full":
            return np.zeros(x.shape[0])
        return self._hform.complement_margin_many(x)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        if self._kind == "point":
            return self._point.copy()
        if self._kind == "segment":
            a, b = self._segment
            ab = b - a
            t = float(np.clip((x - a) @ ab / (ab @ ab), 0.0, 1.0))
            return a + t * ab
        return self._hform.project(x)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def volume_exact(self):
        if self._kind != "full":
            return 0.0
        return float(self._hull.volume)

    def hull_vertices(self) -> np.ndarray:
        """Hull vertices; for d=2 in counterclockwise boundary order."""
        if self._kind == "point":
            return self._point[None, :]
        if self._kind == "segment":
            return np.vstack(self._segment)
        if self.dim == 2:
            return self.vertices[self._hull.vertices]
        return self.vertices[np.unique(self._hull.vertices)]

    def perimeter_2d(self) -> float:
        if self.dim != 2 or self._kind != "full":
            raise ValueError("perimeter requires a full-dimensional 2-d polytope")
        v = self.hull_vertices()
        return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))

    def to_json_dict(self):
        return {"variant": "v_polytope", "vertices": self.vertices.tolist()}


def dist_to_body(x, body: ConvexBody) -> float:
    """Euclidean distance from x to the body (0 inside)."""
    return body.dist_to_body(x)


def dist_to_complement(x, body: ConvexBody) -> float:
    """Distance from x to the complement of the body (0 outside)."""
    return body.dist_to_complement(x)


def body_from_json_dict(data: dict) -> ConvexBody:
    variant = data["variant"]
    if variant == "ball":
        return Ball(data["center"], data["radius"])
    if variant == "axis_box":
        return AxisBox(data["lower"], data["upper"])
    if variant == "h_polytope":
        return HPolytope(data["normals"], data["offsets"])
    if variant == "v_polytope":
        return VPolytope(data["vertices"])
    raise ValueError(f"unknown body variant {variant!r}")


# ---------------------------------------------------------------------------
# Steiner formula and offsets
# ---------------------------------------------------------------------------

def _elementary_symmetric(values: Iterable[float]) -> list[float]:
    e = [1.0]
    for v in values:
        e = [e[0]] + [e[i] + v * e[i - 1] for i in range(1, len(e))] + [v * e[-1]]
    return e


def box_steiner_volume(sides: np.ndarray, rho: float, outer_only: bool = False) -> float:
    """Vol(box + rho B) = sum_j V_{d-j}(box) kappa_j rho^j with V_k = e_k(sides).

    With `outer_only` the sum starts at j = 1, leaving out the box itself:
    the outer offset volume Vol(box_rho^+)."""
    d = sides.shape[0]
    e = _elementary_symmetric(sides)
    return sum(e[d - j] * kappa(j) * rho**j for j in range(int(outer_only), d + 1))


def _polygon_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def steiner_volume(
    body: ConvexBody, rho: float, mc: McConfig | None = None
) -> VolumeEstimate:
    """Vol(K + rho B) for bodies with known quermassintegrals.

    Exact for balls, axis boxes (any d), and full-dimensional 2-d polytopes
    (area + perimeter rho + pi rho^2). Other variants fall back to Monte
    Carlo with a warning.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if isinstance(body, Ball):
        return VolumeEstimate.exact_value(
            kappa(body.dim) * (body.radius + rho) ** body.dim
        )
    if isinstance(body, AxisBox):
        return VolumeEstimate.exact_value(box_steiner_volume(body.sides, rho))
    if isinstance(body, VPolytope) and body.dim == 2 and body._kind == "full":
        v = body.hull_vertices()
        area = _polygon_area(v)
        return VolumeEstimate.exact_value(
            area + body.perimeter_2d() * rho + math.pi * rho**2
        )
    warnings.warn(
        f"no exact Steiner form for variant {body.variant!r}; Monte Carlo fallback",
        stacklevel=2,
    )
    cfg = mc or McConfig()
    lo, hi = body.bounding_box()
    hits, n = box_fraction(
        lo - rho, hi + rho, lambda x: body.dist_many(x, cap=rho) <= rho, cfg
    )
    return _fraction_estimate(hits, n, lo - rho, hi + rho, cfg.seed)


def _fraction_estimate(hits, n, lo, hi, seed) -> VolumeEstimate:
    box_vol = float(np.prod(hi - lo))
    p = hits / n
    se = box_vol * math.sqrt(max(p * (1 - p), 0.0) / n)
    return VolumeEstimate(box_vol * p, se, n, seed, False)


def ball_offset_volume(ball: Ball, rho: float, side: str) -> float:
    r, d = ball.radius, ball.dim
    if side == "outer":
        return kappa(d) * ((r + rho) ** d - r**d)
    return kappa(d) * (r**d - max(r - rho, 0.0) ** d)


def box_offset_volume(box: AxisBox, rho: float, side: str) -> float:
    if side == "outer":
        return box_steiner_volume(box.sides, rho, outer_only=True)
    inner = float(np.prod(np.maximum(box.sides - 2 * rho, 0.0)))
    return float(np.prod(box.sides)) - inner


def offset_volume(
    body: ConvexBody, spec: OffsetSpec, mc: McConfig | None = None
) -> VolumeEstimate:
    """Vol(K_rho^+) or Vol(K_rho^-): closed form for balls and axis boxes,
    Monte Carlo with binomial standard error otherwise."""
    est = offset_volumes(body, [spec.rho], spec.side, mc)[0]
    return est


def offset_volumes(
    body: ConvexBody, rhos: Sequence[float], side: str, mc: McConfig | None = None
) -> list[VolumeEstimate]:
    """offset_volume at several radii sharing one sampling stream.

    The sampling box is the bounding box inflated by max(rhos) for the outer
    side, so all radii are estimated from the same distance evaluations.
    """
    rhos = [float(r) for r in rhos]
    if any(r < 0 or r > 1 for r in rhos):
        raise ValueError("rho must lie in [0, 1]")
    if side not in ("outer", "inner"):
        raise ValueError('side must be "outer" or "inner"')
    if isinstance(body, Ball):
        return [VolumeEstimate.exact_value(ball_offset_volume(body, r, side)) for r in rhos]
    if isinstance(body, AxisBox):
        return [VolumeEstimate.exact_value(box_offset_volume(body, r, side)) for r in rhos]
    if isinstance(body, VPolytope) and body._kind != "full":
        if side == "inner":
            return [VolumeEstimate.exact_value(0.0) for _ in rhos]
        if body._kind == "point" and body.dim >= 1:
            return [
                VolumeEstimate.exact_value(kappa(body.dim) * r**body.dim) for r in rhos
            ]
    cfg = mc or McConfig()
    if cfg.n_samples < MIN_MC_BUDGET:
        raise ValueError(f"sample budget below {MIN_MC_BUDGET}")
    lo, hi = body.bounding_box()
    if side == "outer":
        rmax = max(rhos)

        def values(x):
            dist = body.dist_many(x, cap=rmax)
            # exclude points of K itself (dist == 0 inside and on the boundary)
            dist[dist <= 0.0] = np.nan
            return dist

        lo, hi = lo - rmax, hi + rmax
    else:
        # only H-polytopes and full hulls get here; one margin pass per chunk
        # gives both membership (contains_many) and depth (complement_margin_many)
        hform = body._hform if isinstance(body, VPolytope) else body

        def values(x):
            depth = -hform.margins_many(x).max(axis=1)
            margin = np.maximum(depth, 0.0)
            margin[depth < -1e-12] = np.nan
            return margin

    counts, n = box_fractions_multi(lo, hi, values, np.array(rhos), cfg)
    return [_fraction_estimate(int(c), n, lo, hi, cfg.seed) for c in counts]


def boundary_neighborhood_volume(
    body: ConvexBody, rho: float, mc: McConfig | None = None
) -> VolumeEstimate:
    """Vol{x in R^d : dist(x, boundary K) <= rho} = outer + inner offsets."""
    outer = offset_volume(body, OffsetSpec(rho, "outer"), mc)
    inner = offset_volume(body, OffsetSpec(rho, "inner"), mc)
    return VolumeEstimate(
        outer.value + inner.value,
        math.hypot(outer.std_error, inner.std_error),
        outer.n_samples + inner.n_samples,
        outer.seed if not outer.exact else inner.seed,
        outer.exact and inner.exact,
    )


def body_volume(body: ConvexBody, mc: McConfig | None = None) -> VolumeEstimate:
    exact = body.volume_exact()
    if exact is not None:
        return VolumeEstimate.exact_value(exact)
    cfg = mc or McConfig()
    lo, hi = body.bounding_box()
    hits, n = box_fraction(lo, hi, body.contains_many, cfg)
    return _fraction_estimate(hits, n, lo, hi, cfg.seed)


def inradius(body: ConvexBody) -> float:
    """Largest radius of a ball contained in the body."""
    if isinstance(body, Ball):
        return body.radius
    if isinstance(body, AxisBox):
        return float(np.min(body.sides)) / 2.0
    if isinstance(body, VPolytope):
        if body._kind != "full":
            return 0.0
        body = body._hform
    if isinstance(body, HPolytope):
        res = body._chebyshev_lp()
        if res.status != 0:
            raise RuntimeError(f"inradius LP failed with status {res.status}")
        return float(-res.fun)
    raise TypeError(f"unsupported body type {type(body).__name__}")


def parallel_body_volume(body: ConvexBody, rho: float) -> float:
    """v(rho) = Vol(K_rho) in closed form; rho may be negative (inner body).

    Supported for balls and axis boxes.
    """
    if isinstance(body, Ball):
        if rho < -body.radius:
            return 0.0
        return kappa(body.dim) * (body.radius + rho) ** body.dim
    if isinstance(body, AxisBox):
        if rho >= 0:
            return box_steiner_volume(body.sides, rho)
        return float(np.prod(np.maximum(body.sides + 2 * rho, 0.0)))
    raise TypeError("closed-form parallel volume needs a ball or an axis box")


def surface_area_parallel(body: ConvexBody, rho: float) -> float:
    """d W_1(K_rho): the derivative of the parallel-body volume at rho."""
    if isinstance(body, Ball):
        r = body.radius + rho
        if r < 0:
            return 0.0
        return body.dim * kappa(body.dim) * r ** (body.dim - 1)
    if isinstance(body, AxisBox):
        d = body.dim
        if rho >= 0:
            e = _elementary_symmetric(body.sides)
            return sum(j * e[d - j] * kappa(j) * rho ** (j - 1) for j in range(1, d + 1))
        shrunk = body.sides + 2 * rho
        if np.any(shrunk < 0):
            return 0.0
        total = 0.0
        for i in range(d):
            total += 2 * float(np.prod(np.delete(shrunk, i)))
        return total
    raise TypeError("closed-form surface area needs a ball or an axis box")


def parallel_volume_derivative_check(
    body: ConvexBody, rho: float, h: float
) -> tuple[float, float]:
    """(central finite difference of v at rho, analytic d W_1(K_rho))."""
    if h <= 0:
        raise ValueError("h must be positive")
    if rho - h <= -inradius(body):
        raise ValueError("rho - h must stay above -r(K)")
    fd = (parallel_body_volume(body, rho + h) - parallel_body_volume(body, rho - h)) / (
        2 * h
    )
    return fd, surface_area_parallel(body, rho)


# ---------------------------------------------------------------------------
# Random body corpus
# ---------------------------------------------------------------------------

def random_body(d: int, rng: np.random.Generator, kind: str | None = None) -> ConvexBody:
    """One random body inside the cube: ball, axis box, tangent H-polytope,
    or (d <= 3) a hull of random points."""
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    kind = kind or kinds[int(rng.integers(len(kinds)))]
    if kind == "ball":
        r = float(rng.uniform(0.05, 0.2))
        c = rng.uniform(r, 1 - r, size=d)
        return Ball(c, r)
    if kind == "box":
        a = rng.uniform(0, 1, size=d)
        b = rng.uniform(0, 1, size=d)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        hi = np.maximum(hi, lo + 0.05)
        return AxisBox(lo, np.minimum(hi, 1.0))
    if kind == "hpoly":
        r = float(rng.uniform(0.08, 0.2))
        c = rng.uniform(r + 0.05, 1 - r - 0.05, size=d)
        k = 2 * d + int(rng.integers(2, 7))
        u = rng.normal(size=(k, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        normals = np.vstack([u, np.eye(d), -np.eye(d)])
        offsets = np.r_[u @ c + r, np.ones(d), np.zeros(d)]
        return HPolytope(normals, offsets)
    if kind == "hull":
        m = int(rng.integers(d + 2, 33))
        pts = rng.uniform(0.05, 0.95, size=(m, d))
        return VPolytope(pts)
    raise ValueError(f"unknown body kind {kind!r}")


def random_bodies(d: int, count: int, rng: np.random.Generator) -> list[ConvexBody]:
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    out = []
    for i in range(count):
        out.append(random_body(d, rng, kinds[i % len(kinds)]))
    return out
