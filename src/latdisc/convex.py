"""Convex bodies in the unit cube, parallel-body volumes, and the Steiner
formula machinery, plus the quantitative sub-exponential bounds on the
binomial-kappa sum.

Geometry here is floating point; exact rational counting for discrepancy
witnesses lives in the discrepancy module. Each body gives its intrinsic
volumes and its inner parallel volumes in closed form, as floats, and
nothing here samples or measures a distance: balls and boxes in every d; a
polytope's intrinsic volumes come from the face lattice (its faces'
contents by the cone recursion and external angles, d <= 4) and its inner
parallel body is again an H-polytope, measured by qhull. Parallel volumes,
offsets and surface areas are one Steiner polynomial for every body. qhull
proposes vertices, volumes and inner bodies only; no face is measured by a
hull of its own.

Importing this module loads numpy only. scipy is imported inside the
functions that call it: qhull and the Chebyshev LP (HiGHS through
`scipy.optimize.milp`) by the polytope methods, gammaln and logsumexp by
`binom_kappa_sum`. A full V-polytope runs qhull's hull when it is built.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import EmptyBodyError

INCIDENCE_TOL = 1e-9  # |margin| of a vertex on a facet plane
RANK_TOL = 1e-9  # relative singular-value floor of a face's affine hull
_DEGENERATE_HULL = "degenerate V-polytope beyond point/segment is not supported"
_ONE_DIM = "polytopes need d >= 2, got d = 1; an interval is an AxisBox"


# ---------------------------------------------------------------------------
# kappa_j and the binomial-kappa sum
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


_KAPPA_BLOCK = 1 << 17  # terms per block of binom_kappa_sum


def binom_kappa_sum(d: int) -> float:
    """log of sum_{j=1}^d binom(d,j) kappa_j, evaluated in the log domain.

    The terms are summed in blocks of `_KAPPA_BLOCK`, each block's log-sum
    added to a running total, so memory stays bounded for any d; a d up to
    the block size is one block, the plain `logsumexp` of all the terms."""
    if d < 1:
        raise ValueError("d must be positive")
    from scipy.special import gammaln, logsumexp

    total = -math.inf
    for start in range(1, d + 1, _KAPPA_BLOCK):
        j = np.arange(start, min(start + _KAPPA_BLOCK, d + 1), dtype=float)
        log_terms = (
            gammaln(d + 1)
            - gammaln(j + 1)
            - gammaln(d - j + 1)
            + 0.5 * j * math.log(math.pi)
            - gammaln(1 + 0.5 * j)
        )
        total = np.logaddexp(total, logsumexp(log_terms))
    return float(total)


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
    if not math.e * (2 * math.pi) ** (1 / 3) < kappa_exp < math.inf:  # refuses nan too
        raise ValueError(f"kappa must be a finite number above e (2 pi)^(1/3), got {kappa_exp}")
    if d < 1:
        raise ValueError("d must be positive")
    return kappa_exp * d ** (2 / 3) * math.log(d * math.sqrt(2 * math.e**3 * math.pi))


# ---------------------------------------------------------------------------
# Convex bodies
# ---------------------------------------------------------------------------

def _finite(field: str, values) -> np.ndarray:
    """`values` as a float array; ValueError naming the field if an entry is
    nan or infinite."""
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{field} must be finite, got {array.tolist()}")
    return array


class ConvexBody:
    """Common surface for the body variants; coordinates are floats. Each
    body gives its intrinsic volumes and inner parallel volumes in closed
    form; the rest is one Steiner polynomial v(rho) = sum_j V_{d-j} kappa_j
    rho^j (Schneider, Convex Bodies, 2nd ed., ch. 4), in ascending powers."""

    dim: int

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def inradius(self) -> float:
        """Largest radius of a ball contained in the body."""
        raise NotImplementedError

    def intrinsic_volumes(self) -> Sequence[float]:
        """V_0..V_d, the coefficients of the Steiner polynomial."""
        raise NotImplementedError

    def inner_volume(self, rho: float) -> float:
        """Vol{x : B(x, rho) inside the body}, the inner parallel body at rho >= 0."""
        raise NotImplementedError

    def _steiner(self, rho: float, start: int) -> float:
        """sum_{j >= start} V_{d-j} kappa_j rho^j."""
        v, d = self.intrinsic_volumes(), self.dim
        return sum(v[d - j] * kappa(j) * rho**j for j in range(start, d + 1))

    def parallel_volume(self, rho: float) -> float:
        """v(rho) = Vol(K + rho B); rho < 0 gives the inner parallel body."""
        if rho >= 0:
            return self._steiner(rho, 0)
        return self.inner_volume(-rho)

    def offset_volume(self, rho: float, side: str) -> float:
        """Vol(K_rho^+) = v(rho) - Vol(K), the Steiner sum from j = 1, on the
        "outer" side, else Vol(K_rho^-) = Vol(K) - `inner_volume(rho)`."""
        if side == "outer":
            return self._steiner(rho, 1)
        return self.volume() - self.inner_volume(rho)

    def surface_area(self, rho: float) -> float:
        """d W_1(K_rho) = v'(rho), for rho >= 0 only."""
        if rho < 0:
            raise ValueError(f"surface areas need rho >= 0, got rho = {rho}")
        v, d = self.intrinsic_volumes(), self.dim
        return sum(j * v[d - j] * kappa(j) * rho ** (j - 1) for j in range(1, d + 1))


class Ball(ConvexBody):
    def __init__(self, center: Sequence[float], radius: float):
        self.center = _finite("center", center)
        self.radius = float(_finite("radius", radius))
        self.dim = self.center.shape[0]
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if np.any(self.center - self.radius < -1e-12) or np.any(
            self.center + self.radius > 1 + 1e-12
        ):
            raise ValueError("ball is not contained in the unit cube")
        # V_k = binom(d, k) kappa_d / kappa_{d-k} r^k, each V_k from V_{k-1}, so
        # no factor leaves float range in any d (kappa_d is 0.0 beyond d ~ 450)
        d, r, self._intrinsic = self.dim, self.radius, [1.0]
        for k in range(1, d + 1):
            ratio = math.exp(log_kappa(d - k + 1) - log_kappa(d - k))  # kappa_{d-k+1} / kappa_{d-k}
            self._intrinsic.append(self._intrinsic[-1] * (d - k + 1) / k * ratio * r)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def volume(self):
        return kappa(self.dim) * self.radius**self.dim

    def inradius(self):
        return self.radius

    def intrinsic_volumes(self):
        return self._intrinsic

    def inner_volume(self, rho):
        return kappa(self.dim) * max(self.radius - rho, 0.0) ** self.dim


class AxisBox(ConvexBody):
    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        self.lower = _finite("lower", lower)
        self.upper = _finite("upper", upper)
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

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def volume(self):
        return float(np.prod(self.sides))

    def inradius(self):
        return float(np.min(self.sides)) / 2.0

    def intrinsic_volumes(self):
        """V_k = e_k(sides), the elementary symmetric polynomials."""
        e = [1.0]
        for side in self.sides:
            e = [e[0]] + [e[i] + side * e[i - 1] for i in range(1, len(e))] + [side * e[-1]]
        return e

    def inner_volume(self, rho):
        return float(np.prod(np.maximum(self.sides - 2 * rho, 0.0)))


def unit_cube(d: int) -> AxisBox:
    return AxisBox(np.zeros(d), np.ones(d))


class _Faces:
    """The face lattice of a polytope, for its intrinsic volumes. The proper
    faces are the planes' vertex sets closed under intersection, each stored
    once, in order of vertex count and then of vertex set: a row of the
    boolean face x vertex matrix `members`, its vertex count, its dimension
    and an orthonormal basis of its affine hull (an SVD of the vertex
    differences with a rank tolerance, one stacked SVD per vertex count).
    `in_facet` is the boolean face x facet incidence and `facet_normals` the
    facets' unit normals, in face order. The vertices themselves are the
    0-dimensional faces.
    """

    def __init__(self, vertices: np.ndarray, unit_normals: np.ndarray, unit_offsets: np.ndarray):
        incident = np.abs(vertices @ unit_normals.T - unit_offsets) <= INCIDENCE_TOL
        # HalfspaceIntersection repeats a non-simple vertex; a vertex is fixed
        # by the planes it lies on, so the first copy per incidence row is kept
        keep = _first_rows(incident)
        vertices, incident = vertices[keep], incident[keep]
        n, d = vertices.shape
        planes: dict[int, int] = {}  # vertex set (bit i: vertex i) -> first plane with that set
        for i, col in enumerate(np.packbits(incident, axis=0, bitorder="little").T):
            planes.setdefault(int.from_bytes(col.tobytes(), "little"), i)
        planes.pop(0, None)
        faces, frontier = set(planes), set(planes)
        while frontier:
            frontier = {a & b for a in frontier for b in planes} - faces - {0}
            faces |= frontier
        masks = sorted(faces, key=lambda f: (f.bit_count(), f))
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(f.to_bytes(width, "little") for f in masks), np.uint8)
        self.vertices = vertices
        self.members = np.unpackbits(
            packed.reshape(len(masks), width), axis=1, count=n, bitorder="little"
        ).astype(bool)
        self.counts = self.members.sum(axis=1)
        self.dims = np.zeros(len(masks), dtype=int)
        self.bases = [np.zeros((0, d))] * len(masks)
        for count in np.unique(self.counts):
            group = np.flatnonzero(self.counts == count)
            points = self._stacked(group)
            _, s, vt = np.linalg.svd(points[:, 1:] - points[:, :1], full_matrices=False)
            self.dims[group] = np.count_nonzero(s > RANK_TOL * np.maximum(1.0, s[:, :1]), axis=1)
            for f, basis in zip(group, vt):
                self.bases[f] = basis[: self.dims[f]]
        # a facet is a vertex set of dimension d - 1: a redundant plane touches
        # the body in a smaller face, and coplanar planes share one vertex set
        facets = np.flatnonzero(self.dims == d - 1)
        self.facet_normals = unit_normals[[planes[masks[f]] for f in facets]]
        # a face lies in a facet iff none of its vertices is outside it
        outside = self.members.astype(np.int64) @ (~self.members[facets]).T.astype(np.int64)
        self.in_facet = outside == 0

    def _stacked(self, group: np.ndarray) -> np.ndarray:
        """The vertices of faces of one vertex count, in vertex order, as a
        (faces, count, d) array."""
        d = self.vertices.shape[1]
        return self.vertices[np.nonzero(self.members[group])[1]].reshape(len(group), -1, d)

    def external_angles(self) -> np.ndarray:
        """The external angle of each face of dimension >= 1, nan at the
        vertices: 1/2 at a facet, else the angle of the cone spanned by the
        unit normals of the facets that contain the face, taken together
        for all faces of one codimension and one number of facets."""
        d = self.vertices.shape[1]
        codims = d - self.dims
        sizes = self.in_facet.sum(axis=1)
        angles = np.where(codims == 1, 0.5, np.nan)
        cones = (self.dims > 0) & (codims > 1)
        for codim, k in set(zip(codims[cones], sizes[cones])):
            group = np.flatnonzero(cones & (codims == codim) & (sizes == k))
            normals = self.facet_normals[np.nonzero(self.in_facet[group])[1]].reshape(-1, k, d)
            angles[group] = _wedge_angles(normals) if codim == 2 else _solid_angles(normals)
        return angles

    def contents(self) -> np.ndarray:
        """vol_k(F) of each face F, 0 at the vertices: the recursion of
        `intrinsic_volumes`, one numpy pass per k = 2..d-1. h_{F,G} is
        p_F - p_G less its projection onto G's basis, p_G the mean of G's
        vertices."""
        d = self.vertices.shape[1]
        contents = np.zeros(len(self.dims))
        edges = np.flatnonzero(self.dims == 1)
        for count in np.unique(self.counts[edges]):
            group = edges[self.counts[edges] == count]
            along = _matvec(self._stacked(group), np.array([self.bases[f][0] for f in group]))
            contents[group] = np.ptp(along, axis=1)
        centres = self.members @ self.vertices / self.counts[:, None]
        for k in range(2, d):
            faces, sides = np.flatnonzero(self.dims == k), np.flatnonzero(self.dims == k - 1)
            # G lies in F iff none of G's vertices is outside F, as for `in_facet`
            # (the counts are small integers, exact in floats)
            outside = self.members[sides].astype(float) @ (~self.members[faces]).T
            g, f = np.nonzero(outside == 0)
            bases = np.array([self.bases[s] for s in sides])[g]
            offset = centres[faces[f]] - centres[sides[g]]
            normal = offset - np.einsum("pij,pi->pj", bases, _matvec(bases, offset))
            heights = np.sqrt(_dot(normal, normal))
            cones = np.bincount(f, heights * contents[sides[g]], minlength=len(faces))
            contents[faces] = cones / k
        return contents

    def intrinsic_volumes(self, volume: float) -> np.ndarray:
        """V_0..V_d of the polytope of this volume: V_0 = 1, V_d = volume and
        V_j = sum over the j-faces F of vol_j(F) times the external angle of F
        (Schneider, Convex Bodies, 2nd ed., ch. 4). For d <= 4 every face of
        dimension 1..d-1 has a normal cone of dimension at most 3.

        vol_j(F) comes from `contents`, without qhull: an edge's length, and
        for a k-face F, k >= 2, the cone recursion

            vol_k(F) = (1/k) sum over the (k-1)-faces G of F of h_{F,G} vol_{k-1}(G),

        F cut into pyramids over its facets G with apex p_F, the mean of F's
        vertices, and heights h_{F,G} = dist(p_F, aff G). p_F is a mean of
        all of F's vertices, so it lies inside F, on the inner side of every
        facet: each pyramid's signed height is the distance h_{F,G} >= 0, and
        the pyramids tile F with no term cancelling another. The terms are
        added one face at a time, in face order."""
        d = self.vertices.shape[1]
        contents = self.contents()
        v = np.zeros(d + 1)
        v[0], v[d] = 1.0, volume
        faces = np.flatnonzero(self.dims > 0)
        np.add.at(v, self.dims[faces], contents[faces] * self.external_angles()[faces])
        return v


def _first_rows(rows: np.ndarray) -> list[int]:
    """The index of the first occurrence of each distinct row of a boolean
    matrix, in ascending order: one dict over the bit-packed rows."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(np.packbits(rows, axis=1)):
        first.setdefault(row.tobytes(), i)
    return list(first.values())  # a dict keeps insertion order


def _wedge_angles(normals: np.ndarray) -> np.ndarray:
    """The angle between the two unit normals of each (2, d) stack entry, as
    a fraction of the full circle."""
    cos = _dot(normals[:, 0], normals[:, 1])
    return np.arccos(np.clip(cos, -1.0, 1.0)) / (2 * math.pi)


def _solid_angles(normals: np.ndarray) -> np.ndarray:
    """The solid angle of the cone spanned by the k unit normals of each
    (k, d) stack entry, whose span is 3-dimensional, as a fraction of the
    full sphere.

    The normals are taken to coordinates of their 3-d span and sorted
    cyclically about their mean m, which lies inside the cone; the cone is
    then the fan of triangles (m, n_i, n_i+1), each measured by the Van
    Oosterom-Strackee formula (IEEE Trans. Biomed. Eng., 1983)."""
    u = normals @ np.linalg.svd(normals)[2][:, :3].transpose(0, 2, 1)
    m = u.sum(axis=1)
    m /= np.sqrt(_dot(m, m))[:, None]
    e1 = u[:, 0] - _dot(u[:, 0], m)[:, None] * m
    e1 /= np.sqrt(_dot(e1, e1))[:, None]
    order = np.argsort(np.arctan2(_matvec(u, np.cross(m, e1)), _matvec(u, e1)), axis=1)
    a = np.take_along_axis(u, order[:, :, None], axis=1)
    b = np.roll(a, -1, axis=1)
    num = np.abs(_matvec(np.cross(a, b), m))
    den = 1.0 + _matvec(a, m) + _matvec(b, m) + np.einsum("bij,bij->bi", a, b)
    return 2 * np.arctan2(num, den).sum(axis=1) / (4 * math.pi)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i, rounded as that product is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a[i] @ v[i] for each matrix a[i] and row v[i], rounded as that product is."""
    return (a @ v[:, :, None])[:, :, 0]


def _halfspace_intersection(normals: np.ndarray, offsets: np.ndarray, centre: np.ndarray):
    """qhull's intersection of the halfspaces a_i . x <= b_i, seeded at the
    interior point `centre`. On an unbounded set its vertices at infinity
    divide by zero; the caller rejects that set, so the warnings are
    silenced."""
    from scipy.spatial import HalfspaceIntersection

    with np.errstate(divide="ignore", invalid="ignore"):
        return HalfspaceIntersection(np.column_stack([normals, -offsets]), centre)


class _Polytope(ConvexBody):
    """What H- and V-polytopes share, each value computed once: the planes
    a_i . x <= b_i (`normals`, `offsets` and their unit versions), the
    vertices, the Chebyshev ball, the face lattice, the volume and the
    intrinsic volumes. A point or a segment has no planes: its volume 0,
    Chebyshev radius 0 and intrinsic volumes are set when it is built."""

    _vertices: np.ndarray
    _cheb: tuple[np.ndarray, float] | None = None
    _volume: float | None = None
    _intrinsic: np.ndarray | None = None
    _face_set: _Faces | None = None

    def _set_planes(self, normals: np.ndarray, offsets: np.ndarray) -> None:
        self.normals, self.offsets = normals, offsets
        norms = np.linalg.norm(normals, axis=1)
        self._unit_normals = normals / norms[:, None]
        self._unit_offsets = offsets / norms

    def _chebyshev(self) -> tuple[np.ndarray, float]:
        """Centre and radius of the largest ball inside (the inradius), from
        the LP: maximise r >= 0 subject to a_i . c + |a_i| r <= b_i.

        HiGHS solves it, called through `milp` with no integer variables:
        the same solver as `linprog(method="highs")` and the same centre and
        radius, bit for bit, behind a leaner front end. No vertex check can
        stand in for the LP: qhull needs a strictly interior point before any
        vertex exists, and the radius is both `inner_volume`'s zero test and
        the inradius."""
        if self._cheb is None:
            from scipy.optimize import Bounds, LinearConstraint, milp

            d = self.dim
            a_ub = np.column_stack([self.normals, np.linalg.norm(self.normals, axis=1)])
            res = milp(
                np.concatenate([np.zeros(d), [-1.0]]),
                constraints=LinearConstraint(a_ub, -np.inf, self.offsets),
                bounds=Bounds(np.concatenate([np.full(d, -np.inf), [0.0]]), np.inf),
            )
            if res.status == 2:
                raise EmptyBodyError("H-polytope is empty")
            if res.status == 3:
                raise ValueError("H-polytope is unbounded")
            if res.status != 0:
                raise EmptyBodyError("Chebyshev-center LP failed")
            self._cheb = (res.x[:d], float(-res.fun))
        return self._cheb

    def _faces(self) -> _Faces:
        """The face structure, built on the first call that needs it."""
        if self._face_set is None:
            self._face_set = _Faces(self._vertices, self._unit_normals, self._unit_offsets)
        return self._face_set

    def volume(self) -> float:
        """qhull's volume of the vertices."""
        if self._volume is None:
            from scipy.spatial import ConvexHull

            self._volume = float(ConvexHull(self._vertices).volume)
        return self._volume

    def intrinsic_volumes(self) -> np.ndarray:
        """V_0..V_d, the coefficients of the Steiner polynomial, for d <= 4.

        Beyond d = 4, V_1 needs solid angles of normal cones of dimension 4
        and more, which have no elementary closed form (Ribando, Discrete
        Comput. Geom., 2006)."""
        if self._intrinsic is None:
            if self.dim > 4:
                raise ValueError(
                    f"parallel volumes of polytopes need d <= 4, got d = {self.dim}"
                )
            self._intrinsic = self._faces().intrinsic_volumes(self.volume())
        return self._intrinsic

    def inner_volume(self, rho: float) -> float:
        """Vol{x : B(x, rho) inside the body}, the volume of
        {a_i . x <= b_i - rho} with unit normals: qhull's halfspace
        intersection seeded at the Chebyshev centre, about which the
        Chebyshev ball shrinks by rho. 0 once rho reaches the inradius (the
        set is then at most a lower-dimensional piece)."""
        centre, radius = self._chebyshev()
        if rho >= radius:
            return 0.0
        from scipy.spatial import ConvexHull

        hs = _halfspace_intersection(self._unit_normals, self._unit_offsets - rho, centre)
        return float(ConvexHull(hs.intersections).volume)

    def inradius(self) -> float:
        return self._chebyshev()[1]

    def bounding_box(self):
        """Extremes of the vertices (a bounded polytope is their hull)."""
        return self._vertices.min(axis=0), self._vertices.max(axis=0)


class HPolytope(_Polytope):
    """Intersection of halfspaces a_i . x <= b_i (normals need not be unit).

    Checked when built: full-dimensional (the Chebyshev LP), bounded, and
    inside the cube up to 1e-9. qhull intersects the halfspaces in the dual
    about the Chebyshev centre c, where plane i is the point
    a_i / (b_i - a_i . c); {A x <= b} is bounded iff the origin is strictly
    inside the hull of those points, that is every dual facet offset is
    below -1e-9. qhull fails on points that span less than R^d (k <= d or
    rank A < d), an unbounded set as well. The vertices found are kept, and
    their extremes decide containment."""

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(_finite("normals", normals))
        offsets = _finite("offsets", offsets)
        self.dim = normals.shape[1]
        if offsets.shape != normals.shape[:1]:
            raise ValueError(
                f"offsets must hold one entry per normal ({normals.shape[0]}), "
                f"got shape {offsets.shape}"
            )
        if np.any(np.linalg.norm(normals, axis=1) == 0):
            raise ValueError("zero normal vector")
        if self.dim == 1:
            raise ValueError(_ONE_DIM)
        self._set_planes(normals, offsets)
        centre, radius = self._chebyshev()
        if radius <= 0:
            raise EmptyBodyError("H-polytope has an empty interior")
        from scipy.spatial import QhullError

        try:
            hs = _halfspace_intersection(normals, offsets, centre)
        except QhullError:
            hs = None
        if hs is None or np.any(hs.dual_equations[:, -1] >= -1e-9):
            raise ValueError("H-polytope is unbounded")
        self._vertices = hs.intersections  # a non-simple vertex may appear more than once
        lo, hi = self.bounding_box()
        if np.any(lo < -1e-9) or np.any(hi > 1 + 1e-9):
            raise ValueError("H-polytope is not contained in the unit cube")


class VPolytope(_Polytope):
    """Convex hull of a vertex list.

    Decided when the body is built, from the rank of the vertex differences:
    a point, a segment (d >= 2), or a full-dimensional hull; any other set
    raises ValueError. A point or a segment stores its closed forms (volume
    0, Chebyshev radius 0, intrinsic volumes 1 and the segment's length). A
    full hull runs qhull once and stores its planes, vertices and volume; if
    qhull finds the set flat after all, it raises the same ValueError.
    """

    def __init__(self, vertices):
        self.vertices = np.atleast_2d(_finite("vertices", vertices))
        self.dim = self.vertices.shape[1]
        if self.vertices.size == 0:
            raise ValueError("vertex list is empty")
        if np.any(self.vertices < -1e-12) or np.any(self.vertices > 1 + 1e-12):
            raise ValueError("vertices are not contained in the unit cube")
        uniq = np.unique(self.vertices, axis=0)
        span = uniq - uniq[0]
        rank = np.linalg.matrix_rank(span, tol=1e-9)
        if len(uniq) > 1 and self.dim == 1:
            raise ValueError(_ONE_DIM)
        if len(uniq) == 1 or rank == 1:  # a point or a segment, between its ends
            t = span @ span[-1]
            ends = uniq[[np.argmin(t), np.argmax(t)]]
            self._vertices, self._volume, self._cheb = ends, 0.0, (ends[0], 0.0)
            self._intrinsic = np.zeros(self.dim + 1)
            self._intrinsic[:2] = 1.0, float(np.linalg.norm(ends[1] - ends[0]))
        elif rank == self.dim:
            from scipy.spatial import ConvexHull, QhullError

            try:
                hull = ConvexHull(self.vertices)
            except QhullError:
                raise ValueError(_DEGENERATE_HULL) from None
            # equations: A x + b <= 0 inside
            self._set_planes(hull.equations[:, :-1], -hull.equations[:, -1])
            self._vertices = self.vertices[hull.vertices]
            self._volume = float(hull.volume)
        else:
            raise ValueError(_DEGENERATE_HULL)


def _is_number(x) -> bool:
    """A finite float, or an int (not a bool) that a float can hold."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_vector(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _is_rows(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_vector, v)) and (
        len({len(row) for row in v}) == 1
    )


_NUMBER = ("a finite number", _is_number)
_VECTOR = ("a non-empty list of finite numbers", _is_vector)
_ROWS = ("a non-empty list of equally long, non-empty lists of finite numbers", _is_rows)

_BODY_FIELDS = {  # variant: (class, {field: (what it must be, predicate)})
    "ball": (Ball, {"center": _VECTOR, "radius": _NUMBER}),
    "axis_box": (AxisBox, {"lower": _VECTOR, "upper": _VECTOR}),
    "h_polytope": (HPolytope, {"normals": _ROWS, "offsets": _VECTOR}),
    "v_polytope": (VPolytope, {"vertices": _ROWS}),
}


def body_from_json_dict(data: dict) -> ConvexBody:
    """The body a JSON object names by its `variant` and that variant's
    fields. ValueError names a non-object input, an unknown variant, a
    field the variant does not have, a missing field or a field of the
    wrong shape."""
    if not isinstance(data, dict):
        raise ValueError(f"a body must be a JSON object, got {data!r}")
    if "variant" not in data:
        raise ValueError("body is missing the field 'variant'")
    variant = data["variant"]
    if not isinstance(variant, str) or variant not in _BODY_FIELDS:
        raise ValueError(f"unknown body variant {variant!r}")
    cls, rules = _BODY_FIELDS[variant]
    unknown = sorted(set(data) - {"variant", *rules})
    if unknown:
        raise ValueError(f"unknown {variant} body field(s): {', '.join(unknown)}")
    for name, (expected, ok) in rules.items():
        if name not in data:
            raise ValueError(f"{variant} body is missing the field {name!r}")
        if not ok(data[name]):
            value = data[name]
            raise ValueError(f"{variant} body field {name!r} must be {expected}, got {value!r}")
    return cls(*(data[name] for name in rules))


# ---------------------------------------------------------------------------
# Steiner formula and offsets
# ---------------------------------------------------------------------------

def _radius(rho) -> float:
    """rho as a float; ValueError naming rho unless it lies in [0, 1], the
    radii of the paper's parallel bodies inside the unit cube."""
    rho = float(rho)
    if not 0 <= rho <= 1:  # nan fails both comparisons
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return rho


def steiner_volume(body: ConvexBody, rho: float) -> float:
    """Vol(K + rho B): the body's `parallel_volume` at rho in [0, 1]."""
    return body.parallel_volume(_radius(rho))


def offset_volumes(body: ConvexBody, rhos: Sequence[float], side: str) -> list[float]:
    """The body's `offset_volume` on one side at each radius in [0, 1].
    Polytopes need d <= 4 on the outer side."""
    rhos = [_radius(r) for r in rhos]
    if side not in ("outer", "inner"):
        raise ValueError('side must be "outer" or "inner"')
    return [body.offset_volume(r, side) for r in rhos]


def boundary_neighborhood_volume(body: ConvexBody, rho: float) -> float:
    """Vol{x in R^d : dist(x, boundary K) <= rho} = outer + inner offsets."""
    rho = _radius(rho)
    return body.offset_volume(rho, "outer") + body.offset_volume(rho, "inner")


def parallel_volume_derivative_check(
    body: ConvexBody, rho: float, h: float
) -> tuple[float, float]:
    """(central finite difference of v at rho, analytic d W_1(K_rho)), rho >= 0."""
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = body.surface_area(rho)
    if rho - h <= -body.inradius():
        raise ValueError("rho - h must stay above -r(K)")
    fd = (body.parallel_volume(rho + h) - body.parallel_volume(rho - h)) / (2 * h)
    return fd, analytic


# ---------------------------------------------------------------------------
# Random body corpus
# ---------------------------------------------------------------------------

def random_body(d: int, rng: np.random.Generator, kind: str) -> ConvexBody:
    """One random body of the given kind inside the cube: a ball, an axis
    box, a tangent H-polytope ("hpoly") or a hull of random points."""
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
        offsets = np.concatenate([u @ c + r, np.ones(d), np.zeros(d)])
        return HPolytope(normals, offsets)
    if kind == "hull":
        m = int(rng.integers(d + 2, 33))
        pts = rng.uniform(0.05, 0.95, size=(m, d))
        return VPolytope(pts)
    raise ValueError(f"unknown body kind {kind!r}")

