"""LLL reduction, exact shortest vectors, the spectral test, and the
fundamental-cell diameter.

LLL runs in exact rational arithmetic and records the unimodular transform.
The shortest-vector search enumerates coefficient vectors with floating
Gram-Schmidt pruning and certifies every candidate exactly, so the reported
minimum carries no floating doubt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionGuardError
from .lattice import IntegrationLattice, dual_basis
from .ratlin import (
    Mat,
    Vec,
    as_mat,
    det,
    mat_mul,
    norm_sq,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)

SVP_DIMENSION_CAP = 12


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: rational rows, the exact unimodular transform, and delta."""

    dim: int
    rows: Mat
    delta: Fraction
    transform: tuple[tuple[int, ...], ...]
    source: Mat

    def rows_float(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.rows])


@dataclass(frozen=True)
class ShortestVector:
    """Exact SVP minimizer with its integer coefficients in the given basis."""

    vector: Vec
    coefficients: tuple[int, ...]
    norm_sq_exact: Fraction

    @property
    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq_exact))


@dataclass(frozen=True)
class SpectralReport:
    sigma: float
    shortest_dual: tuple[int, ...]
    dual_norm: float
    diam_cell: float
    lll_delta: float
    dual_norm_sq: int
    diam_cell_sq: Fraction
    # LLL reduction of the dual basis, reused by `shortest_dual_vectors`
    dual_reduced: ReducedBasis = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "shortest_dual": list(self.shortest_dual),
            "dual_norm": self.dual_norm,
            "diam_cell": self.diam_cell,
            "lll_delta": self.lll_delta,
        }


@dataclass(frozen=True)
class HyperplaneFamily:
    """The planes {h.x = k} for a dual vector h, restricted to the cube."""

    h: tuple[int, ...]
    spacing: float
    k_min: int
    k_max: int

    @property
    def count(self) -> int:
        return self.k_max - self.k_min + 1


def _gram_schmidt(rows: list[Vec]) -> tuple[list[Vec], list[list[Fraction]]]:
    d = len(rows)
    ortho: list[Vec] = []
    mu = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        v = rows[i]
        for j in range(i):
            denom = norm_sq(ortho[j])
            mu[i][j] = vec_dot(rows[i], ortho[j]) / denom
            v = vec_sub(v, vec_scale(ortho[j], mu[i][j]))
        ortho.append(v)
    return ortho, mu


def lll_reduce(basis, delta: float | Fraction = Fraction(3, 4)) -> ReducedBasis:
    """Exact LLL reduction recording the unimodular transform U.

    Output satisfies |mu_ij| <= 1/2 and the Lovasz condition for the given
    delta, and equals U . input exactly (verified before returning).
    """
    src = as_mat(basis)
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta <= 1:
        raise ValueError("delta must lie in (1/4, 1]")
    d = len(src)
    if det(src) == 0:
        raise ValueError("basis rows are linearly dependent")
    rows = list(src)
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    ortho, mu = _gram_schmidt(rows)
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                rows[k] = vec_sub(rows[k], vec_scale(rows[j], Fraction(q)))
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                ortho, mu = _gram_schmidt(rows)
        if norm_sq(ortho[k]) >= (delta - mu[k][k - 1] ** 2) * norm_sq(ortho[k - 1]):
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            ortho, mu = _gram_schmidt(rows)
            k = max(k - 1, 1)

    out = tuple(rows)
    transform = tuple(tuple(r) for r in u)
    if abs(det(as_mat(transform))) != 1:
        raise AssertionError("LLL transform is not unimodular")
    if mat_mul(as_mat(transform), src) != out:
        raise AssertionError("LLL transform does not reproduce the output basis")
    return ReducedBasis(d, out, delta, transform, src)


def _float_gram_schmidt(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = b.shape[0]
    mu = np.zeros((d, d))
    bstar = np.zeros_like(b)
    bstar_sq = np.zeros(d)
    for i in range(d):
        v = b[i].copy()
        for j in range(i):
            mu[i, j] = np.dot(b[i], bstar[j]) / bstar_sq[j]
            v -= mu[i, j] * bstar[j]
        bstar[i] = v
        bstar_sq[i] = np.dot(v, v)
    return mu, bstar_sq


def _exact_combination(rows: Mat, coeffs: tuple[int, ...]) -> Vec:
    d = len(rows[0])
    acc = tuple(Fraction(0) for _ in range(d))
    for c, row in zip(coeffs, rows):
        if c:
            acc = vec_add(acc, vec_scale(row, Fraction(c)))
    return acc


def enumerate_below(rows: Mat, bound_sq: Fraction) -> list[tuple[tuple[int, ...], Fraction]]:
    """All nonzero coefficient vectors (one per +-sign pair) whose lattice
    vector has exact squared norm <= bound_sq.

    Coefficient vectors are returned sign-normalized (first nonzero entry
    positive) and deduplicated. The float pruning radius carries a relative
    safety margin; membership in the bound is always decided exactly.
    """
    d = len(rows)
    b = np.array([[float(x) for x in r] for r in rows])
    mu, bstar_sq = _float_gram_schmidt(b)
    if np.any(bstar_sq <= 0):
        raise ValueError("basis rows are linearly dependent")
    radius = float(bound_sq) * (1 + 1e-9) + 1e-12

    found: dict[tuple[int, ...], Fraction] = {}
    coeff = [0] * d

    def search(level: int, used: float) -> None:
        if level < 0:
            if any(coeff):
                u = tuple(coeff)
                if u[next(i for i in range(d) if u[i])] < 0:
                    u = tuple(-c for c in u)
                if u not in found:
                    nsq = norm_sq(_exact_combination(rows, u))
                    if nsq <= bound_sq:
                        found[u] = nsq
            return
        center = -sum(mu[j, level] * coeff[j] for j in range(level + 1, d))
        budget = radius - used
        if budget < 0:
            return
        half = math.sqrt(budget / bstar_sq[level])
        for c in range(math.ceil(center - half - 1e-9), math.floor(center + half + 1e-9) + 1):
            step = bstar_sq[level] * (c - center) ** 2
            if step <= budget * (1 + 1e-12) + 1e-12:
                coeff[level] = c
                search(level - 1, used + step)
        coeff[level] = 0

    search(d - 1, 0.0)
    return sorted(found.items(), key=lambda kv: (kv[1], kv[0]))


def _check_reduction(src: Mat, reduced: ReducedBasis | None) -> ReducedBasis:
    """`reduced` if it is the LLL reduction of `src`, else reduce `src` now."""
    if reduced is None:
        return lll_reduce(src)
    if reduced.source != src:
        raise ValueError("reduced is not a reduction of this basis")
    return reduced


def shortest_vector(basis, reduced: ReducedBasis | None = None) -> ShortestVector:
    """Exact minimizer of the Euclidean norm over nonzero lattice vectors.

    LLL-seeded Fincke-Pohst enumeration; ties broken by the lexicographically
    smallest coefficient vector with positive leading entry. Coefficients are
    reported relative to the *input* basis. `reduced` is the basis's
    `lll_reduce`, computed here when omitted.
    """
    src = as_mat(basis)
    d = len(src)
    if d > SVP_DIMENSION_CAP:
        raise DimensionGuardError(
            f"shortest_vector supports d <= {SVP_DIMENSION_CAP}, got {d}"
        )
    reduced = _check_reduction(src, reduced)
    bound = min(norm_sq(r) for r in reduced.rows)
    hits = enumerate_below(reduced.rows, bound)
    best_norm = min(nsq for _, nsq in hits)
    candidates = []
    for u_red, nsq in hits:
        if nsq != best_norm:
            continue
        # convert coefficients back to the input basis: v = u_red . U . src
        u_src = tuple(
            sum(u_red[i] * reduced.transform[i][j] for i in range(d)) for j in range(d)
        )
        if u_src[next(i for i in range(d) if u_src[i])] < 0:
            u_src = tuple(-c for c in u_src)
        candidates.append(u_src)
    coeffs = min(candidates)
    vec = _exact_combination(src, coeffs)
    if norm_sq(vec) != best_norm:
        raise AssertionError("certificate mismatch in shortest_vector")
    return ShortestVector(vec, coeffs, best_norm)


def shortest_vectors(
    basis, k: int, reduced: ReducedBasis | None = None
) -> list[ShortestVector]:
    """The k shortest lattice vectors, one per +-sign pair, in deterministic
    (norm, coefficient) order. May return fewer only if k exceeds the number
    of lattice vectors in a greatly inflated search radius (not expected).
    `reduced` is the basis's `lll_reduce`, computed here when omitted."""
    src = as_mat(basis)
    d = len(src)
    if d > SVP_DIMENSION_CAP:
        raise DimensionGuardError(
            f"shortest_vectors supports d <= {SVP_DIMENSION_CAP}, got {d}"
        )
    reduced = _check_reduction(src, reduced)
    bound = min(norm_sq(r) for r in reduced.rows)
    for _ in range(8):
        hits = enumerate_below(reduced.rows, bound)
        if len(hits) >= k:
            break
        bound *= 4
    out = []
    for u_red, nsq in hits[:k]:
        u_src = tuple(
            sum(u_red[i] * reduced.transform[i][j] for i in range(d)) for j in range(d)
        )
        if u_src[next(i for i in range(d) if u_src[i])] < 0:
            u_src = tuple(-c for c in u_src)
        out.append(ShortestVector(_exact_combination(src, u_src), u_src, nsq))
    return out


def cell_diameter(rb: ReducedBasis) -> float:
    """Diameter of the fundamental parallelotope spanned by the rows."""
    return math.sqrt(float(cell_diameter_sq(rb)))


def cell_diameter_sq(rb: ReducedBasis) -> Fraction:
    """Exact squared diameter: max over sign patterns of ||sum e_i b_i||^2.

    Negation symmetry fixes the first sign, leaving 2^(d-1) patterns.
    """
    d = rb.dim
    best = Fraction(0)
    for mask in range(1 << (d - 1)):
        v = rb.rows[0]
        for i in range(1, d):
            if (mask >> (i - 1)) & 1:
                v = vec_sub(v, rb.rows[i])
            else:
                v = vec_add(v, rb.rows[i])
        best = max(best, norm_sq(v))
    return best


def spectral_test(
    lat: IntegrationLattice, delta: float | Fraction = Fraction(3, 4)
) -> SpectralReport:
    """sigma(L) = 1 / (shortest nonzero dual vector norm), with the
    fundamental-cell diameter of the LLL-reduced primal basis.

    The construction-time invariants (sigma <= sqrt(d) and
    diam <= d 2^(d-1) sigma) are verified exactly and raise on violation.
    """
    if lat.dim > SVP_DIMENSION_CAP:
        raise DimensionGuardError(
            f"spectral_test supports d <= {SVP_DIMENSION_CAP}, got {lat.dim}"
        )
    dual_reduced = lll_reduce(dual_basis(lat).basis)
    sv = shortest_vector(dual_reduced.source, dual_reduced)
    nsq = int(sv.norm_sq_exact)
    h = tuple(int(x) for x in sv.vector)
    rb = lll_reduce(lat.basis, delta)
    diam_sq = cell_diameter_sq(rb)
    d = lat.dim
    if Fraction(1, nsq) > d:  # sigma^2 <= d
        raise AssertionError("sigma exceeds sqrt(d)")
    if diam_sq * nsq > Fraction(d * 2 ** (d - 1)) ** 2:
        raise AssertionError(
            "cell diameter violates diam <= d 2^(d-1) sigma; LLL output suspect"
        )
    return SpectralReport(
        sigma=1.0 / math.sqrt(nsq),
        shortest_dual=h,
        dual_norm=math.sqrt(nsq),
        diam_cell=math.sqrt(float(diam_sq)),
        lll_delta=float(delta),
        dual_norm_sq=nsq,
        diam_cell_sq=diam_sq,
        dual_reduced=dual_reduced,
    )


def shortest_dual_vectors(
    lat: IntegrationLattice, k: int, report: SpectralReport | None = None
) -> list[tuple[int, ...]]:
    """The k shortest dual-lattice vectors (one per sign pair) as integer
    vectors, shortest first. `report`, the lattice's `spectral_test`, lends
    its reduced dual basis; the basis is reduced here when omitted."""
    reduced = report.dual_reduced if report is not None else lll_reduce(dual_basis(lat).basis)
    return [tuple(int(x) for x in sv.vector) for sv in shortest_vectors(reduced.source, k, reduced)]


def hyperplane_family(lat: IntegrationLattice, h) -> HyperplaneFamily:
    """Descriptor of the parallel planes {x : h.x = k} for a dual vector h.

    Verifies h in L-perp exactly; reports the plane spacing and the indices k
    whose plane meets the closed unit cube.
    """
    h = tuple(int(x) for x in h)
    if not any(h):
        raise ValueError("h must be nonzero")
    hv = as_mat([h])[0]
    for row in lat.basis:
        if vec_dot(row, hv).denominator != 1:
            raise ValueError("h is not in the dual lattice")
    lo = sum(min(x, 0) for x in h)
    hi = sum(max(x, 0) for x in h)
    return HyperplaneFamily(
        h=h,
        spacing=1.0 / math.sqrt(sum(x * x for x in h)),
        k_min=math.ceil(lo),
        k_max=math.floor(hi),
    )
