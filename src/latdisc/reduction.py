"""LLL reduction, exact shortest vectors, and the spectral test.

Every basis here is an integer matrix; the dual basis of an integration
lattice is integral, and it is the only basis the spectral test reduces,
once per lattice. LLL is the integral algorithm of Cohen, *A Course in
Computational Algebraic Number Theory* (1993), Alg. 2.6.7: the Gram
determinants d_i and the scaled coefficients lambda_ij = d_{j+1} mu_ij are
integers updated in place, and the unimodular transform is recorded.

One shortest-vector search, `shortest_vectors`, serves every caller, and
it runs once per lattice: the spectral test asks it for as many dual
vectors as its caller needs, so sigma and Theorem 1's witnesses are read
off one search. It is a k-best Fincke-Pohst enumeration of coefficient
vectors of the reduced basis with floating Gram-Schmidt pruning: it
decides every candidate in integers, stops widening past the k-th
smallest norm found, and returns vectors in one order: (squared norm,
reduced-basis coefficients).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionGuardError
from .lattice import IntegrationLattice, Mat, det_adj, dual_basis

SVP_DIMENSION_CAP = 12
LLL_DELTA = Fraction(3, 4)  # the Lovasz constant, reported as lll_delta


@dataclass(frozen=True)
class ReducedBasis:
    """LLL output: integer rows and the unimodular transform U with
    rows = U . source."""

    dim: int
    rows: Mat
    transform: Mat
    source: Mat


@dataclass(frozen=True)
class ShortestVector:
    """A short lattice vector with its integer coefficients in the input
    basis and its exact squared norm."""

    vector: tuple[int, ...]
    coefficients: tuple[int, ...]
    norm_sq_exact: int


@dataclass(frozen=True)
class SpectralReport:
    """The spectral test of a lattice: its shortest dual vectors, shortest
    first, with coefficients in the dual basis `dual_basis` returns."""

    shortest_duals: tuple[ShortestVector, ...]

    @property
    def shortest_dual(self) -> tuple[int, ...]:
        return self.shortest_duals[0].vector

    @property
    def dual_norm_sq(self) -> int:
        return self.shortest_duals[0].norm_sq_exact

    @property
    def sigma(self) -> float:
        return 1.0 / math.sqrt(self.dual_norm_sq)

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "shortest_dual": list(self.shortest_dual),
            "dual_norm": math.sqrt(self.dual_norm_sq),
            "lll_delta": float(LLL_DELTA),
        }


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _int_rows(basis) -> Mat:
    """`basis` as integer row tuples; ValueError on any non-integer entry."""
    try:
        return tuple(tuple(operator.index(x) for x in row) for row in basis)
    except TypeError:
        raise ValueError("basis entries must be integers") from None


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, halves to even as `round` does."""
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q % 2 else q


def lll_reduce(basis) -> ReducedBasis:
    """Integral LLL reduction with delta = LLL_DELTA, recording the
    unimodular transform U.

    d[i] is the Gram determinant of the first i rows (d[0] = 1) and
    lam[k][j] = d[j+1] mu_kj; both stay integers (Cohen Alg. 2.6.7). Row k
    is size-reduced against rows k-1, ..., 0 (nearest integer, halves to
    even) before the Lovasz test. The output satisfies |mu_ij| <= 1/2 and
    the Lovasz condition, and equals U . input exactly (verified before
    returning). Raises ValueError on non-integer or dependent rows.
    """
    src = _int_rows(basis)
    n = len(src)
    if any(len(r) != n for r in src):
        raise ValueError("basis must be a square matrix")
    rows = [list(r) for r in src]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            x = _dot(rows[k], rows[j])
            for i in range(j):
                x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = x
            else:
                d[k + 1] = x
        if d[k + 1] == 0:
            raise ValueError("basis rows are linearly dependent")
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam_k[j]) > d[j + 1]:
                c = _round_div(lam_k[j], d[j + 1])
                rows[k] = [a - c * b for a, b in zip(rows[k], rows[j])]
                u[k] = [a - c * b for a, b in zip(u[k], u[j])]
                lam_k[j] -= c * d[j + 1]
                for i in range(j):
                    lam_k[i] -= c * lam[j][i]
        lk = lam_k[k - 1]
        # |b*_k|^2 >= (delta - mu^2) |b*_{k-1}|^2, times q d[k] d[k-1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] ** 2 - q * lk * lk:
            k += 1
            continue
        rows[k], rows[k - 1] = rows[k - 1], rows[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)

    out = tuple(tuple(r) for r in rows)
    transform = tuple(tuple(r) for r in u)
    if abs(det_adj(transform)[0]) != 1:
        raise AssertionError("LLL transform is not unimodular")
    if tuple(tuple(_dot(r, col) for col in zip(*src)) for r in transform) != out:
        raise AssertionError("LLL transform does not reproduce the output basis")
    return ReducedBasis(n, out, transform, src)


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


def _float(x: int) -> float:
    """float(x), or inf for an int too large for a float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def enumerate_below(rows: Mat, bound_sq: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The nonzero coefficient vectors (one per +-sign pair) whose lattice
    vectors are the k shortest, given that at least k have exact squared
    norm <= bound_sq: every vector as short as the k-th, so more than k
    only when norms tie at the k-th place.

    Fincke-Pohst depth-first search (Math. Comp. 44, 1985). Only coefficient
    vectors whose last nonzero entry is positive are visited, so each
    +-pair is met once. Once k vectors are held, the bound shrinks to the
    k-th smallest exact squared norm found and longer ones are dropped, as
    in Schnorr and Euchner (Math. Programming 66, 1994). The float pruning
    radius carries a relative safety margin over the bound; membership is
    always decided exactly. Returned sign-normalized (first nonzero entry
    positive), in (squared norm, coefficient) order. A float the pruning
    needs beyond float range is a ValueError naming it, before the search.
    """
    d = len(rows)
    b = np.array([[_float(x) for x in r] for r in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        mu, bstar_sq = _float_gram_schmidt(b)
    radius = _float(bound_sq) * (1 + 1e-9) + 1e-12
    for what, values in [
        ("a basis entry", b.ravel().tolist()),
        ("the bound", [radius]),
        ("a Gram-Schmidt squared norm", bstar_sq.tolist()),
    ]:
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{what} is beyond the float range the shortest-vector search prunes in")
    if np.any(bstar_sq <= 0):
        raise ValueError("basis rows are linearly dependent")
    mu, bstar_sq = mu.tolist(), bstar_sq.tolist()
    found: list[tuple[int, tuple[int, ...]]] = []  # (squared norm, coefficients), norm <= bound_sq
    coeff = [0] * d
    cols = list(zip(*rows))

    def keep(u: tuple[int, ...]) -> None:
        nonlocal bound_sq, found, radius
        v = [_dot(u, col) for col in cols]
        nsq = _dot(v, v)
        if nsq > bound_sq:
            return
        found.append((nsq, _sign_normalised(u)))
        if len(found) >= k:
            kth = sorted(n for n, _ in found)[k - 1]
            if kth < bound_sq:
                bound_sq = kth
                radius = float(bound_sq) * (1 + 1e-9) + 1e-12
                found = [hit for hit in found if hit[0] <= bound_sq]

    def search(level: int, used: float, free: bool) -> None:
        # free: a coefficient above `level` is nonzero, so both signs here are new
        if level < 0:
            if free:
                keep(tuple(coeff))
            return
        budget = radius - used
        if budget < 0:
            return
        center = -sum(mu[j][level] * coeff[j] for j in range(level + 1, d))
        half = math.sqrt(budget / bstar_sq[level])
        lo = math.ceil(center - half - 1e-9) if free else 0
        for c in range(lo, math.floor(center + half + 1e-9) + 1):
            step = bstar_sq[level] * (c - center) ** 2
            if step <= (radius - used) * (1 + 1e-12) + 1e-12:  # radius shrinks as hits come in
                coeff[level] = c
                search(level - 1, used + step, free or c != 0)
        coeff[level] = 0

    search(d - 1, 0.0, False)
    return [(u, nsq) for nsq, u in sorted(found)]


def _sign_normalised(u: tuple[int, ...]) -> tuple[int, ...]:
    """u or -u, whichever has a positive first nonzero entry."""
    return tuple(-c for c in u) if next(c for c in u if c) < 0 else u


def _candidate_bound(rows: Mat, k: int) -> int:
    """A squared norm that at least k lattice vectors (one per +-sign pair)
    stay within: the k-th smallest exact squared norm of c . rows over the
    coefficient vectors j e_i (1 <= j <= k) and e_i +- e_j (i < j), read off
    the integer Gram matrix. These d k + d (d - 1) vectors are distinct up
    to sign, so the k-th shortest lattice vector is at most this long. The
    multiples keep the bound near the k-th norm when one row is much
    shorter than the others.
    """
    d = len(rows)
    g = [[_dot(a, b) for b in rows] for a in rows]
    norms = [j * j * g[a][a] for a in range(d) for j in range(1, k + 1)]
    norms += [
        g[a][a] + g[b][b] + s * 2 * g[a][b]
        for a in range(d) for b in range(a + 1, d) for s in (1, -1)
    ]
    return sorted(norms)[k - 1]


def check_count(name: str, value) -> None:
    """Raise ValueError, naming `name`, unless value is an int >= 1; a bool
    is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def shortest_vectors(reduced: ReducedBasis, k: int) -> list[ShortestVector]:
    """The k shortest nonzero vectors of the integer lattice that `reduced`
    spans, one per +-sign pair, in (squared norm, reduced-basis coefficient)
    order: the order `enumerate_below` returns.

    One LLL-seeded k-best enumeration, started below `_candidate_bound`,
    which holds at least k vectors. Each vector is reported with its
    coefficients in the input basis `reduced.source`, sign-normalised, and
    is certified exactly: rebuilt from those coefficients, it has the
    enumerated squared norm. Raises ValueError unless k is an int >= 1.
    """
    check_count("k", k)
    if reduced.dim > SVP_DIMENSION_CAP:
        raise DimensionGuardError(
            f"shortest_vectors supports d <= {SVP_DIMENSION_CAP}, got {reduced.dim}"
        )
    hits = enumerate_below(reduced.rows, _candidate_bound(reduced.rows, k), k)
    transform_cols = list(zip(*reduced.transform))
    source_cols = list(zip(*reduced.source))
    out = []
    for u_red, nsq in hits[:k]:
        # v = u_red . rows = u_red . U . source, so u_red . U are the input coefficients
        coeffs = _sign_normalised(tuple(_dot(u_red, col) for col in transform_cols))
        vec = tuple(_dot(coeffs, col) for col in source_cols)
        if _dot(vec, vec) != nsq:
            raise AssertionError("certificate mismatch in shortest_vectors")
        out.append(ShortestVector(vec, coeffs, nsq))
    return out


def spectral_test(lat: IntegrationLattice, n_shortest: int = 1) -> SpectralReport:
    """sigma(L) = 1 / (shortest nonzero dual vector norm), from one LLL
    reduction of the dual basis and one `shortest_vectors` search.

    The report keeps the `n_shortest` shortest dual vectors, so a caller
    that also needs Theorem 1's witnesses asks for them here and the search
    runs once per lattice; sigma reads the first. The construction-time
    invariant sigma <= sqrt(d) is verified exactly and raises on violation.
    Raises ValueError unless n_shortest is an int >= 1.
    """
    check_count("n_shortest", n_shortest)
    duals = tuple(shortest_vectors(lll_reduce(dual_basis(lat)), n_shortest))
    if duals[0].norm_sq_exact * lat.dim < 1:  # sigma^2 <= d
        raise AssertionError("sigma exceeds sqrt(d)")
    return SpectralReport(duals)
