"""Integration lattices L containing Z^d, their point sets, and duals.

Bases are exact rational matrices (rows generate L). A valid integration
lattice satisfies Z^d <= L and |det(basis)| = 1/N where N is the number of
lattice points in [0,1)^d.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, TextIO

import numpy as np

from .errors import EnumerationCapExceeded
from .ratlin import (
    Mat,
    Vec,
    as_mat,
    det,
    hermite_normal_form,
    inverse,
    is_integer_mat,
    lattices_equal,
    transpose,
    vec_dot,
)

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class IntegrationLattice:
    """A lattice L >= Z^d given by d rational basis rows with |det| = 1/N."""

    dim: int
    basis: Mat
    n_points: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if len(self.basis) != self.dim or any(len(r) != self.dim for r in self.basis):
            raise ValueError("basis must be a d x d matrix")

    def basis_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.basis])


@dataclass(frozen=True, eq=False)
class LatticePointSet:
    """The N residues of L modulo Z^d in [0,1)^d, as integers over one
    denominator: point i is exactly ints[i] / denom.

    `ints` is an int64 array of shape (N, d) with entries in [0, denom),
    rows in lexicographic order.
    """

    dim: int
    ints: np.ndarray
    denom: int
    source: IntegrationLattice | None = None

    @property
    def n(self) -> int:
        return len(self.ints)

    def as_array(self) -> np.ndarray:
        return self.ints / self.denom

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        """The points as tuples of Fractions, built on first use."""
        return tuple(
            tuple(Fraction(x, self.denom) for x in row) for row in self.ints.tolist()
        )


@dataclass(frozen=True)
class DualBasis:
    """Integer rows generating L^perp = {h in Z^d : h.x in Z for all x in L}."""

    dim: int
    basis: tuple[tuple[int, ...], ...]

    def as_mat(self) -> Mat:
        return as_mat(self.basis)


def rank1_lattice(n: int, g: Iterable[int]) -> IntegrationLattice:
    """Lattice generated by Z^d and g/n.

    N divides n, with N = n exactly when gcd(g_1, ..., g_d, n) = 1.
    """
    g = tuple(int(x) for x in g)
    d = len(g)
    if d < 1:
        raise ValueError("generator vector must be nonempty")
    if n < 1:
        raise ValueError("n must be a positive integer")
    # HNF of the integer lattice n*L generated by g and n*Z^d.
    stacked = [list(g)] + [[n if i == j else 0 for j in range(d)] for i in range(d)]
    h = hermite_normal_form(stacked)
    basis = tuple(tuple(Fraction(x, n) for x in row) for row in h)
    det_h = 1
    for i in range(d):
        det_h *= h[i][i]
    n_points, rem = divmod(n**d, det_h)
    if rem:
        raise AssertionError("rank-1 determinant is not a divisor of n^d")
    assert n_points == n // math.gcd(n, *g) if any(g) else n_points == 1
    return IntegrationLattice(d, basis, n_points)


def fibonacci_lattice(k: int) -> IntegrationLattice:
    """The 2-d Fibonacci lattice rank1(F_k, (1, F_{k-1})), k >= 3."""
    if k < 3:
        raise ValueError("k must be at least 3")
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return rank1_lattice(b, (1, a))


def korobov_lattice(n: int, a: int, d: int) -> IntegrationLattice:
    """Rank-1 lattice with generator (1, a, a^2, ..., a^{d-1}) mod n."""
    g = [pow(a, j, n) if n > 1 else 0 for j in range(d)]
    return rank1_lattice(n, g)


def enumerate_points(
    lat: IntegrationLattice, cap: int = DEFAULT_ENUMERATION_CAP
) -> LatticePointSet:
    """All residues of L mod Z^d, sorted lexicographically, as integers over
    the common denominator D of the basis.

    The residues form the group (L + Z^d) / Z^d. Scaled by D it is the
    integer lattice M = D (L + Z^d) modulo D Z^d. Every residue is
    sum_i c_i H_i mod D for exactly one choice of 0 <= c_i < D / H_ii, where
    H is the upper-triangular HNF of M (H_ii divides D because D e_i lies
    in M), so the points come from one mixed-radix walk. Raises
    EnumerationCapExceeded when N exceeds the cap, and ValueError when the
    group has not N elements.
    """
    if lat.n_points > cap:
        raise EnumerationCapExceeded(
            f"lattice has {lat.n_points} points, cap is {cap}"
        )
    d = lat.dim
    denom = math.lcm(*(x.denominator for row in lat.basis for x in row))
    gens = [[x.numerator * (denom // x.denominator) for x in row] for row in lat.basis]
    gens += [[denom if i == j else 0 for j in range(d)] for i in range(d)]
    hnf = hermite_normal_form(gens)
    radices = [denom // hnf[i][i] for i in range(d)]
    count = math.prod(radices)
    if count > cap:
        raise EnumerationCapExceeded(f"enumeration exceeded cap {cap}")
    if count != lat.n_points:
        raise ValueError(
            f"enumeration produced {count} points, expected {lat.n_points};"
            " lattice is not a valid integration lattice"
        )
    ints = np.zeros((1, d), dtype=np.int64)
    for row, radix in zip(hnf, radices):
        steps = np.arange(radix, dtype=np.int64)[:, None] * np.array(row, dtype=np.int64)
        steps %= denom
        ints = ((ints[:, None, :] + steps[None, :, :]) % denom).reshape(-1, d)
    ints = ints[np.lexsort(ints.T[::-1])]
    ints.setflags(write=False)  # `points` is cached from it
    return LatticePointSet(d, ints, denom, source=lat)


def dual_basis(lat: IntegrationLattice) -> DualBasis:
    """Integer basis of L^perp, the inverse-transpose of the primal basis.

    Verified exactly: integer entries, integer inner products against all
    primal rows, and |det| = N.
    """
    binv_t = transpose(inverse(lat.basis))
    if not is_integer_mat(binv_t):
        raise ValueError("dual basis is not integral; Z^d is not contained in L")
    rows = tuple(tuple(int(x) for x in row) for row in binv_t)
    for prow in lat.basis:
        for drow in binv_t:
            if vec_dot(prow, drow).denominator != 1:
                raise AssertionError("dual row has non-integer product with primal row")
    d_det = det(binv_t)
    if abs(d_det) != lat.n_points:
        raise ValueError(
            f"dual determinant {d_det} does not match N = {lat.n_points}"
        )
    return DualBasis(lat.dim, rows)


def validate(lat: IntegrationLattice) -> list[str]:
    """Check the type invariants; returns diagnostics instead of raising."""
    problems = []
    d = det(lat.basis)
    if d == 0:
        problems.append("basis rows are linearly dependent")
        return problems
    try:
        binv = inverse(lat.basis)
        if not is_integer_mat(binv):
            problems.append("Z^d not contained")
    except ValueError:
        problems.append("Z^d not contained")
    if abs(d) != Fraction(1, lat.n_points):
        problems.append("determinant mismatch")
    return problems


def same_lattice(a: IntegrationLattice, b: IntegrationLattice) -> bool:
    return a.dim == b.dim and lattices_equal(a.basis, b.basis)


# ---------------------------------------------------------------------------
# Text / CSV interfaces
# ---------------------------------------------------------------------------

def parse_lattice_text(text: str) -> IntegrationLattice:
    """Parse the lattice spec format.

    First line "d N", then either one line "rank1: g1 g2 ... gd" or d lines
    of d rationals "p/q" giving the basis rows.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty lattice spec")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError('first line must be "d N"')
    dim, n = int(head[0]), int(head[1])
    if len(lines) >= 2 and lines[1].startswith("rank1:"):
        g = [int(x) for x in lines[1][len("rank1:"):].split()]
        if len(g) != dim:
            raise ValueError(f"rank1 generator has {len(g)} entries, expected {dim}")
        lat = rank1_lattice(n, g)
        if lat.n_points != n:
            raise ValueError(
                f"rank1 generator collapses to N = {lat.n_points}, header says {n}"
            )
        return lat
    if len(lines) != 1 + dim:
        raise ValueError(f"expected {dim} basis rows, got {len(lines) - 1}")
    basis = as_mat([[Fraction(tok) for tok in ln.split()] for ln in lines[1:]])
    lat = IntegrationLattice(dim, basis, n)
    problems = validate(lat)
    if problems:
        raise ValueError("invalid lattice spec: " + "; ".join(problems))
    return lat


def format_lattice_text(lat: IntegrationLattice) -> str:
    lines = [f"{lat.dim} {lat.n_points}"]
    for row in lat.basis:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def format_rank1_text(n: int, g: Iterable[int]) -> str:
    g = tuple(int(x) for x in g)
    return f"{len(g)} {n}\nrank1: " + " ".join(str(x) for x in g) + "\n"


def _decimal_str(x: Fraction, precision: int) -> str:
    """Round-half-up decimal rendering done in integer arithmetic."""
    scale = 10**precision
    num = x.numerator * scale * 2 + x.denominator
    q = num // (2 * x.denominator)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{precision}d}" if precision else f"{sign}{whole}"


def write_points_csv(
    ps: LatticePointSet, out: TextIO, precision: int = 17, exact: bool = False
) -> None:
    """One point per row; decimal strings, or exact "p/q" when exact=True."""
    writer = csv.writer(out)
    writer.writerow([f"x{i + 1}" for i in range(ps.dim)])
    for p in ps.points:
        if exact:
            writer.writerow([str(c) for c in p])
        else:
            writer.writerow([_decimal_str(c, precision) for c in p])
