"""Integration lattices L containing Z^d, their point sets, and duals.

A basis is d integer rows over one denominator D: row i of L's basis is
basis[i] / D, and D is the least such denominator, so gcd(D, basis) = 1.
A valid integration lattice satisfies Z^d <= L and |det(basis / D)| = 1/N,
where N is the number of lattice points in [0,1)^d. Because L contains Z^d,
its dual lattice is integral. The linear algebra (Hermite normal form,
fraction-free determinant and adjugate) runs in integers; `Fraction`
appears only at the text boundary.
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

DEFAULT_ENUMERATION_CAP = 10**6

Mat = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IntegrationLattice:
    """A lattice L >= Z^d with basis rows basis[i] / denom and |det| = 1/N."""

    dim: int
    basis: Mat
    denom: int
    n_points: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if self.denom < 1:
            raise ValueError("denom must be positive")
        if len(self.basis) != self.dim or any(len(r) != self.dim for r in self.basis):
            raise ValueError("basis must be a d x d matrix")
        if math.gcd(self.denom, *(x for row in self.basis for x in row)) != 1:
            raise ValueError("denom is not the least common denominator of the basis")


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
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        """The points as tuples of Fractions, built on first use."""
        return tuple(
            tuple(Fraction(x, self.denom) for x in row) for row in self.ints.tolist()
        )


@dataclass(frozen=True)
class DualBasis:
    """Integer rows generating L^perp = {h in Z^d : h.x in Z for all x in L}."""

    dim: int
    basis: Mat


def hermite_normal_form(rows) -> Mat:
    """Row-style HNF of an integer matrix with full column rank.

    Returns the canonical n x n upper-triangular form with positive
    diagonal and entries above each pivot reduced into [0, pivot).
    Zero rows produced by the elimination are dropped.
    """
    h = [list(r) for r in rows]
    m = len(h)
    if m == 0:
        return ()
    n = len(h[0])
    row = 0
    for col in range(n):
        while True:
            nz = [i for i in range(row, m) if h[i][col] != 0]
            if not nz:
                raise ValueError("matrix does not have full column rank")
            piv = min(nz, key=lambda i: abs(h[i][col]))
            h[row], h[piv] = h[piv], h[row]
            done = True
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
        row += 1
        if row == n:
            break
    if row < n:
        raise ValueError("matrix does not have full column rank")
    return tuple(tuple(r) for r in h[:n])


def det_adj(m) -> tuple[int, Mat | None]:
    """det(m) and adj(m) of a square integer matrix; adj is None when the
    determinant is 0.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [m | I]: after pivot
    step k every entry is a (k+1)-minor of the augmented matrix, so each
    division is exact, and the left block ends as det(P m) I for the row
    permutation P of the pivoting, with adj(P m) P = det(P m) m^-1 beside it.
    """
    d = len(m)
    a = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(d):
        piv = next((i for i in range(k, d) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        akk = pivot_row[k]
        for i in range(d):
            if i != k:
                aik = a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = akk
    return sign * prev, tuple(tuple(sign * x for x in row[d:]) for row in a)


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
    n_points, rem = divmod(n**d, math.prod(h[i][i] for i in range(d)))
    if rem:
        raise AssertionError("rank-1 determinant is not a divisor of n^d")
    assert n_points == n // math.gcd(n, *g) if any(g) else n_points == 1
    c = math.gcd(n, *(x for row in h for x in row))  # down to the least denominator
    return IntegrationLattice(d, tuple(tuple(x // c for x in row) for row in h), n // c, n_points)


def fibonacci_generator(k: int) -> tuple[int, tuple[int, int]]:
    """(F_k, (1, F_{k-1})): the n and g of the k-th Fibonacci lattice, k >= 3."""
    if k < 3:
        raise ValueError("k must be at least 3")
    a, b = 1, 1
    for _ in range(k - 2):
        a, b = b, a + b
    return b, (1, a)


def fibonacci_lattice(k: int) -> IntegrationLattice:
    """The 2-d Fibonacci lattice rank1(F_k, (1, F_{k-1})), k >= 3."""
    return rank1_lattice(*fibonacci_generator(k))


def korobov_lattice(n: int, a: int, d: int) -> IntegrationLattice:
    """Rank-1 lattice with generator (1, a, a^2, ..., a^{d-1}) mod n."""
    g = [pow(a, j, n) if n > 1 else 0 for j in range(d)]
    return rank1_lattice(n, g)


def enumerate_points(
    lat: IntegrationLattice, cap: int = DEFAULT_ENUMERATION_CAP
) -> LatticePointSet:
    """All residues of L mod Z^d, sorted lexicographically, as integers over
    the basis denominator D.

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
    d, denom = lat.dim, lat.denom
    gens = [list(row) for row in lat.basis]
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
    """Integer basis of L^perp, the inverse-transpose of basis / D, which
    is D adj(basis)^T / det(basis).

    Verified exactly: integer entries, integer inner products against all
    primal rows, and |det| = N.
    """
    det_b, adj = det_adj(lat.basis)
    if det_b == 0:
        raise ValueError("basis rows are linearly dependent")
    scaled = [[lat.denom * x for x in col] for col in zip(*adj)]
    if any(x % det_b for row in scaled for x in row):
        raise ValueError("dual basis is not integral; Z^d is not contained in L")
    rows = tuple(tuple(x // det_b for x in row) for row in scaled)
    for prow in lat.basis:
        for drow in rows:
            if sum(a * b for a, b in zip(prow, drow)) % lat.denom:
                raise AssertionError("dual row has non-integer product with primal row")
    # det of the dual is D^d / det(basis), an integer once the dual is integral
    if abs(det_b) * lat.n_points != lat.denom**lat.dim:
        raise ValueError(
            f"dual determinant {lat.denom**lat.dim // det_b} does not match N = {lat.n_points}"
        )
    return DualBasis(lat.dim, rows)


def validate(lat: IntegrationLattice) -> list[str]:
    """Check the type invariants; returns diagnostics instead of raising."""
    det_b, adj = det_adj(lat.basis)
    if det_b == 0:
        return ["basis rows are linearly dependent"]
    problems = []
    # Z^d <= L iff the inverse of basis / D, that is D adj / det, is integral
    if any(lat.denom * x % det_b for row in adj for x in row):
        problems.append("Z^d not contained")
    if abs(det_b) * lat.n_points != lat.denom**lat.dim:
        problems.append("determinant mismatch")
    return problems


def same_lattice(a: IntegrationLattice, b: IntegrationLattice) -> bool:
    """Whether a and b generate the same lattice. The least denominator D
    (the least D with D L <= Z^d) is a lattice invariant, so equal lattices
    share it and have equal HNFs of their integer bases."""
    return (
        a.dim == b.dim
        and a.denom == b.denom
        and hermite_normal_form(a.basis) == hermite_normal_form(b.basis)
    )


# ---------------------------------------------------------------------------
# Text / CSV interfaces
# ---------------------------------------------------------------------------

def _field(line_no: int, what: str, tok: str, kind=int):
    """`tok` read as `kind` (int or Fraction); ValueError naming the line."""
    try:
        return kind(tok)
    except ValueError:
        expected = "an integer" if kind is int else "a rational p/q"
        raise ValueError(f"line {line_no}: {what} {tok!r} is not {expected}") from None
    except ZeroDivisionError:
        raise ValueError(f"line {line_no}: {what} {tok!r} has a zero denominator") from None


def parse_lattice_text(text: str) -> IntegrationLattice:
    """Parse the lattice spec format.

    First line "d N", then either one line "rank1: g1 g2 ... gd" or d lines
    of d rationals "p/q" giving the basis rows. Malformed input raises
    ValueError naming the line and the field.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty lattice spec")
    (head_no, head), rows = lines[0], lines[1:]
    fields = head.split()
    if len(fields) != 2:
        raise ValueError(f'line {head_no}: expected "d N", got {head!r}')
    dim = _field(head_no, "dimension d", fields[0])
    n = _field(head_no, "point count N", fields[1])
    if rows and rows[0][1].startswith("rank1:"):
        line_no, body = rows[0]
        g = [_field(line_no, "rank1 generator entry", tok) for tok in body[len("rank1:"):].split()]
        if len(g) != dim:
            raise ValueError(
                f"line {line_no}: rank1 generator has {len(g)} entries, expected {dim}"
            )
        if len(rows) > 1:
            raise ValueError(f"line {rows[1][0]}: unexpected line after the rank1 generator")
        lat = rank1_lattice(n, g)
        if lat.n_points != n:
            raise ValueError(
                f"rank1 generator collapses to N = {lat.n_points}, header says {n}"
            )
        return lat
    if len(rows) != dim:
        raise ValueError(f"expected {dim} basis rows, got {len(rows)}")
    entries = []
    for line_no, body in rows:
        toks = body.split()
        if len(toks) != dim:
            raise ValueError(
                f"line {line_no}: basis row has {len(toks)} entries, expected {dim}"
            )
        entries.append([_field(line_no, "basis entry", tok, Fraction) for tok in toks])
    denom = math.lcm(*(x.denominator for row in entries for x in row))
    basis = tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in entries)
    lat = IntegrationLattice(dim, basis, denom, n)
    problems = validate(lat)
    if problems:
        raise ValueError("invalid lattice spec: " + "; ".join(problems))
    return lat


def format_lattice_text(lat: IntegrationLattice) -> str:
    lines = [f"{lat.dim} {lat.n_points}"]
    for row in lat.basis:
        lines.append(" ".join(str(Fraction(x, lat.denom)) for x in row))
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
