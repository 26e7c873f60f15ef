"""Certified lower bounds for the isotropic discrepancy of lattice point
sets, and the d 2^(2(d+1)) sigma upper-bound verdict.

The witnesses are the empty slabs between adjacent hyperplanes of the
shortest dual vectors. A witness is empty because its dual vector h lies in
L^perp, which `slab_witness` checks exactly: every lattice point then
has h.x in Z, and the witness lies strictly between two integers. Its volume
is exact, so every witness value is a true lower bound for the isotropic
discrepancy. No point is enumerated, so enumeration never limits N, and the
search involves no randomness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import IntegrationLattice
from .reduction import SpectralReport, _dot, spectral_test


# ---------------------------------------------------------------------------
# Exact slab geometry
# ---------------------------------------------------------------------------

def _subset_sums(pos: list[int]) -> list[tuple[int, int]]:
    """(sum S, (-1)^|S|) for every subset S of pos."""
    sums = [(0, 1)]
    for x in pos:
        sums += [(s + x, -sgn) for s, sgn in sums]
    return sums


def _ie_sum(sums: list[tuple[int, int]], t: int, power: int) -> int:
    """sum over subsets S of pos of (-1)^|S| (t - sum S)_+^power, given
    sums = _subset_sums(pos)."""
    return sum(sgn * (t - s) ** power for s, sgn in sums if t > s)


def _midplane_density(h: tuple[int, ...], k: int) -> Fraction:
    """d/db Vol({x in [0,1]^d : h.x <= b}) at the midplane b = k + 1/2,
    exact; times ||h|| it is the measure of that plane's section of the cube.

    `_best_slab`'s reflection turns h.x <= b into y = sum a_i x_i <= j + 1/2,
    a_i = |h_i| over the n nonzero entries and j = k + shift. Doubled to
    integers, Vol(2a.x <= T) = I_n(T) / (n! prod 2a_i), I_p(T) = sum over
    subsets S of (-1)^|S| (T - 2a_S)_+^p, and T = 2j + 1 moves by 2 per unit
    of b, so the derivative is 2 I_(n-1)(2j + 1) / ((n-1)! prod 2a_i). It is
    0 off the cube's range, where I_(n-1) vanishes.
    """
    shift = -sum(x for x in h if x < 0)
    pos = [2 * abs(x) for x in h if x]
    n = len(pos)
    num = 2 * _ie_sum(_subset_sums(pos), 2 * (k + shift) + 1, n - 1)
    return Fraction(num, math.factorial(n - 1) * math.prod(pos))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

SLAB_EPS = Fraction(1, 10**9)  # the witness slab's shrink from each plane, in units of h.x


@dataclass(frozen=True)
class DiscrepancyWitness:
    """An empty slab k + eps <= h.x <= k + 1 - eps of the cube, eps =
    SLAB_EPS; its value is the slab's exact volume, so every witness is
    certified."""

    local_value_exact: Fraction
    dual_slab: tuple[tuple[int, ...], int]  # (h, k)

    family = "dual-slab"
    certified = True

    @property
    def local_value(self) -> float:
        return float(self.local_value_exact)

    def to_json_dict(self) -> dict:
        """The witness with its slab intersected with the cube, written as
        the JSON of an H-polytope body."""
        h, k = self.dual_slab
        d = len(h)
        hf = np.array(h, dtype=float)
        normals = np.vstack([hf, -hf, np.eye(d), -np.eye(d)])
        planes = [float(k + 1 - SLAB_EPS), -float(k + SLAB_EPS)]
        offsets = np.concatenate([planes, np.ones(d), np.zeros(d)])
        return {
            "family": self.family,
            "body": {"variant": "h_polytope", "normals": normals.tolist(), "offsets": offsets.tolist()},
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

    def to_json_dict(self) -> dict:
        """The fields in order, with dim and n_points written as d and N."""
        short = {"dim": "d", "n_points": "N"}
        return {short.get(k, k): v for k, v in vars(self).items()}


def _best_slab(h: tuple[int, ...]) -> tuple[int, Fraction]:
    """The first k maximising Vol(k + eps <= h.x <= k + 1 - eps), eps =
    SLAB_EPS, over the slabs between adjacent planes that meet the cube,
    and that volume, in closed form.

    Reflecting x_i -> 1 - x_i for h_i < 0 turns h.x into y = sum a_i x_i,
    a_i = |h_i| over the nonzero entries, and slab k into slab j = k + shift
    of y, j = 0..S-1 with S = sum a_i. With x uniform on the cube, y is a
    sum of independent uniforms on [0, a_i], whose density f is their
    convolution. Let M = max a_i and R = S - M, the range of the other terms.

    If M > R, f(y) = P(y - M <= Z <= y) / M for Z, the sum of the other
    terms, on [0, R]: exactly 1/M on [R, M] and below 1/M on (0, R). Slab R
    lies in [R, M], as M >= R + 1 in integers, so its volume (1 - 2 eps) / M
    is the largest and every earlier slab's is smaller: no inclusion-exclusion
    sum is needed.

    Otherwise the volume F(j) of slab j is non-decreasing for j <= j_c =
    floor((S-1)/2) and F(j) = F(S-1-j), so F(j_c) is the maximum. Proof:
    each uniform has a density symmetric and unimodal about a_i/2, and a
    convolution of symmetric unimodal densities is symmetric unimodal
    (Wintner 1938; Ibragimov, "On the composition of unimodal
    distributions", Theory Probab. Appl. 1956), so f is non-decreasing
    below S/2, with f(y) = f(S - y). The window G(a) = integral of f over
    [a, a + w] then has G(b) - G(a) = integral over [a, b] of
    f(t + w) - f(t), which is >= 0 while b + w/2 <= S/2: either
    t + w <= S/2, or f(t + w) = f(S - t - w) with t <= S - t - w <= S/2.
    Slab j is the window at a = j + eps of width w = 1 - 2 eps, centred at
    j + 1/2, so F(j) <= F(j + 1) for j + 1 <= (S-1)/2, and the reflection
    y -> S - y maps slab j to slab S-1-j, which gives F(j) = F(S-1-j) <=
    F(j_c) for every j > j_c. As F(j) <= F(j_c - 1) for j < j_c, the exact
    check F(j_c - 1) < F(j_c) makes j_c the first maximiser (F(-1) = 0, so
    j_c = 0 needs no special case); AssertionError is raised should it fail. Scaled by
    eps's denominator q every cut has integer coefficients q a_i, so both
    volumes share one denominator and compare as integers.
    """
    q, e = SLAB_EPS.denominator, SLAB_EPS.numerator
    shift = -sum(x for x in h if x < 0)
    a = [abs(x) for x in h if x]
    top = max(a)
    rest = sum(a) - top
    if top > rest:
        return rest - shift, Fraction(q - 2 * e, q * top)
    pos = [q * x for x in a]
    sums, n = _subset_sums(pos), len(pos)

    def volume(j: int) -> int:  # F(j) * n! * prod(pos)
        t = q * j
        return _ie_sum(sums, t + q - e, n) - _ie_sum(sums, t + e, n)

    j_c = (top + rest - 1) // 2
    best = volume(j_c)
    if volume(j_c - 1) >= best:
        raise AssertionError(f"slab {j_c - shift} of h = {h} is not the first largest")
    return j_c - shift, Fraction(best, math.factorial(n) * math.prod(pos))


def slab_witness(lat: IntegrationLattice, h: tuple[int, ...]) -> DiscrepancyWitness:
    """The largest slab k + eps <= h.x <= k + 1 - eps of the cube for the
    dual vector h, eps = SLAB_EPS = 1e-9 in units of h.x (a Euclidean
    1e-9 / ||h||); all values exact.

    The slab holds no lattice point, with no point enumerated. Proof: h is
    checked to lie in L^perp exactly (B h = 0 mod D for the basis B / D),
    so h.x is an integer for every x in L, and 0 < eps < 1/2 puts the
    closed interval [k + eps, k + 1 - eps] strictly between the integers k
    and k + 1.
    """
    try:
        h = tuple(operator.index(x) for x in h)
    except TypeError:
        raise ValueError(f"h must have integer entries, got {h!r}") from None
    if len(h) != lat.dim:
        raise ValueError(f"h has length {len(h)}, the lattice dimension is {lat.dim}")
    if not any(h):
        raise ValueError("h must be nonzero")
    if any(_dot(row, h) % lat.denom for row in lat.basis):
        raise ValueError("h is not in the dual lattice")
    best_k, best_vol = _best_slab(h)
    return DiscrepancyWitness(local_value_exact=best_vol, dual_slab=(h, best_k))


N_SLABS = 10  # the shortest dual vectors whose slabs Theorem 1's witness search tries


def isotropic_lower_bound(
    lat: IntegrationLattice,
    report: SpectralReport | None = None,
) -> tuple[DiscrepancyWitness, list[DiscrepancyWitness]]:
    """The best of the slab witnesses of the N_SLABS shortest dual
    vectors, and all of them, shortest first.

    Every value is exact and the search is deterministic: the first witness
    of largest value wins. The dual vectors are read from `report`, the
    lattice's spectral test, which must hold at least N_SLABS of them
    (`spectral_test(lat, N_SLABS)`), so sigma and the witnesses come from
    one search; it is run here when omitted. Raises ValueError when the
    report holds fewer.
    """
    rep = report if report is not None else spectral_test(lat, N_SLABS)
    if len(rep.shortest_duals) < N_SLABS:
        raise ValueError(
            f"the witness search needs N_SLABS = {N_SLABS} dual vectors, but the report "
            f"holds {len(rep.shortest_duals)}; run spectral_test(lat, {N_SLABS})"
        )
    witnesses = [slab_witness(lat, sv.vector) for sv in rep.shortest_duals[:N_SLABS]]
    best = max(witnesses, key=lambda w: w.local_value_exact)
    return best, witnesses


def verify_thm1(
    lat: IntegrationLattice,
    lattice_id: str = "",
    report: SpectralReport | None = None,
) -> Thm1Report:
    """PASS iff the best certified lower bound respects min(1, d 2^(2(d+1)) sigma),
    and the slab witness stays above a fifth of its exact cross-section floor.

    The witnesses are the slabs of the N_SLABS shortest dual vectors, read
    from `report`, which must hold that many (`spectral_test(lat, N_SLABS)`);
    it is run here when omitted, so one search gives sigma and the witnesses.
    """
    rep = report if report is not None else spectral_test(lat, N_SLABS)
    best, witnesses = isotropic_lower_bound(lat, report=rep)
    d = lat.dim
    j = best.local_value_exact
    factor = d * 2 ** (2 * (d + 1))
    # j <= min(1, factor * sigma), decided in exact arithmetic
    ok = j <= 1 and j * j * rep.dual_norm_sq <= factor**2
    # the floor: 0.2 sigma times the section of the shortest dual vector's
    # slab at its midplane, that is 0.2 dV/db there
    slab = witnesses[0]
    floor = Fraction(1, 5) * _midplane_density(*slab.dual_slab)
    return Thm1Report(
        lattice_id=lattice_id,
        dim=d,
        n_points=lat.n_points,
        sigma=rep.sigma,
        j_lower=float(j),
        bound=factor * rep.sigma,
        old_bound=d * d * 2**d * rep.sigma,
        verdict="PASS" if ok else "FAIL",
        slab_value=slab.local_value,
        slab_floor=float(floor),
        slab_floor_ok=slab.local_value_exact >= floor,
    )
