"""Exact half-space volumes of the unit cube: the test oracle for the slab
volumes and midplane sections in latdisc.discrepancy, and for the slab
unions of verify_prop1. It shares no code with the package."""

import math
from fractions import Fraction


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
    total = 0
    for mask in range(1 << len(pos)):
        s = sum(x for i, x in enumerate(pos) if mask >> i & 1)
        if t > s:
            total += (-1) ** bin(mask).count("1") * (t - s) ** power
    return total


def halfspace_cube_volume(a, b) -> Fraction:
    """Vol({x in [0,1]^d : a.x <= b}) by inclusion-exclusion, exact.

    Zero coefficients factor out; negative ones are reflected. The closed
    form is sum over vertex subsets S of (-1)^|S| (b - a_S)_+^k / (k! prod a),
    evaluated in integers after scaling the cut to integer coefficients.
    """
    pos, t, _ = _scaled_cut(a, b)
    if not pos:
        return Fraction(int(t >= 0))
    k = len(pos)
    return Fraction(_ie_sum(pos, t, k), math.factorial(k) * math.prod(pos))


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
