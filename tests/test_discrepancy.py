import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdisc.convex import AxisBox, Ball, HPolytope, VPolytope, unit_cube
from latdisc.discrepancy import (
    DiscrepancyWitness,
    ball_volume_enclosure,
    convex_hull_2d,
    count_points,
    count_points_halfspace,
    count_points_slab,
    halfspace_cube_volume,
    halfspace_cube_volume_derivative,
    isotropic_lower_bound,
    polygon_area_exact,
    slab_witness,
    verify_thm1,
)
from latdisc.discrepancy import (
    _hull_halfplanes,
    _in_halfspaces,
    _scaled_dot,
    _slab_eps_functional,
)
from latdisc.harness import CorpusSpec, builtin_corpus, corpus_lattice
from latdisc.lattice import LatticePointSet, enumerate_points, fibonacci_lattice, rank1_lattice
from latdisc.reduction import shortest_dual_vectors


R5 = rank1_lattice(5, (1, 2))
P5 = enumerate_points(R5)


@functools.cache  # point sets compare by identity
def fraction_points(ps):
    """The points of `ps` as tuples of Fractions, the exact reference."""
    return tuple(tuple(Fraction(x, ps.denom) for x in row) for row in ps.ints.tolist())


def mc_halfspace_volume_oracle(a, b, d, n=200_000, seed=123):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    return np.mean(x @ np.asarray(a, dtype=float) <= b)


def test_halfspace_volume_symmetry_case():
    assert halfspace_cube_volume([1, 1], 1) == Fraction(1, 2)


def test_halfspace_volume_triangle_case():
    assert halfspace_cube_volume([1, 2], 1) == Fraction(1, 4)


def test_halfspace_volume_axis_case():
    for t in (Fraction(-1, 2), Fraction(0), Fraction(3, 10), Fraction(1), Fraction(2)):
        expected = min(max(t, Fraction(0)), Fraction(1))
        assert halfspace_cube_volume([1, 0, 0], t) == expected


def test_halfspace_volume_negative_coeffs_and_mc_oracle():
    cases = [([1, -1], Fraction(1, 3), 2), ([2, -1, 1], Fraction(1, 2), 3), ([-1, -2], Fraction(-1), 2)]
    for a, b, d in cases:
        vol = halfspace_cube_volume(a, b)
        assert 0 <= vol <= 1
        mc = mc_halfspace_volume_oracle(a, float(b), d)
        assert abs(float(vol) - mc) < 0.005


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4).filter(
        lambda v: any(v)
    ),
    num=st.integers(min_value=-40, max_value=40),
    den=st.integers(min_value=1, max_value=8),
)
def test_halfspace_volume_properties(a, num, den):
    b = Fraction(num, den)
    v = halfspace_cube_volume(a, b)
    assert 0 <= v <= 1
    # the two closed halves overlap in a measure-zero plane
    assert v + halfspace_cube_volume([-x for x in a], -b) == 1
    # monotone in the offset
    assert halfspace_cube_volume(a, b + Fraction(1, 3)) >= v


def test_halfspace_volume_complement_identity():
    # Vol(a.x <= b) + Vol(-a.x <= -b) = 1 for continuous cut positions
    a = [3, -2, 1]
    for b in (Fraction(1, 3), Fraction(-1, 2), Fraction(7, 5)):
        v1 = halfspace_cube_volume(a, b)
        v2 = halfspace_cube_volume([-x for x in a], -b)
        assert v1 + v2 == 1


def test_halfspace_derivative_matches_finite_difference():
    a = [2, -1]
    h = Fraction(1, 10**6)
    for b in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 8)):
        fd = (halfspace_cube_volume(a, b + h) - halfspace_cube_volume(a, b - h)) / (2 * h)
        dv = halfspace_cube_volume_derivative(a, b)
        assert abs(float(fd - dv)) < 1e-5


def test_cross_section_sqrt2_attained():
    # the diagonal plane through the square center has section length sqrt(2)
    dv = halfspace_cube_volume_derivative([1, 1], 1)
    assert float(dv) * math.sqrt(2) == pytest.approx(math.sqrt(2))
    # and in d=3 the max axis-diagonal section is also sqrt(2)
    dv3 = halfspace_cube_volume_derivative([1, 1, 0], 1)
    assert float(dv3) * math.sqrt(2) == pytest.approx(math.sqrt(2))


def test_vd_decision_cross_sections_bounded_by_sqrt2():
    # numerical validation of v_d = sqrt(2) for d in {2, 3}
    rng = np.random.default_rng(7)
    for d in (2, 3):
        worst = 0.0
        for _ in range(200):
            a = rng.normal(size=d)
            a /= np.linalg.norm(a)
            af = [Fraction(round(v * 2**20), 2**20) for v in a]
            b = Fraction(round(rng.uniform(float(sum(x for x in af if x < 0)),
                                           float(sum(x for x in af if x > 0))) * 2**20), 2**20)
            norm = math.sqrt(float(sum(x * x for x in af)))
            section = float(halfspace_cube_volume_derivative(af, b)) * norm
            worst = max(worst, section)
        assert worst <= math.sqrt(2) + 1e-9
        assert worst > 1.0  # near-diagonal sections beat axis sections


def test_count_points_halfspace_rank1():
    assert count_points_halfspace(P5, [1, 0], Fraction(1, 2)) == 3
    assert count_points_halfspace(P5, [1, 0], Fraction(2, 5)) == 3  # boundary point counts
    assert count_points(P5, unit_cube(2)) == 5


def test_count_points_open_slab_is_zero():
    # all five points satisfy 2x1 - x2 in {0, 1} exactly
    assert count_points_slab(P5, (2, -1), 0, 1, closed=False) == 0
    assert count_points_slab(P5, (2, -1), 0, 1, closed=True) == 5


def test_count_points_ball_exact():
    ball = Ball([0.5, 0.5], 0.25)
    # brute inspection: which of the 5 points are within 0.25 of center?
    expected = 0
    for p in fraction_points(P5):
        if (float(p[0]) - 0.5) ** 2 + (float(p[1]) - 0.5) ** 2 <= 0.25**2 + 1e-15:
            expected += 1
    assert count_points(P5, ball) == expected


def test_count_points_box_and_polytope():
    box = AxisBox([0.0, 0.0], [0.5, 0.5])
    assert count_points(P5, box) == count_points_halfspace(P5, [1, 0], Fraction(1, 2)) - sum(
        1 for p in fraction_points(P5) if p[0] <= Fraction(1, 2) and p[1] > Fraction(1, 2)
    )
    tri = HPolytope([[1.0, 2.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    assert count_points(P5, tri) == sum(
        1 for p in fraction_points(P5) if p[0] + 2 * p[1] <= 1
    )


def test_convex_hull_2d_and_area():
    pts = [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]
    hull = convex_hull_2d(pts)
    assert len(hull) == 4
    assert polygon_area_exact(hull) == 1


def test_slab_witness_rank1_5_12():
    w = slab_witness(R5)
    assert w.family == "dual-slab"
    assert w.inside_count == 0
    assert w.certified
    # slab 0 < 2x1 - x2 < 1 has area 1/2 (piecewise-linear computation)
    assert w.local_value == pytest.approx(0.5, abs=1e-6)
    assert w.local_value_exact <= Fraction(1, 2)


def test_slab_witness_z1_single_point():
    lat = rank1_lattice(1, (0,))
    w = slab_witness(lat)
    assert w.local_value == pytest.approx(1.0, abs=1e-6)


def test_slab_witness_equispaced_gap():
    lat = rank1_lattice(8, (1,))
    w = slab_witness(lat)
    assert w.local_value == pytest.approx(1 / 8, abs=1e-6)
    # length is exactly 1/N minus twice the 1e-9 Euclidean shrink
    assert Fraction(1, 8) - w.local_value_exact <= Fraction(3, 10**9)


def test_isotropic_lower_bound_single_point_d2():
    lat = rank1_lattice(1, (0, 0))
    ps = enumerate_points(lat)
    best, all_w = isotropic_lower_bound(ps, budget=6, seed=42)
    assert best.certified
    assert best.local_value >= 0.9
    assert all(w.local_value <= 1 + 1e-12 for w in all_w)


def test_isotropic_lower_bound_equispaced_d1():
    lat = rank1_lattice(16, (1,))
    ps = enumerate_points(lat)
    best, _ = isotropic_lower_bound(ps, budget=4, seed=1)
    assert best.local_value >= 1 / 16 - 1e-6
    assert best.local_value <= 1 / 16 + 1e-6 or best.local_value <= 1.0


def test_isotropic_lower_bound_monotone_in_budget():
    ps = enumerate_points(fibonacci_lattice(8))
    vals = []
    for budget in (2, 4, 8):
        best, _ = isotropic_lower_bound(ps, budget, seed=11)
        vals.append(best.local_value_exact)
    assert vals[0] <= vals[1] <= vals[2]


def test_witness_bodies_inside_cube():
    ps = enumerate_points(fibonacci_lattice(7))
    _, all_w = isotropic_lower_bound(ps, budget=6, seed=3)
    for w in all_w:
        lo, hi = w.body.bounding_box()
        assert np.all(lo >= -1e-9) and np.all(hi <= 1 + 1e-9)
        assert 0 <= w.inside_count <= ps.n


def test_verify_thm1_rank1_5_12():
    rep = verify_thm1(R5, budget=6, seed=0, lattice_id="rank1-5-12")
    assert rep.verdict == "PASS"
    assert rep.bound == pytest.approx(2 * 2**6 / math.sqrt(5), rel=1e-12)
    assert rep.old_bound == pytest.approx(4 * 4 / math.sqrt(5), rel=1e-12)
    assert rep.j_lower >= 0.5 - 1e-6
    assert rep.slab_floor_ok
    assert rep.j_lower <= min(1.0, rep.bound)


def test_verify_thm1_zd():
    for d in (1, 2, 3):
        lat = rank1_lattice(1, tuple(0 for _ in range(d)))
        rep = verify_thm1(lat, budget=3, seed=5)
        assert rep.verdict == "PASS"
        assert rep.sigma == 1.0
        assert rep.slab_floor_ok


def test_verify_thm1_fibonacci():
    rep = verify_thm1(fibonacci_lattice(15), budget=6, seed=9)
    assert rep.verdict == "PASS"
    assert rep.slab_floor_ok
    assert rep.slab_value > 0
    assert rep.j_lower <= min(1.0, rep.bound)


def test_thm1_slab_floor_is_taken_at_the_witness_slab():
    # the spectral test picks (0, 4, -1), the slab witness (-2, 2, 3) of the
    # same norm; their floors differ (0.05 and 0.0625)
    lat = rank1_lattice(64, (51, 21, 20))
    _, witnesses = isotropic_lower_bound(enumerate_points(lat), budget=12, seed=0)
    h, k = next(w for w in witnesses if w.family == "dual-slab").dual_slab
    rep = verify_thm1(lat, budget=12, seed=0)
    floor = Fraction(1, 5) * halfspace_cube_volume_derivative(h, Fraction(2 * k + 1, 2))
    assert rep.slab_floor == float(floor) == 0.0625
    assert rep.slab_floor_ok


# ---------------------------------------------------------------------------
# Integer counting against a Fraction reference
# ---------------------------------------------------------------------------

def ref_in_halfspaces(p, halfspaces):
    return all(sum(Fraction(ai) * x for ai, x in zip(a, p)) <= Fraction(b) for a, b in halfspaces)


def ref_in_ball(p, ball):
    c = [Fraction(v) for v in ball.center.tolist()]
    return sum((x - ci) ** 2 for x, ci in zip(p, c)) <= Fraction(ball.radius) ** 2


def ref_in_hull(p, hull):
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        ab, ap = (b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])
        t = ap[0] * ab[0] + ap[1] * ab[1]
        return ab[0] * ap[1] - ab[1] * ap[0] == 0 and 0 <= t <= ab[0] ** 2 + ab[1] ** 2
    return all(
        (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0
        for a, b in zip(hull, hull[1:] + hull[:1])
    )


def ref_count(ps, inside):
    return sum(1 for p in fraction_points(ps) if inside(p))


CORPUS_POINT_SETS = [
    enumerate_points(lat)
    for lat in (
        fibonacci_lattice(10),
        rank1_lattice(64, (1, 27)),  # dyadic points: bodies can pass through them exactly
        rank1_lattice(64, (5, 17, 41)),
        rank1_lattice(256, (1, 45, 203, 117)),
        rank1_lattice(1, (0, 0)),
    )
]
PYTHAGOREAN = {2: ((3, 4), 5), 3: ((2, 3, 6), 7), 4: ((1, 2, 2, 4), 5)}


def _random_ball(rng, ps):
    """A ball in the cube, half the time with a lattice point on its sphere."""
    d = ps.dim
    v, norm = PYTHAGOREAN[d]
    p = ps.as_array()[rng.integers(ps.n)]
    c = p + rng.choice([-1, 1], size=d) * np.array(v) / 256
    r = norm / 256
    if rng.random() < 0.5 or np.any(c < r) or np.any(c > 1 - r):
        r = float(rng.uniform(0.01, 0.45))
        c = np.round(rng.uniform(r, 1 - r, size=d) * 2**20) / 2**20
        c = np.clip(c, r, 1 - r)
    return Ball(c, r)


@pytest.mark.parametrize("ps", CORPUS_POINT_SETS, ids=lambda ps: f"d{ps.dim}-N{ps.n}")
def test_integer_counts_match_fraction_reference(ps):
    rng = np.random.default_rng(ps.n)
    d = ps.dim
    pts = ps.as_array()
    exact = fraction_points(ps)
    unit = np.eye(d, dtype=int).tolist()
    for _ in range(25):
        h = tuple(int(x) for x in rng.integers(-5, 6, size=d))
        lo = sum(hj * x for hj, x in zip(h, exact[rng.integers(ps.n)]))  # through a point
        hi = lo + Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 5)))
        values = [sum(hj * x for hj, x in zip(h, q)) for q in exact]
        assert count_points_slab(ps, h, lo, hi) == sum(lo <= v <= hi for v in values)
        assert count_points_slab(ps, h, lo, hi, closed=False) == sum(lo < v < hi for v in values)

        a = [Fraction(int(x), 1 << 20) for x in rng.integers(-(1 << 20), 1 << 20, size=d)]
        b = sum(ai * x for ai, x in zip(a, exact[rng.integers(ps.n)]))
        assert count_points_halfspace(ps, a, b) == ref_count(ps, lambda q: ref_in_halfspaces(q, [(a, b)]))

        corner = pts[rng.integers(ps.n)] if rng.random() < 0.5 else rng.uniform(0, 1, size=d)
        box = AxisBox(corner * 0.5, corner * 0.5 + rng.uniform(0, 0.5, size=d))
        box_hs = list(zip(unit, box.upper.tolist()))
        box_hs += [([-x for x in e], -v) for e, v in zip(unit, box.lower.tolist())]
        assert count_points(ps, box) == ref_count(ps, lambda q: ref_in_halfspaces(q, box_hs))

        ball = _random_ball(rng, ps)
        assert count_points(ps, ball) == ref_count(ps, lambda q: ref_in_ball(q, ball))

        normals = rng.integers(-3, 4, size=(3, d)).astype(float)
        normals[~normals.any(axis=1), 0] = 1.0
        offsets = np.einsum("ij,ij->i", normals, pts[rng.integers(ps.n, size=3)])
        poly = HPolytope(normals, offsets + rng.integers(0, 2, size=3) / 8, skip_checks=True)
        poly_hs = list(zip(poly.normals.tolist(), poly.offsets.tolist()))
        assert count_points(ps, poly) == ref_count(ps, lambda q: ref_in_halfspaces(q, poly_hs))

        if d == 2:
            verts = pts[rng.integers(ps.n, size=int(rng.integers(3, 7)))]
            if rng.random() < 0.5:
                verts = np.round(rng.uniform(0, 1, size=verts.shape) * 128) / 128
            hull = convex_hull_2d([tuple(Fraction(v) for v in row) for row in verts.tolist()])
            assert count_points(ps, VPolytope(verts)) == ref_count(ps, lambda q: ref_in_hull(q, hull))


def test_degenerate_hulls_match_fraction_reference():
    ps = CORPUS_POINT_SETS[1]
    p, q = fraction_points(ps)[3], fraction_points(ps)[7]
    mid = tuple((x + y) / 2 for x, y in zip(p, q))
    for hull in ([p], convex_hull_2d([p, q]), convex_hull_2d([p, mid, q])):
        got = int(np.count_nonzero(_in_halfspaces(ps, _hull_halfplanes(hull))))
        assert got == ref_count(ps, lambda x: ref_in_hull(x, hull))
        assert got >= len(hull)


def test_counts_exact_when_int64_could_overflow():
    # a hand-made point set over D ~ 2^62: the products m.P need Python ints
    denom = (1 << 62) + 3
    ints = np.array([[0, 0], [1, denom - 1], [denom // 3, denom // 5], [denom - 2, 7]], dtype=np.int64)
    ps = LatticePointSet(2, ints, denom)
    h = (3, -5)
    s, scale = _scaled_dot(ps, h)
    assert s.dtype == object and scale == denom
    for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(3 * (denom // 3) - 5 * (denom // 5), denom), 3)):
        values = [sum(hj * x for hj, x in zip(h, q)) for q in fraction_points(ps)]
        assert count_points_slab(ps, h, lo, hi) == sum(lo <= v <= hi for v in values)
        assert count_points_slab(ps, h, lo, hi, closed=False) == sum(lo < v < hi for v in values)
    a = [Fraction(1, 3), Fraction(2, 7)]
    for q in fraction_points(ps):
        b = a[0] * q[0] + a[1] * q[1]
        assert count_points_halfspace(ps, a, b) == ref_count(ps, lambda x: ref_in_halfspaces(x, [(a, b)]))
    ball = Ball([0.5, 0.25], 0.25)
    assert count_points(ps, ball) == ref_count(ps, lambda x: ref_in_ball(x, ball))
    # the ball witnesses' scale: 2^20 centers over a corpus-size denominator
    big = enumerate_points(fibonacci_lattice(20))
    ball = Ball([0.5 + 3 / 2**20, 0.5], 0.3 + 1 / 2**20)
    assert count_points(big, ball) == ref_count(big, lambda x: ref_in_ball(x, ball))


def test_slab_witness_records_its_best_index():
    lat = fibonacci_lattice(12)
    ps = enumerate_points(lat)
    for h in shortest_dual_vectors(lat, 4):
        w = slab_witness(lat, h, points=ps)
        fam_lo = sum(min(x, 0) for x in h)
        fam_hi = sum(max(x, 0) for x in h)
        eps = _slab_eps_functional(h)
        vols = {
            k: halfspace_cube_volume(h, k + 1 - eps) - halfspace_cube_volume(h, k + eps)
            for k in range(fam_lo, fam_hi)
        }
        best_k = max(vols, key=lambda k: (vols[k], -k))
        assert w.dual_slab == (h, best_k)
        assert w.local_value_exact == vols[best_k]


@pytest.mark.parametrize("lat", [fibonacci_lattice(11), rank1_lattice(256, (1, 45, 203))])
def test_halfspace_witness_counts_match_fraction_reference(lat):
    ps = enumerate_points(lat)
    _, witnesses = isotropic_lower_bound(ps, budget=12, seed=2)
    halfspaces = [w for w in witnesses if w.family == "halfspace"]
    assert halfspaces
    for w in halfspaces:
        # the cut passes through a lattice point (closed), or 2^-40 below it (open)
        a = [Fraction(v) for v in w.body.normals[0].tolist()]
        values = [sum(ai * x for ai, x in zip(a, q)) for q in fraction_points(ps)]
        v = min(values, key=lambda t: abs(float(t) - w.body.offsets[0]))
        candidates = [
            (sum(t <= v for t in values), v),
            (sum(t < v for t in values), v - Fraction(1, 1 << 40)),
        ]
        assert any(
            count == w.inside_count
            and abs(Fraction(count, ps.n) - halfspace_cube_volume(a, b)) == w.local_value_exact
            for count, b in candidates
        )


# ---------------------------------------------------------------------------
# Ball volumes in exact arithmetic
# ---------------------------------------------------------------------------

# pi truncated after 49 decimals: PI_50 < pi < PI_50 + 1e-49
PI_50 = Fraction("3.1415926535897932384626433832795028841971693993751")
PI_50_HI = PI_50 + Fraction(1, 10**49)


def kappa_ref(d, pi):
    """kappa_d by the recursion kappa_d = kappa_(d-2) 2 pi / d."""
    k = [Fraction(1), Fraction(2)]
    for j in range(2, d + 1):
        k.append(k[j - 2] * 2 * pi / j)
    return k[d]


@pytest.mark.parametrize("d", range(1, 13))
def test_ball_volume_enclosure_contains_the_volume(d):
    for r in (Fraction(1, 2**20), Fraction(1, 20) + Fraction(3, 2**20), Fraction(3, 8), Fraction(1, 2)):
        lo, hi = ball_volume_enclosure(d, r)
        assert lo <= kappa_ref(d, PI_50) * r**d <= kappa_ref(d, PI_50_HI) * r**d <= hi
        assert hi - lo <= Fraction(1, 10**15) * lo


def _corpus_point_sets(ids):
    return [
        enumerate_points(corpus_lattice(e))
        for e in builtin_corpus(CorpusSpec(), 20200817)
        if e[0] in ids
    ]


@pytest.mark.parametrize(
    "ps", _corpus_point_sets({"rank1-d2-n256-i00", "rank1-d3-n256-i00", "rank1-d4-n1024-i00"})
)
def test_ball_witnesses_are_certified_lower_bounds(ps):
    _, witnesses = isotropic_lower_bound(ps, budget=12, seed=20200817)
    balls = [w for w in witnesses if w.family == "ball"]
    assert len(balls) == 4
    for w in balls:
        assert w.certified and not w.volume.exact
        assert w.inside_count == count_points(ps, w.body)
        r = Fraction(w.body.radius)
        frac = Fraction(w.inside_count, ps.n)
        for pi in (PI_50, PI_50_HI):
            assert w.local_value_exact <= abs(frac - kappa_ref(ps.dim, pi) * r**ps.dim)
        assert w.local_value == float(w.local_value_exact)
    assert any(w.local_value_exact > 0 for w in balls)


@pytest.mark.parametrize("ps", CORPUS_POINT_SETS)
def test_isotropic_lower_bound_returns_only_certified_witnesses(ps):
    best, witnesses = isotropic_lower_bound(ps, budget=6, seed=7)
    assert {w.family for w in witnesses} >= {"ball", "halfspace"}
    assert all(w.certified for w in witnesses)
    assert best.local_value_exact == max(w.local_value_exact for w in witnesses)
