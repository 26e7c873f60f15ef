import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import array_shapes, arrays

from face_oracle import face_contents
from latdisc.convex import (
    AxisBox,
    Ball,
    HPolytope,
    VPolytope,
    binom_kappa_sum,
    body_from_json_dict,
    boundary_neighborhood_volume,
    box_steiner_volume,
    kappa,
    log_kappa,
    offset_volumes,
    parallel_volume_derivative_check,
    random_body,
    remark_lower,
    remark_upper,
    steiner_volume,
    unit_cube,
)
from latdisc.convex import _first_rows
from latdisc.errors import EmptyBodyError
from latdisc.harness import Budgets, chunk_rng

MC_CHUNK = 1 << 16


def box_fraction(lower, upper, indicator, n, seed):
    """Test-only Monte Carlo oracle: (hits, n) for n uniform samples of the
    box [lower, upper] hitting `indicator`, which maps an (m, d) array to a
    boolean array. Chunk i of MC_CHUNK samples draws from chunk_rng(seed, i)."""
    lower = np.asarray(lower, dtype=float)
    spans = np.asarray(upper, dtype=float) - lower
    hits = 0
    for i in range((n + MC_CHUNK - 1) // MC_CHUNK):
        m = min(MC_CHUNK, n - i * MC_CHUNK)
        x = chunk_rng(seed, i).random((m, lower.shape[0])) * spans + lower
        hits += int(np.count_nonzero(indicator(x)))
    return hits, n


def random_bodies(d, count, rng):
    """`count` random bodies, cycling through the kinds the campaign draws."""
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    return [random_body(d, rng, kinds[i % len(kinds)]) for i in range(count)]


def box_quermassintegral(sides, j):
    """W_j of an axis box via binom(d, j) W_j = kappa_j V_{d-j}, with
    V_k(box) = e_k(sides), the k-th elementary symmetric polynomial."""
    d = len(sides)
    e = sum(math.prod(c) for c in itertools.combinations(sides, d - j))
    return kappa(j) * e / math.comb(d, j)


def polytope_distance(body, x, cap=math.inf):
    """Test-only oracle: (distances, nearest points) from the rows of x to a
    polytope, 0 and x itself inside. The nearest point to an exterior x is
    the projection of x onto aff(F) for some face F, so the distance is the
    least |x - p| over the faces whose projection p is feasible. The largest
    facet margin bounds the distance below; points with a margin above `cap`
    skip the search and get +inf."""
    a, b, faces = body._unit_normals, body._unit_offsets, body._faces()
    margin = (x @ a.T - b).max(axis=1)
    dist = np.where(margin <= 0, 0.0, np.inf)
    nearest = x.copy()
    out = np.flatnonzero((margin > 0) & (margin <= cap))
    for members, basis in zip(faces.members, faces.bases):
        o = faces.vertices[members][0]
        p = o + (x[out] - o) @ basis.T @ basis
        r = np.linalg.norm(x[out] - p, axis=1)
        better = ((p @ a.T - b).max(axis=1) <= 1e-10) & (r < dist[out])
        dist[out[better]], nearest[out[better]] = r[better], p[better]
    return dist, nearest


TRIANGLE = HPolytope(
    normals=[[1.0, 2.0], [-1.0, 0.0], [0.0, -1.0]], offsets=[1.0, 0.0, 0.0]
)


def test_kappa_small_values():
    assert kappa(0) == pytest.approx(1.0, abs=1e-14)
    assert kappa(1) == pytest.approx(2.0, abs=1e-13)
    assert kappa(2) == pytest.approx(math.pi, abs=1e-13)
    assert kappa(5) == pytest.approx(8 * math.pi**2 / 15, abs=1e-12)


def test_kappa_max_at_five():
    vals = [kappa(j) for j in range(51)]
    assert all(v <= kappa(5) + 1e-12 for v in vals)
    assert log_kappa(10**7) < 0  # stable far beyond the float-gamma range


def test_cube_quermassintegral_is_kappa():
    assert box_quermassintegral(np.ones(3), 1) == pytest.approx(kappa(1), abs=1e-13)
    # d * W_1 is the surface area of the unit cube
    assert 3 * box_quermassintegral(np.ones(3), 1) == pytest.approx(6.0, abs=1e-12)
    for d in (2, 3, 5):
        for j in range(d + 1):
            assert box_quermassintegral(np.ones(d), j) == pytest.approx(kappa(j), abs=1e-12)


def test_box_quermassintegral_monotone_under_inclusion():
    for d in (2, 3, 4):
        sides = np.full(d, 0.6)
        for j in range(d + 1):
            assert box_quermassintegral(sides, j) <= kappa(j) + 1e-12  # the unit cube's W_j
        # nested boxes
        small, big = np.full(d, 0.3), np.full(d, 0.8)
        for j in range(d + 1):
            assert box_quermassintegral(small, j) <= box_quermassintegral(big, j) + 1e-12


def test_steiner_cube_2d():
    est = steiner_volume(unit_cube(2), 0.5)
    assert est == pytest.approx(1 + 4 * 0.5 + math.pi * 0.25, abs=1e-12)


def test_steiner_ball():
    est = steiner_volume(Ball([0.5, 0.5], 0.3), 0.1)
    assert est == pytest.approx(math.pi * 0.16, abs=1e-12)


def test_steiner_rho_zero_is_volume():
    for body in [unit_cube(3), Ball([0.5, 0.5], 0.25)]:
        assert steiner_volume(body, 0.0) == pytest.approx(body.volume(), abs=1e-12)


def test_steiner_cube_against_mc_oracle():
    est = steiner_volume(unit_cube(2), 0.3)
    # MC oracle: sample [-0.3, 1.3]^2, distance to the cube
    hits, n = box_fraction(
        np.array([-0.3, -0.3]),
        np.array([1.3, 1.3]),
        lambda x: np.linalg.norm(np.maximum(np.maximum(-x, x - 1), 0), axis=1) <= 0.3,
        n=200_000,
        seed=7,
    )
    mc = 1.6 * 1.6 * hits / n
    se = 1.6 * 1.6 * math.sqrt(0.25 / n)
    assert abs(est - mc) <= 3 * se


def test_steiner_polygon_2d():
    tri = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
    est = steiner_volume(tri, 0.2)
    perim = 1 + 0.5 + math.hypot(1, 0.5)
    assert est == pytest.approx(0.25 + perim * 0.2 + math.pi * 0.04, abs=1e-12)


def test_steiner_h_triangle_matches_2d_closed_form():
    # the H-form of the triangle (0,0), (1,0), (0,0.5): area + perimeter rho + pi rho^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = steiner_volume(TRIANGLE, 0.1)
    perim = 1 + 0.5 + math.hypot(1, 0.5)
    assert est == pytest.approx(0.25 + perim * 0.1 + math.pi * 0.01, abs=1e-12)


def test_triangle_projection_matches_grid_oracle():
    x = np.array([1.0, 1.0])
    d = polytope_distance(TRIANGLE, x[None, :])[0][0]
    # dense grid oracle over the triangle
    g = np.linspace(0, 1, 2001)
    xx, yy = np.meshgrid(g, g * 0.5)
    pts = np.c_[xx.ravel(), yy.ravel()]
    pts = pts[pts[:, 0] + 2 * pts[:, 1] <= 1.0]
    oracle = np.min(np.linalg.norm(pts - x, axis=1))
    assert abs(d - oracle) <= 1e-3  # grid resolution limit
    assert d == pytest.approx(2 / math.sqrt(5), abs=1e-8)


def test_projection_point_is_feasible_and_optimal():
    p = polytope_distance(TRIANGLE, np.array([[1.0, 1.0]]))[1][0]
    assert (TRIANGLE.normals @ p - TRIANGLE.offsets).max() <= 1e-10
    assert np.allclose(p, [0.6, 0.2], atol=1e-8)


def test_offset_ball_annulus():
    est = offset_volumes(Ball([0.5, 0.5], 0.3), [0.1], "outer")[0]
    assert est == pytest.approx(math.pi * (0.4**2 - 0.3**2), abs=1e-12)


def test_offset_cube_outer_matches_lemma3_equality_case():
    est = offset_volumes(unit_cube(2), [0.1], "outer")[0]
    assert est == pytest.approx(4 * 0.1 + math.pi * 0.01, abs=1e-12)


def test_offset_rho_zero():
    for side in ("outer", "inner"):
        assert offset_volumes(unit_cube(2), [0.0], side)[0] == 0.0


def test_offset_inner_cube():
    est = offset_volumes(unit_cube(3), [0.05], "inner")[0]
    assert est == pytest.approx(1 - 0.9**3, abs=1e-12)


def test_offset_matches_polygon_steiner_difference():
    tri = VPolytope([[0.1, 0.1], [0.9, 0.1], [0.1, 0.5]])
    rho = 0.08
    est = offset_volumes(tri, [rho], "outer")[0]
    perim = 0.8 + 0.4 + math.hypot(0.8, 0.4)
    assert abs(est - (perim * rho + math.pi * rho**2)) <= 1e-12


def test_offset_volumes_shares_stream_and_is_monotone():
    tri = VPolytope([[0.1, 0.1], [0.9, 0.1], [0.1, 0.5]])
    vals = offset_volumes(tri, [0.01, 0.05, 0.1], "outer")
    assert vals == sorted(vals)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -0.1])
def test_offset_radius_that_is_not_finite_nonnegative_is_rejected(rho):
    ball = Ball([0.5, 0.5], 0.3)
    with pytest.raises(ValueError, match="rho"):
        offset_volumes(ball, [0.05, rho], "inner")
    with pytest.raises(ValueError, match="rho"):
        steiner_volume(ball, rho)
    with pytest.raises(ValueError, match="rho"):
        boundary_neighborhood_volume(ball, rho)


def test_boundary_neighborhood_ball():
    est = boundary_neighborhood_volume(Ball([0.5, 0.5], 0.3), 0.1)
    assert est == pytest.approx(math.pi * (0.4**2 - 0.2**2), abs=1e-12)
    assert est <= 2 * 2**6 * 0.1


def test_boundary_neighborhood_point():
    pt = VPolytope([[0.4, 0.4, 0.4]])
    est = boundary_neighborhood_volume(pt, 0.2)
    assert est == pytest.approx(kappa(3) * 0.2**3, abs=1e-12)


def test_boundary_neighborhood_cube_3d():
    est = boundary_neighborhood_volume(unit_cube(3), 0.05)
    outer = sum(math.comb(3, j) * kappa(j) * 0.05**j for j in range(1, 4))
    inner = 1 - 0.9**3
    assert est == pytest.approx(outer + inner, abs=1e-12)


def test_inradius_closed_forms():
    assert unit_cube(4).inradius() == pytest.approx(0.5)
    assert Ball([0.5, 0.5], 0.21).inradius() == 0.21
    assert AxisBox([0.1, 0.2], [0.9, 0.5]).inradius() == pytest.approx(0.15)


def test_inradius_triangle_chebyshev():
    # oracle: area / semiperimeter for a triangle
    area = 0.25
    semi = (1 + 0.5 + math.hypot(1, 0.5)) / 2
    assert TRIANGLE.inradius() == pytest.approx(area / semi, abs=1e-9)
    assert area / semi == pytest.approx(0.190983, abs=1e-6)


def test_inradius_empty_body_raises():
    with pytest.raises(EmptyBodyError):
        HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.8])


@pytest.mark.parametrize(
    ("normals", "offsets"),
    [
        ([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.0]),  # strip: rank A < d
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [0.5, 0.0, 0.0]),  # half-strip: rank A = d
    ],
    ids=["strip", "half-strip"],
)
def test_hpolytope_unbounded_with_finite_inradius_raises(normals, offsets):
    # qhull's vertices at infinity divide by zero; that must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unbounded"):
            HPolytope(normals, offsets)


def _counted(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that counts its calls in calls[name]."""
    real = getattr(module, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_hpolytope_runs_one_lp_and_one_halfspace_intersection(monkeypatch):
    import scipy.optimize
    import scipy.spatial

    calls = {}
    _counted(monkeypatch, calls, scipy.optimize, "milp")
    _counted(monkeypatch, calls, scipy.spatial, "HalfspaceIntersection")
    body = _cut_cube_4d()
    body.bounding_box()
    body.volume()
    body.intrinsic_volumes()
    assert calls == {"milp": 1, "HalfspaceIntersection": 1}


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: AxisBox([math.nan, 0.0], [1.0, 1.0]), "lower"),
        (lambda: AxisBox([0.0, 0.0], [1.0, math.inf]), "upper"),
        (lambda: Ball([0.5, math.nan], 0.1), "center"),
        (lambda: Ball([0.5, 0.5], math.nan), "radius"),
        (lambda: VPolytope([[0.1, 0.1], [math.nan, 0.2], [0.3, 0.9]]), "vertices"),
        (lambda: HPolytope([[1.0, 0.0], [math.nan, 1.0], [0.0, -1.0]], [1.0, 1.0, 0.0]), "normals"),
        (
            lambda: HPolytope(
                [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.5, 0.0, math.inf, 0.0]
            ),
            "offsets",
        ),
    ],
    ids=["lower", "upper", "center", "radius", "vertices", "normals", "offsets"],
)
def test_non_finite_body_input_is_rejected_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        build()


def test_hpolytope_outside_cube_raises():
    with pytest.raises(ValueError, match="not contained"):
        HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="not contained"):
        HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.5, 1e-6, 0.5, 0.0])
    # within the 1e-9 slack
    HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.5, 1e-10, 0.5, 0.0])


def test_hpolytope_empty_triangle_raises():
    with pytest.raises(EmptyBodyError):
        HPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [-0.1, 0.0, 0.0])
    with pytest.raises(EmptyBodyError, match="empty interior"):  # the segment x = 1/2
        HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.5, -0.5, 1.0, 0.0])


def test_hpolytope_bounding_box_is_the_vertex_extremes():
    lo, hi = TRIANGLE.bounding_box()
    assert np.allclose(lo, [0.0, 0.0], atol=1e-12) and np.allclose(hi, [1.0, 0.5], atol=1e-12)


def test_derivative_check_ball():
    fd, analytic = parallel_volume_derivative_check(Ball([0.5, 0.5], 0.3), 0.1, 1e-4)
    assert analytic == pytest.approx(2 * math.pi * 0.4, abs=1e-12)
    assert abs(fd - analytic) <= 1e-6


def test_derivative_check_cube_outer():
    fd, analytic = parallel_volume_derivative_check(unit_cube(2), 0.2, 1e-4)
    assert analytic == pytest.approx(4 + 2 * math.pi * 0.2, abs=1e-12)
    assert abs(fd - analytic) <= 1e-6


def test_derivative_check_cube_inner():
    fd, analytic = parallel_volume_derivative_check(unit_cube(2), -0.1, 1e-5)
    assert analytic == pytest.approx(3.2, abs=1e-12)
    assert abs(fd - analytic) <= 1e-6


def test_derivative_check_domain_guard():
    with pytest.raises(ValueError):
        parallel_volume_derivative_check(Ball([0.5, 0.5], 0.3), -0.3, 1e-3)


def test_binom_kappa_sum_small():
    assert binom_kappa_sum(1) == pytest.approx(math.log(2), abs=1e-12)
    assert binom_kappa_sum(2) == pytest.approx(math.log(4 + math.pi), abs=1e-12)


def _one_shot_binom_kappa_sum(d):
    """The sum's log-sum-exp over all d terms at once (O(d) memory)."""
    from scipy.special import gammaln, logsumexp

    j = np.arange(1, d + 1, dtype=float)
    return float(logsumexp(
        gammaln(d + 1) - gammaln(j + 1) - gammaln(d - j + 1)
        + 0.5 * j * math.log(math.pi) - gammaln(1 + 0.5 * j)
    ))


def test_binom_kappa_sum_is_one_block_up_to_the_block_size():
    from latdisc.convex import _KAPPA_BLOCK

    assert _KAPPA_BLOCK >= 2**17
    for d in (1, 2, 10, 1000, 10**5):
        assert binom_kappa_sum(d) == _one_shot_binom_kappa_sum(d)


@pytest.mark.parametrize("d", [1, 7, 64, 1000, 25_000])
def test_binom_kappa_sum_in_small_blocks_matches_one_shot(d, monkeypatch):
    from latdisc import convex

    monkeypatch.setattr(convex, "_KAPPA_BLOCK", 7)
    assert binom_kappa_sum(d) == pytest.approx(_one_shot_binom_kappa_sum(d), rel=1e-12)


def test_binom_kappa_sum_memory_is_bounded_at_large_d():
    import tracemalloc

    binom_kappa_sum(10)  # scipy's import allocates too; keep it out of the peak
    tracemalloc.start()
    try:
        value = binom_kappa_sum(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the one-shot sum peaks at about 544 MiB here
    assert remark_lower(10**7, 0.3) <= value <= remark_upper(10**7, 5.1)


def test_remark_sandwich_large_d():
    for d in (10, 100, 1000):
        s = binom_kappa_sum(d)
        assert remark_lower(d, 0.3) <= s
        if d >= 1000:
            assert s / d ** (2 / 3) <= 5.1 * math.log(d * math.sqrt(2 * math.e**3 * math.pi))


def test_remark_parameter_validation():
    with pytest.raises(ValueError):
        remark_lower(10, 0.7)
    with pytest.raises(ValueError):
        remark_upper(10, 2.0)


def test_random_bodies_inside_cube_and_valid():
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    for d in (2, 3, 4):
        for body in random_bodies(d, 8, rng):
            lo, hi = body.bounding_box()
            assert np.all(lo >= -1e-9) and np.all(hi <= 1 + 1e-9)
            assert body.inradius() >= 0
            assert 0 <= body.volume() <= 1 + 1e-9


def test_lemma2_and_lemma3_small_sample():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 6], dtype=np.uint64)))
    for d in (2, 3):
        for body in random_bodies(d, 4, rng):
            for rho in (0.05, 0.1):
                outer = offset_volumes(body, [rho], "outer")[0]
                inner = offset_volumes(body, [rho], "inner")[0]
                assert outer >= inner
                assert max(outer, inner) <= 2 ** (d + 3) * rho


def test_outer_offset_monotone_in_rho_exact_bodies():
    grid = np.linspace(0.0, 0.5, 11)
    for body in [Ball([0.5, 0.5], 0.25), AxisBox([0.2, 0.3], [0.7, 0.8]), unit_cube(3)]:
        vals = [offset_volumes(body, [float(r)], "outer")[0] for r in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_inner_offset_saturates_above_inradius():
    # K_rho is empty below -r(K), so the inner shell at rho > r(K) is all of K
    box = AxisBox([0.4, 0.1], [0.6, 0.9])  # inradius 0.1
    est = offset_volumes(box, [0.11], "inner")[0]
    assert est == pytest.approx(box.volume(), abs=1e-12)
    ball = Ball([0.5, 0.5], 0.2)
    est = offset_volumes(ball, [0.21], "inner")[0]
    assert est == pytest.approx(ball.volume(), abs=1e-12)


def test_body_json_roundtrip():
    for data, cls, volume in [
        ({"variant": "ball", "center": [0.5, 0.5], "radius": 0.2}, Ball, math.pi * 0.04),
        ({"variant": "axis_box", "lower": [0.1, 0.2], "upper": [0.8, 0.9]}, AxisBox, 0.49),
        (
            {"variant": "h_polytope", "normals": [[1.0, 2.0], [-1.0, 0.0], [0.0, -1.0]],
             "offsets": [1.0, 0.0, 0.0]},
            HPolytope,
            0.25,
        ),
        ({"variant": "v_polytope", "vertices": [[0.1, 0.1], [0.9, 0.1], [0.1, 0.5]]}, VPolytope, 0.16),
    ]:
        body = body_from_json_dict(data)
        assert type(body) is cls
        for name, value in data.items():
            if name != "variant":
                assert np.asarray(getattr(body, name)).tolist() == value
        assert body.volume() == pytest.approx(volume, abs=1e-15)


# ---------------------------------------------------------------------------
# The test-only polytope distance oracle against brute-force KKT enumeration
# ---------------------------------------------------------------------------

def _kkt_distance(normals, offsets, x):
    """Reference distance: project x onto every set of <= d facet planes with
    linearly independent normals, keep the projections whose multipliers are
    nonnegative and that are feasible, and take the nearest (0 inside)."""
    a = np.asarray(normals, dtype=float)
    norms = np.linalg.norm(a, axis=1)
    a, b = a / norms[:, None], np.asarray(offsets, dtype=float) / norms
    m, d = a.shape
    best = np.where((x @ a.T - b).max(axis=1) <= 0, 0.0, np.inf)
    for k in range(1, d + 1):
        for s in itertools.combinations(range(m), k):
            a_s = a[list(s)]
            gram = a_s @ a_s.T
            if np.linalg.matrix_rank(gram, tol=1e-10) < k:
                continue
            lam = np.linalg.solve(gram, (x @ a_s.T - b[list(s)]).T).T
            p = x - lam @ a_s
            ok = np.all(lam >= -1e-12, axis=1) & ((p @ a.T - b).max(axis=1) <= 1e-9)
            best = np.where(ok, np.minimum(best, np.linalg.norm(x - p, axis=1)), best)
    return best


def _acceptance_body(d, index):
    # the body of the acceptance campaign (seed 20200817) at (d, index)
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    rng = chunk_rng(20200817 ^ 0xB0D1E5, d * 10_000 + index)
    return random_body(d, rng, kinds[index % len(kinds)])


def test_random_body_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown body kind 'cone'$"):
        random_body(2, chunk_rng(0, 0), "cone")


def _points_around(body, n, seed):
    lo, hi = body.bounding_box()
    return np.random.default_rng(seed).uniform(lo - 0.15, hi + 0.15, size=(n, body.dim))


@pytest.mark.parametrize(
    "d, index",
    [(2, 2), (2, 3), (2, 6), (2, 7), (3, 2), (3, 3), (3, 6), (3, 7), (4, 2), (4, 5)],
)
def test_polytope_distance_matches_kkt_reference(d, index):
    body = _acceptance_body(d, index)
    assert isinstance(body, (HPolytope, VPolytope))
    x = _points_around(body, 400 if d == 4 else 1000, index)
    ref = _kkt_distance(body.normals, body.offsets, x)
    assert np.max(np.abs(polytope_distance(body, x)[0] - ref)) <= 1e-9


def _cut_cube_4d():
    # unit 4-cube cut by x1+x2+x3+x4 <= 2: every vertex on the cut has 5 facets
    d = 4
    normals = np.vstack([np.eye(d), -np.eye(d), np.ones((1, d))])
    return HPolytope(normals, np.r_[np.ones(d), np.zeros(d), 2.0])


def _linprog_chebyshev(normals, offsets):
    """Test-side oracle: the Chebyshev LP through `linprog`'s HiGHS front end."""
    from scipy.optimize import linprog

    d = normals.shape[1]
    res = linprog(
        c=np.r_[np.zeros(d), -1.0],
        A_ub=np.c_[normals, np.linalg.norm(normals, axis=1)],
        b_ub=offsets,
        bounds=[(None, None)] * d + [(0, None)],
        method="highs",
    )
    assert res.status == 0
    return res.x[:d], float(-res.fun)


@pytest.mark.parametrize(
    "kind, d", [("hpoly", 2), ("hpoly", 3), ("hpoly", 4), ("hull", 2), ("hull", 3), ("cut", 4)]
)
def test_chebyshev_ball_equals_linprog_bit_for_bit(kind, d):
    if kind == "cut":
        bodies = [_cut_cube_4d()]
    else:
        bodies = [random_body(d, np.random.default_rng(seed), kind) for seed in range(25)]
    for i, body in enumerate(bodies):
        centre, radius = body._chebyshev()
        ref_centre, ref_radius = _linprog_chebyshev(body.normals, body.offsets)
        assert np.array_equal(centre, ref_centre) and radius == ref_radius, i


def _assert_first_rows_match_unique(m):
    m = np.asarray(m, dtype=bool)
    assert _first_rows(m) == np.sort(np.unique(m, axis=0, return_index=True)[1]).tolist()


@settings(max_examples=200, deadline=None)
@given(arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=40)))
def test_first_rows_match_numpys_unique_on_random_incidences(m):
    _assert_first_rows_match_unique(m)


def test_first_rows_on_equal_rows_one_row_and_far_duplicates():
    _assert_first_rows_match_unique(np.ones((7, 13)))  # all rows equal
    _assert_first_rows_match_unique(np.zeros((7, 13)))
    _assert_first_rows_match_unique([[True, False, True]])  # one row
    # exact duplicates far apart: rows 0 and 199, and 3 and 150, of 200
    # otherwise distinct rows 17 bits wide (three packed bytes)
    m = (np.arange(200)[:, None] >> np.arange(17)) & 1
    m[199], m[150] = m[0], m[3]
    assert _first_rows(m.astype(bool)) == [i for i in range(200) if i not in (150, 199)]
    _assert_first_rows_match_unique(m)


def test_polytope_distance_with_non_simple_vertices():
    body = _cut_cube_4d()
    x = np.random.default_rng(0).uniform(-0.4, 1.4, size=(1500, 4))
    ref = _kkt_distance(body.normals, body.offsets, x)
    assert np.max(np.abs(polytope_distance(body, x)[0] - ref)) <= 1e-9


@pytest.mark.parametrize("body", [_cut_cube_4d(), _acceptance_body(4, 2)], ids=["cut-cube", "hpoly"])
def test_projection_4d_is_feasible_and_at_the_distance(body):
    x = _points_around(body, 60, 4)
    dist, nearest = polytope_distance(body, x)
    outside = dist > 0
    assert np.any(outside)
    margins = nearest[outside] @ body._unit_normals.T - body._unit_offsets
    assert margins.max() <= 1e-10
    np.testing.assert_allclose(
        np.linalg.norm(x[outside] - nearest[outside], axis=1), dist[outside], rtol=0, atol=1e-12
    )


def test_distance_cap_reports_inf_above_it():
    body = _acceptance_body(4, 2)
    x = _points_around(body, 2000, 5)
    exact = polytope_distance(body, x)[0]
    capped = polytope_distance(body, x, cap=0.05)[0]
    assert np.all(capped[exact <= 0.05] == exact[exact <= 0.05])
    assert np.all((capped == exact) | (np.isinf(capped) & (exact > 0.05)))
    assert np.any(np.isinf(capped))


def test_face_structure_is_built_only_for_intrinsic_volumes():
    hull = VPolytope([[0.1, 0.1], [0.9, 0.2], [0.3, 0.8]])
    body = _cut_cube_4d()
    for b in (hull, body):
        b.volume()
        offset_volumes(b, [0.05], "inner")
        assert b._face_set is None
        offset_volumes(b, [0.05], "outer")
        assert b._face_set is not None


# ---------------------------------------------------------------------------
# Exact parallel volumes of polytopes against independent references
# ---------------------------------------------------------------------------

RHOS = (0.01, 0.05, 0.1)


def _h_box(lower, upper, rotation=None):
    """The box lower <= R^T (x - c) + c <= upper about its centre c, as an
    H-polytope (R = identity: the axis box itself)."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    d = lower.shape[0]
    rot = np.eye(d) if rotation is None else rotation
    centre = (lower + upper) / 2
    half = (upper - lower) / 2
    normals = np.vstack([rot.T, -rot.T])
    return HPolytope(normals, np.r_[rot.T @ centre + half, -(rot.T @ centre) + half])


def _rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _corner_simplex(d):
    # {x >= 0, x_1 + ... + x_d <= 1}: inradius 1 / (d + sqrt(d)), and every
    # inner parallel body is the simplex shrunk about the incentre
    return HPolytope(np.vstack([-np.eye(d), np.ones((1, d))]), np.r_[np.zeros(d), 1.0])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_axis_box_as_hpolytope_matches_box_closed_forms(d):
    lower, upper = np.linspace(0.1, 0.3, d), np.linspace(0.5, 0.9, d)
    box, h = AxisBox(lower, upper), _h_box(lower, upper)
    for rho in RHOS:
        assert abs(steiner_volume(h, rho) - box_steiner_volume(box.sides, rho)) <= 1e-12
        for side in ("outer", "inner"):
            exact = box.offset_volume(rho, side)
            assert abs(offset_volumes(h, [rho], side)[0] - exact) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unit_cube_intrinsic_volumes_are_binomials(d):
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    for body in (_h_box(np.zeros(d), np.ones(d)), VPolytope(corners)):
        want = [math.comb(d, j) for j in range(d + 1)]
        assert np.max(np.abs(body.intrinsic_volumes() - want)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotated_box_intrinsic_volumes_are_elementary_symmetric(d):
    # non-axis normals exercise the codimension-2 and -3 external angles; the
    # hull of the corners exercises the merging of coplanar qhull facets
    sides = np.array([0.2, 0.3, 0.25, 0.15][:d])
    centre = np.full(d, 0.5)
    want = [1.0]
    for s in sides:
        want = [a + s * b for a, b in zip(want + [0.0], [0.0] + want)]
    for seed in range(3):
        rot = _rotation(d, seed)
        h = _h_box(centre - sides / 2, centre + sides / 2, rot)
        corners = centre + (np.array(list(itertools.product((-0.5, 0.5), repeat=d))) * sides) @ rot.T
        for body in (h, VPolytope(corners)):
            assert np.max(np.abs(body.intrinsic_volumes() - want)) <= 1e-12


def _external_angle(normals, codim):
    """Test-only oracle, one face at a time: the external angle of a face of
    codimension `codim` <= 3 from the unit normals of the facets that contain
    it, as a fraction of the full sphere of dimension codim - 1. For codim 3
    the normals are taken to coordinates of their 3-d span, sorted
    cyclically about their mean m, and the cone is the fan of triangles
    (m, n_i, n_i+1), each measured by the Van Oosterom-Strackee formula."""
    if codim == 1:
        return 0.5
    if codim == 2:
        return math.acos(float(np.clip(normals[0] @ normals[1], -1.0, 1.0))) / (2 * math.pi)
    u = normals @ np.linalg.svd(normals)[2][:3].T
    m = u.sum(axis=0)
    m /= np.linalg.norm(m)
    e1 = u[0] - (u[0] @ m) * m
    e1 /= np.linalg.norm(e1)
    a = u[np.argsort(np.arctan2(u @ np.cross(m, e1), u @ e1))]
    b = np.roll(a, -1, axis=0)
    num = np.abs(np.cross(a, b) @ m)
    den = 1.0 + a @ m + b @ m + np.einsum("ij,ij->i", a, b)
    return float(2 * np.arctan2(num, den).sum()) / (4 * math.pi)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_external_angles_match_the_per_face_oracle(d):
    # every face of dimension >= 1 of every polytope in the acceptance corpus
    compared = 0
    for index in range(Budgets().body_count):
        body = _acceptance_body(d, index)
        if not isinstance(body, (HPolytope, VPolytope)):
            continue
        faces = body._faces()
        angles = faces.external_angles()
        for f in np.flatnonzero(faces.dims > 0):
            want = _external_angle(faces.facet_normals[faces.in_facet[f]], d - faces.dims[f])
            assert abs(angles[f] - want) <= 1e-15
            compared += 1
    assert compared > 100


def _face_content_error(body):
    """The largest relative difference between a polytope's face contents
    and the per-face qhull oracle's, over its faces of dimension >= 1."""
    faces = body._faces()
    got, want = faces.contents(), face_contents(faces)
    edges_and_up = faces.dims > 0
    return np.max(np.abs(got - want)[edges_and_up] / want[edges_and_up])


def _cross_polytope_4d(r):
    """The 16-cell conv{0.5 +- r e_i} as a V-polytope and as an H-polytope,
    whose facets are s . (x - 0.5) <= r for the 16 sign vectors s."""
    centre = np.full(4, 0.5)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    vertices = np.vstack([centre + r * np.eye(4), centre - r * np.eye(4)])
    return VPolytope(vertices), HPolytope(signs, signs @ centre + r)


def test_non_simple_16_cell_intrinsic_volumes():
    # the 24 edges (length r sqrt 2) each lie in 4 facets, the 32 triangles
    # (area r^2 sqrt 3 / 2) in 2; 16 tetrahedral facets of volume r^3 / 3
    r = 0.4
    edge_normals = np.array([[1.0, 1.0, s, t] for s in (-1, 1) for t in (-1, 1)]) / 2
    triangle_normals = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]]) / 2
    want = [
        1.0,
        24 * math.sqrt(2) * r * _external_angle(edge_normals, 3),
        32 * math.sqrt(3) / 2 * r**2 * _external_angle(triangle_normals, 2),
        8 * r**3 / 3,
        2 * r**4 / 3,
    ]
    for body in _cross_polytope_4d(r):
        faces = body._faces()
        assert np.bincount(faces.dims).tolist() == [8, 24, 32, 16]
        assert np.all(faces.in_facet[faces.dims == 1].sum(axis=1) == 4)
        np.testing.assert_allclose(body.intrinsic_volumes(), want, rtol=1e-14, atol=0)
        assert _face_content_error(body) <= 1e-11


@pytest.mark.parametrize("d, polytopes", [(2, 24), (3, 24), (4, 16)])
def test_face_contents_match_the_qhull_oracle_on_the_acceptance_corpus(d, polytopes):
    bodies = [_acceptance_body(d, index) for index in range(Budgets().body_count)]
    errors = [_face_content_error(b) for b in bodies if isinstance(b, (HPolytope, VPolytope))]
    assert len(errors) == polytopes
    assert max(errors) <= 1e-11


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", ["hpoly", "hull"])
def test_face_contents_match_the_qhull_oracle_on_seeded_polytopes(d, kind):
    for seed in range(8):
        assert _face_content_error(random_body(d, chunk_rng(31, 100 * d + seed), kind)) <= 1e-11


def test_face_contents_run_no_qhull_and_intrinsic_volumes_one(monkeypatch):
    import scipy.spatial

    calls = {}
    _counted(monkeypatch, calls, scipy.spatial, "ConvexHull")
    for body in (_cut_cube_4d(), _acceptance_body(4, 2), _acceptance_body(3, 2)):
        calls["ConvexHull"] = 0
        body._faces().intrinsic_volumes(1.0)
        assert calls == {"ConvexHull": 0}
        body.intrinsic_volumes()
        assert calls == {"ConvexHull": 1}  # the volume, V_d


def _mc_oracle(indicator, lo, hi, seed, n=1 << 17):
    """Monte Carlo volume of {indicator} inside the box [lo, hi] with its
    binomial standard error."""
    hits, n = box_fraction(lo, hi, indicator, n, seed)
    box_vol, p = float(np.prod(hi - lo)), hits / n
    return box_vol * p, box_vol * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize(
    "body",
    [_cut_cube_4d()] + [_acceptance_body(d, i) for d, i in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]],
    ids=["cut-cube", "hpoly-d2", "hull-d2", "hpoly-d3", "hull-d3", "hpoly-d4"],
)
def test_polytope_offsets_match_monte_carlo_oracle(body):
    rho = 0.1
    lo, hi = body.bounding_box()

    def outer(x):
        dist = polytope_distance(body, x, cap=rho)[0]
        return (dist > 0) & (dist <= rho)

    def inner(x):
        depth = -(x @ body._unit_normals.T - body._unit_offsets).max(axis=1)
        return (depth >= 0) & (depth <= rho)

    mc, se = _mc_oracle(outer, lo - rho, hi + rho, seed=31)
    assert abs(offset_volumes(body, [rho], "outer")[0] - mc) <= 4 * se
    mc, se = _mc_oracle(inner, lo, hi, seed=37)
    assert abs(offset_volumes(body, [rho], "inner")[0] - mc) <= 4 * se


@pytest.mark.parametrize("d", [2, 3, 4])
def test_inner_side_below_and_above_the_inradius(d):
    simplex = _corner_simplex(d)
    r = 1 / (d + math.sqrt(d))
    vol = 1 / math.factorial(d)
    assert simplex.inradius() == pytest.approx(r, abs=1e-12)
    assert simplex.volume() == pytest.approx(vol, abs=1e-15)
    for rho in (0.01, 0.05, (1 - 1e-3) * r, (1 + 1e-3) * r):
        inner = offset_volumes(simplex, [rho], "inner")[0]
        # the inner parallel body is the simplex scaled by 1 - rho / r
        assert inner == pytest.approx(vol * (1 - max(1 - rho / r, 0.0) ** d), abs=1e-12)
    assert offset_volumes(simplex, [1.001 * r], "inner")[0] == simplex.volume()


def test_segment_neighbourhood_is_a_capsule():
    a, b = np.array([0.2, 0.3, 0.4]), np.array([0.7, 0.6, 0.5])
    seg, length, rho = VPolytope([a, b]), float(np.linalg.norm(b - a)), 0.1
    est = boundary_neighborhood_volume(seg, rho)
    assert est == pytest.approx(math.pi * rho**2 * length + 4 / 3 * math.pi * rho**3, abs=1e-14)


def test_polytope_beyond_d4_raises_on_the_outer_side():
    cube5 = _h_box(np.zeros(5), np.ones(5))
    with pytest.raises(ValueError, match="d = 5"):
        steiner_volume(cube5, 0.1)
    with pytest.raises(ValueError, match="d = 5"):
        offset_volumes(cube5, [0.1], "outer")[0]
    # the inner side is a halfspace intersection, exact in any d
    inner = offset_volumes(cube5, [0.1], "inner")[0]
    assert inner == pytest.approx(1 - 0.8**5, abs=1e-12)
    assert cube5.parallel_volume(-0.5) == 0.0


# ---------------------------------------------------------------------------
# V-polytope kinds, decided when the body is built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "vertices, message",
    [
        ([], "vertex list is empty"),
        (np.zeros((0, 2)), "vertex list is empty"),
        ([[0.2, 0.3], [0.5, 1.2]], "vertices are not contained in the unit cube"),
        ([[-0.1, 0.3, 0.4]], "vertices are not contained in the unit cube"),
        (
            [[0.1, 0.1, 0.5], [0.9, 0.1, 0.5], [0.1, 0.9, 0.5], [0.9, 0.9, 0.5]],
            "degenerate V-polytope beyond point/segment is not supported",
        ),
    ],
)
def test_vpolytope_rejects_bad_vertex_sets_when_built(vertices, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        VPolytope(vertices)


def test_vpolytope_point_segment_and_full_kinds(monkeypatch):
    import scipy.spatial

    calls = {}
    _counted(monkeypatch, calls, scipy.spatial, "ConvexHull")
    point = VPolytope([[0.4, 0.4, 0.4], [0.4, 0.4, 0.4]])
    assert point.volume() == 0.0 and point.inradius() == 0.0
    np.testing.assert_array_equal(point.intrinsic_volumes(), [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(point.bounding_box(), [[0.4] * 3, [0.4] * 3])

    a, b = [0.1, 0.2, 0.3], [0.5, 0.2, 0.3]
    segment = VPolytope([b, [0.3, 0.2, 0.3], a])
    assert segment.volume() == 0.0 and segment.inradius() == 0.0
    np.testing.assert_allclose(segment.intrinsic_volumes(), [1.0, 0.4, 0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(segment.bounding_box(), [a, b])
    assert segment.parallel_volume(-0.05) == 0.0
    assert calls == {"ConvexHull": 0}  # the closed forms need no qhull

    # a full hull runs qhull once, when it is built
    tri = VPolytope([[0.1, 0.1], [0.9, 0.1], [0.1, 0.5], [0.3, 0.2]])
    assert calls == {"ConvexHull": 1}
    assert tri.volume() == pytest.approx(0.16, abs=1e-15)
    assert len(tri.normals) == 3 and len(tri.intrinsic_volumes()) == 3
    np.testing.assert_array_equal(tri.bounding_box(), [[0.1, 0.1], [0.9, 0.5]])
    assert calls == {"ConvexHull": 1}


def test_vpolytope_that_qhull_finds_flat_raises_when_built(monkeypatch):
    import scipy.spatial

    def flat(points):
        raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", flat)
    with pytest.raises(ValueError, match="degenerate V-polytope beyond point/segment"):
        VPolytope([[0.1, 0.1], [0.9, 0.1], [0.1, 0.5]])


def test_polytopes_in_d1_name_d1_and_point_to_axis_box():
    # qhull needs d >= 2, so the interval [0.2, 0.7] is an AxisBox, not a polytope
    with pytest.raises(ValueError, match=r"got d = 1; an interval is an AxisBox"):
        HPolytope([[1.0], [-1.0]], [0.7, -0.2])
    with pytest.raises(ValueError, match=r"got d = 1; an interval is an AxisBox"):
        VPolytope([[0.2], [0.7], [0.2]])
    point = VPolytope([[0.3], [0.3]])
    assert point.volume() == 0.0
    np.testing.assert_array_equal(point.intrinsic_volumes(), [1.0, 0.0])
    assert offset_volumes(point, [0.1], "outer")[0] == pytest.approx(0.2, abs=1e-15)


def test_inner_offset_of_a_zero_volume_body_is_positive_zero():
    for body in (VPolytope([[0.2, 0.3], [0.7, 0.3]]), VPolytope([[0.4, 0.4, 0.4]])):
        inner = offset_volumes(body, [0.0, 0.1], "inner")
        assert inner == [0.0, 0.0]
        assert [math.copysign(1.0, v) for v in inner] == [1.0, 1.0]
