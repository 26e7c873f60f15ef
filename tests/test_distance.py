import dataclasses
import decimal
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from halfspace_oracle import halfspace_cube_volume
from latdisc import distance
from latdisc.distance import (
    _balanced_boxes,
    _default_resolution,
    _grid_axis,
    _grid_distance_chunks,
    _grid_moments_multi,
    _grid_row_chunks,
    covering_radius,
    distance_norms,
    hyperplane_section_constant,
    proxy_spec,
    verify_prop1,
)
from latdisc.harness import CorpusSpec, builtin_corpus, chunk_rng
from latdisc.lattice import enumerate_points, fibonacci_lattice, rank1_lattice
from latdisc.reduction import spectral_test


EQUI4 = enumerate_points(rank1_lattice(4, (1,)))
R5 = rank1_lattice(5, (1, 2))
P5 = enumerate_points(R5)

# the prop1 workload's d = 4, N = 1024 lattice: the most raw grid-search
# candidates per cell of its rank-1 members
R1024_D4 = rank1_lattice(1024, (312, 557, 248, 104))


def dense_grid_covering_oracle(ps, m=2001):
    pts = ps.as_array()
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    g = np.linspace(0.0, 1.0, m)
    xx, yy = np.meshgrid(g, g)
    dist = tree.query(np.c_[xx.ravel(), yy.ravel()])[0]
    return float(dist.max()), math.sqrt(2) / (2 * (m - 1))


def test_covering_radius_single_point_d2():
    ps = enumerate_points(rank1_lattice(1, (0, 0)))
    cr = covering_radius(ps, tol=1e-6)
    assert cr.converged
    assert cr.lower <= math.sqrt(2) <= cr.upper + 1e-12
    assert cr.upper - cr.lower <= 1e-6
    assert cr.upper == pytest.approx(math.sqrt(2), abs=1e-5)


def test_covering_radius_stops_unconverged_at_the_evaluation_cap(monkeypatch):
    from latdisc import distance

    full = covering_radius(P5, tol=1e-6)
    monkeypatch.setattr(distance, "COVERING_MAX_EVALS", 50)
    cr = covering_radius(P5, tol=1e-6)
    assert full.converged and not cr.converged and cr.upper - cr.lower > 1e-6
    assert 50 <= cr.n_evals < 50 + 1024  # the cap is checked once per batch
    assert cr.lower <= full.lower and full.upper <= cr.upper


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_covering_radius_rejects_a_tolerance_that_is_not_finite_positive(tol):
    with pytest.raises(ValueError, match=r"^tol must be a finite positive number"):
        covering_radius(P5, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf, "1e-4", None])
def test_config_rejects_a_bad_covering_tol(tol):
    # whatever the gammas, though only gamma = inf reads the tolerance
    for gammas in ([1.0], [math.inf]):
        with pytest.raises(ValueError, match=r"^covering_tol must be a finite positive number"):
            distance_norms(P5, gammas, covering_tol=tol)


def test_covering_radius_equispaced_d1():
    cr = covering_radius(EQUI4, tol=1e-7)
    # sup of dist is 1/4, attained at the right edge of the closed cube
    assert cr.lower <= 0.25 <= cr.upper
    assert cr.upper - cr.lower <= 1e-7


def test_covering_radius_rank1_matches_dense_grid_oracle():
    cr = covering_radius(P5, tol=1e-4)
    assert cr.converged and cr.upper - cr.lower <= 1e-4
    oracle, slack = dense_grid_covering_oracle(P5)
    # certified interval and oracle interval must overlap
    assert cr.lower <= oracle + slack
    assert oracle <= cr.upper + 1e-12


def test_distance_norm_equispaced_closed_form():
    # independent oracle: (N+1)/(4 N^2) for N equispaced points
    for n in (4, 16, 64):
        ps = enumerate_points(rank1_lattice(n, (1,)))
        rep = distance_norms(ps, [1.0])[1.0]
        assert rep.method == "closed-form-1d"
        assert rep.value == pytest.approx((n + 1) / (4 * n * n), abs=1e-10)
    rep4 = distance_norms(EQUI4, [1.0])[1.0]
    assert rep4.value == pytest.approx(5 / 64, abs=1e-12)


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_d1_bracket_contains_the_exact_moment(gamma):
    # the moment of dist(., {k/N})^gamma, in Fractions: N - 1 gaps of 1/N,
    # each contributing 2 (1/(2N))^(gamma+1) / (gamma+1), and the right edge
    # (1/N)^(gamma+1) / (gamma+1)
    n = 300_000
    g1 = gamma + 1
    exact = ((n - 1) * 2 * Fraction(1, 2 * n) ** g1 + Fraction(1, n) ** g1) / g1
    rep = distance_norms(enumerate_points(rank1_lattice(n, (1,))), [gamma])[gamma]
    assert rep.method == "closed-form-1d"
    assert Fraction(rep.lower_certified) ** gamma <= exact <= Fraction(rep.upper_certified) ** gamma
    assert rep.upper_certified - rep.lower_certified <= 1e-9 * rep.value


@pytest.mark.parametrize("gamma", [1e-5, 0.0005, 1e-200])
def test_d1_ends_hold_at_a_tiny_gamma(gamma):
    # the norm of dist(., {k/N}) in 400-digit decimals, from the moment
    # ((N - 1) 2 (1/(2N))^g1 + (1/N)^g1) / g1, g1 = gamma + 1; at 1e-200 the
    # upper end's root overflows and the lower end's underflows
    n = 7
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        g, g1 = Decimal(gamma), Decimal(gamma) + 1
        moment = ((n - 1) * 2 * (1 / Decimal(2 * n)) ** g1 + (1 / Decimal(n)) ** g1) / g1
        exact = (moment.ln() / g).exp()
    rep = distance_norms(enumerate_points(rank1_lattice(n, (1,))), [gamma])[gamma]
    assert 0 <= Decimal(rep.lower_certified) <= exact <= Decimal(rep.upper_certified)
    assert math.copysign(1, rep.lower_certified) == 1  # not -0.0


def test_verify_prop1_at_a_gamma_whose_bound_underflows():
    # 2^(1/0.0005) overflows, so the bound t_d sigma / 2^2000 reads 0, and a
    # row passes only on a positive certified end
    rep = verify_prop1(R5, gammas=(0.0005,))
    assert rep.lower_bounds == (0.0,)
    assert rep.norms[0].lower_certified > 0 and rep.lower_ok == (True,)
    zero = dataclasses.replace(rep.norms[0], lower_certified=0.0)
    assert verify_prop1(R5, gammas=(0.0005,), norm_reports={0.0005: zero}).lower_ok == (False,)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, -math.inf])
def test_distance_norms_reject_a_gamma_that_is_not_positive(gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        distance_norms(P5, [1.0, gamma])


def test_distance_norms_count_a_repeated_gamma_once():
    once = distance_norms(P5, [1.0, 2.0])
    assert distance_norms(P5, [1.0, 2.0, 1, 1.0]) == once


def test_distance_norm_single_point_d1():
    ps = enumerate_points(rank1_lattice(1, (0,)))
    rep = distance_norms(ps, [1.0])[1.0]
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_norm_monotone_in_gamma():
    reports = distance_norms(P5, [0.5, 1.0, 2.0, math.inf])
    vals = [reports[0.5].value, reports[1.0].value, reports[2.0].value]
    assert vals[0] <= vals[1] + 1e-9
    assert vals[1] <= vals[2] + 1e-9
    assert vals[2] <= reports[math.inf].upper_certified + 1e-9
    for g in (0.5, 1.0, 2.0):
        r = reports[g]
        assert r.lower_certified <= r.value <= r.upper_certified


def mc_moment_oracle(ps, gammas, n=1 << 20, seed=5, chunk=1 << 16):
    """Test-only Monte Carlo oracle: (mean, standard error) of dist^gamma
    over n uniform points of the cube, per gamma; chunk i of `chunk` points
    draws from chunk_rng(seed, i)."""
    tree = cKDTree(ps.as_array())
    sums = {g: [0.0, 0.0] for g in gammas}
    for i in range(n // chunk):
        dist = tree.query(chunk_rng(seed, i).random((chunk, ps.dim)))[0]
        for g in gammas:
            v = dist**g
            sums[g][0] += float(v.sum())
            sums[g][1] += float((v * v).sum())
    out = {}
    for g, (s1, s2) in sums.items():
        mean = s1 / n
        out[g] = (mean, math.sqrt(max(s2 / n - mean * mean, 0.0) / n))
    return out


def old_derivative_bounds(tree, d, m, g):
    """The per-cell derivative/Hoelder moment bounds that the direct bracket
    replaced: (midpoint moment - E, midpoint moment + E)."""
    r = math.sqrt(d) / (2 * m)
    total = err = 0.0
    for dist in _grid_distance_chunks(tree, d, m):
        total += float(np.sum(dist**g))
        if g >= 1:
            dev = g * (dist + r) ** (g - 1) * r
        else:
            dev = np.full_like(dist, r**g)
            far = dist > r
            dev[far] = np.minimum(dev[far], g * (dist[far] - r) ** (g - 1) * r)
        err += float(np.sum(dev))
    moment, bound = total / m**d, err / m**d
    return max(moment - bound, 0.0), moment + bound


def test_grid_norm_matches_mc_cross_check():
    ps = enumerate_points(fibonacci_lattice(9))
    rep = distance_norms(ps, [2.0])[2.0]
    assert rep.method == "grid"
    mean, se = mc_moment_oracle(ps, [2.0])[2.0]
    assert rep.lower_certified**2 <= mean + 4 * se
    assert mean - 4 * se <= rep.upper_certified**2


D4 = rank1_lattice(256, (1, 21, 59, 101))


@pytest.mark.parametrize(
    "lat",
    [fibonacci_lattice(10), rank1_lattice(256, (1, 103, 211)), D4, rank1_lattice(1, (0, 0, 0, 0))],
    ids=["fib-k10", "rank1-d3-n256", "rank1-d4-n256", "Z4"],
)
def test_enclosure_contains_monte_carlo_oracle(lat):
    gammas = [0.5, 1.0, 2.0, 3.0]
    ps = enumerate_points(lat)
    reports = distance_norms(ps, gammas)
    oracle = mc_moment_oracle(ps, gammas)
    for g in gammas:
        rep, (mean, se) = reports[g], oracle[g]
        assert rep.method == "grid" and rep.resolution == {2: 401, 3: 101, 4: 21}[lat.dim]
        assert rep.lower_certified <= rep.value <= rep.upper_certified
        assert rep.lower_certified**g <= mean + 4 * se, g
        assert mean - 4 * se <= rep.upper_certified**g, g


def test_enclosure_contains_dense_grid_oracle_d2():
    ps = enumerate_points(fibonacci_lattice(8))
    gammas = [0.5, 1.0, 2.0, 4.0]
    reports = distance_norms(ps, gammas)
    m = 1600
    axis = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(axis, axis)
    dist = cKDTree(ps.as_array()).query(np.c_[xx.ravel(), yy.ravel()])[0]
    for g in gammas:
        dense = float(np.mean(dist**g)) ** (1 / g)
        assert reports[g].lower_certified <= dense <= reports[g].upper_certified, g


@pytest.mark.parametrize(
    "lat",
    [
        pytest.param(fibonacci_lattice(10), id="fib-k10"),
        pytest.param(rank1_lattice(256, (1, 0)), id="bad-axis-d2"),
        pytest.param(rank1_lattice(256, (1, 103, 211)), id="rank1-d3-n256"),
        pytest.param(D4, id="rank1-d4-n256"),
        pytest.param(rank1_lattice(1024, (1, 149, 469, 743)), id="rank1-d4-n1024"),
    ],
)
def test_direct_bracket_at_least_as_tight_as_derivative_bound(lat):
    gammas = [0.5, 1.0, 2.0]
    ps = enumerate_points(lat)
    tree = cKDTree(ps.as_array())
    reports = distance_norms(ps, gammas)
    for g in gammas:
        old_lo, old_hi = old_derivative_bounds(tree, lat.dim, reports[g].resolution, g)
        # equal per cell where every cell lies at least r from P and gamma = 1;
        # there the new bounds differ only by their outward rounding margin
        slack = 1e-9
        assert reports[g].lower_certified**g >= old_lo * (1 - slack), g
        assert reports[g].upper_certified**g <= old_hi * (1 + slack), g


def test_d4_rank1_norms_use_the_grid():
    reports = distance_norms(enumerate_points(D4), [0.5, 1.0, 2.0, math.inf])
    for g in (0.5, 1.0, 2.0):
        assert reports[g].method == "grid" and reports[g].resolution == 21
    assert reports[math.inf].method == "covering"


def test_default_resolution_by_dimension():
    assert [_default_resolution(d) for d in (2, 3, 4, 5, 6)] == [401, 101, 21, 11, 7]
    for d in (4, 5, 6, 8):
        m = _default_resolution(d)
        assert m**d <= 21**4 < (m + 1) ** d


def test_enclosures_hold_in_exact_arithmetic():
    # the sup of dist to the origin is sqrt(2), at the corner (1, 1); the
    # float sqrt(2) lies above it, so a bound without a rounding margin fails
    cr = covering_radius(enumerate_points(rank1_lattice(1, (0, 0))), tol=1e-6)
    assert Fraction(cr.lower) ** 2 < 2 < Fraction(cr.upper) ** 2
    assert cr.converged and cr.upper - cr.lower <= 1e-6
    # the integral of |x|^2 over the square is 2/3
    rep = distance_norms(enumerate_points(rank1_lattice(1, (0, 0))), [2.0])[2.0]
    assert Fraction(rep.lower_certified) ** 2 < Fraction(2, 3) < Fraction(rep.upper_certified) ** 2


def test_grid_certificate_brackets_closed_form_2d():
    # single point at the origin in d=2: integral of ||x||^1 over the square
    # is (sqrt(2) + asinh(1)) / 3
    ps = enumerate_points(rank1_lattice(1, (0, 0)))
    rep = distance_norms(ps, [1.0])[1.0]
    assert rep.method == "grid" and rep.resolution == 401
    exact = (math.sqrt(2) + math.asinh(1.0)) / 3
    assert rep.lower_certified <= exact <= rep.upper_certified


@pytest.mark.parametrize(("gamma", "moment"), [(2.0, 1.0), (4.0, 19 / 15)])
def test_grid_certificate_brackets_closed_form_3d(gamma, moment):
    # single point at the origin in d=3: integral of ||x||^2 over the cube is
    # 1 and of ||x||^4 is 3/5 + 6/9 = 19/15
    ps = enumerate_points(rank1_lattice(1, (0, 0, 0)))
    rep = distance_norms(ps, [gamma])[gamma]
    assert rep.method == "grid" and rep.resolution == 101
    assert rep.lower_certified <= moment ** (1 / gamma) <= rep.upper_certified


@pytest.mark.parametrize(
    ("lat", "m"),
    [
        pytest.param(fibonacci_lattice(5), 401, id="fib-k05"),
        pytest.param(fibonacci_lattice(5), 101, id="fib-k05-m101"),
        pytest.param(rank1_lattice(1, (0, 0)), 401, id="Z2"),
        pytest.param(rank1_lattice(1, (0, 0, 0)), 101, id="Z3"),
        pytest.param(rank1_lattice(256, (1, 0)), 401, id="bad-axis-d2"),
        pytest.param(rank1_lattice(64, (1, 11, 35)), 101, id="rank1-d3-n64"),
        pytest.param(rank1_lattice(1024, (1, 229, 597)), 101, id="rank1-d3-n1024"),
        pytest.param(rank1_lattice(4096, (1, 1487)), 401, id="rank1-d2-n4096"),
        pytest.param(rank1_lattice(7, (1,)), 101, id="d1"),
        pytest.param(rank1_lattice(256, (1, 21, 59, 101)), 17, id="rank1-d4-n256"),
        pytest.param(R1024_D4, 21, id="rank1-d4-n1024"),
        pytest.param(rank1_lattice(8, (1, 3)), 16, id="ties-n8"),
    ],
)
def test_grid_distances_equal_kdtree_queries(lat, m):
    _assert_grid_distances_equal_kdtree_queries(enumerate_points(lat).as_array(), m)


def _grid_centers_chunks(d: int, m: int):
    """Yield cell-center chunks of the m^d midpoint grid, in lexicographic
    order, with the chunk boundaries of `_grid_row_chunks`."""
    axis = _grid_axis(m)
    tail = (
        np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
        if d > 1
        else np.empty((1, 0))
    )
    for start, stop in _grid_row_chunks(d, m):
        block = axis[start:stop]
        head = np.repeat(block, tail.shape[0])[:, None]
        body = np.tile(tail, (block.shape[0], 1))
        yield np.hstack([head, body])


def _assert_grid_distances_equal_kdtree_queries(pts, m):
    tree = cKDTree(pts)
    d = pts.shape[1]
    expected = [tree.query(c)[0] for c in _grid_centers_chunks(d, m)]
    got = list(_grid_distance_chunks(tree, d, m))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_ties_case_has_cells_equidistant_from_two_points():
    # the ties-n8 case above measures exact ties, where the bisector filter
    # relies on its rounding slack to keep both points
    tree = cKDTree(enumerate_points(rank1_lattice(8, (1, 3))).as_array())
    two = tree.query(np.concatenate(list(_grid_centers_chunks(2, 16))), k=2)[0]
    assert int(np.sum(two[:, 0] == two[:, 1])) == 22


_GRID_SIZES = {1: (1, 600), 2: (1, 60), 3: (1, 20), 4: (1, 9)}  # several boxes per axis at the top
_COORD = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),  # faces, and exact ties
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=40),
            st.lists(st.integers(min_value=0, max_value=39), max_size=5),
            st.integers(*_GRID_SIZES[d]),
        )
    )
)
def test_grid_distances_equal_kdtree_queries_on_random_point_sets(case):
    rows, dups, m = case
    rows = rows + [rows[i % len(rows)] for i in dups]  # duplicate points
    _assert_grid_distances_equal_kdtree_queries(np.array(rows, dtype=float), m)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=40),
            st.integers(*_GRID_SIZES[d]),
            st.integers(min_value=1, max_value=3),
        )
    )
)
def test_grid_distances_equal_kdtree_queries_across_slabs(case):
    # chunks of 1-3 rows, so the search cuts several slabs of two chunks,
    # and a final single-chunk slab whenever the chunk count is odd
    rows, m, chunk_rows = case
    d = len(rows[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "GRID_CHUNK_CELLS", chunk_rows * m ** (d - 1))
        pts = np.array(rows, dtype=float)
        got = list(_grid_distance_chunks(cKDTree(pts), d, m))
        assert [c.shape for c in got] == [
            ((b - a) * m ** (d - 1),) for a, b in _grid_row_chunks(d, m)
        ]
        _assert_grid_distances_equal_kdtree_queries(pts, m)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=40),
            st.integers(*_GRID_SIZES[d]),
            st.integers(min_value=64, max_value=512),
        )
    )
)
def test_grid_distances_equal_kdtree_queries_under_candidate_chunking(case):
    # a cap of 64-512 entries makes boxes of a few cells, of several shapes,
    # and batches of few boxes whose candidates are measured a slice at a time
    rows, m, entries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "GRID_BOX_ENTRIES", entries)
        _assert_grid_distances_equal_kdtree_queries(np.array(rows, dtype=float), m)


@pytest.mark.parametrize(
    "lat, m, chunk_rows, n_chunks",
    [
        pytest.param(rank1_lattice(64, (1, 11, 35)), 101, 2, 51, id="rank1-d3-n64"),
        pytest.param(fibonacci_lattice(15), 401, 50, 9, id="fib-k15"),
        pytest.param(R1024_D4, 21, 5, 5, id="rank1-d4-n1024"),
        pytest.param(R1024_D4, 21, 3, 7, id="rank1-d4-n1024-3rows"),
    ],
)
def test_grid_distances_equal_kdtree_queries_with_a_final_single_chunk_slab(
    lat, m, chunk_rows, n_chunks, monkeypatch
):
    monkeypatch.setattr(distance, "GRID_CHUNK_CELLS", chunk_rows * m ** (lat.dim - 1))
    assert len(_grid_row_chunks(lat.dim, m)) == n_chunks  # odd: the last slab is one chunk
    _assert_grid_distances_equal_kdtree_queries(enumerate_points(lat).as_array(), m)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40))
def test_balanced_boxes_tile_the_axis_with_sizes_one_apart(n, side):
    runs = _balanced_boxes(n, side)
    sizes = [size for _, size, _ in runs]
    assert len(runs) == -(-n // side) and max(sizes) <= side
    assert sizes == sorted(sizes, reverse=True) and max(sizes) - min(sizes) <= 1
    assert [first for first, _, _ in runs] == [sum(sizes[:i]) for i in range(len(runs))]
    for first, size, corner in runs:  # the runs of one size tile from their corner
        assert corner == next(f for f, s, _ in runs if s == size)
        assert (first - corner) % size == 0


def test_grid_pass_peak_memory_is_bounded():
    # the grid search holds its large temporaries to GRID_BOX_ENTRIES entries;
    # building the bisector filter's (pair x axis) arrays for a whole chunk
    # at once peaks above 4 MiB. The walk holds a slab of two chunks, and
    # the moments hold one bracket array besides it.
    cases = [
        (R1024_D4, 21),
        (rank1_lattice(1, (0, 0, 0)), 101),
        (rank1_lattice(64, (1, 11, 35)), 101),
        (rank1_lattice(4096, (1, 1487)), 401),
    ]
    gammas = [0.5, 1.0, 2.0, 3.0, 4.0]
    passes = {
        "walk": lambda tree, d, m: [None for _ in _grid_distance_chunks(tree, d, m)],
        "moments": lambda tree, d, m: _grid_moments_multi(tree, d, m, gammas, set(gammas)),
    }
    for lat, m in cases:
        tree = cKDTree(enumerate_points(lat).as_array())
        for name, run in passes.items():
            tracemalloc.start()
            try:
                run(tree, lat.dim, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            where = f"{name} pass, N = {lat.n_points}, m = {m}"
            assert peak < 4 * 2**20, f"{where}: {peak / 2**20:.2f} MiB"


def test_unbracketed_gammas_skip_only_their_brackets():
    # a prop1 + thm2 lattice task: thm2 reads only the values of 3 and 4
    ps = enumerate_points(fibonacci_lattice(7))
    prop1, thm2 = [0.5, 1.0, 2.0, math.inf], [3.0, 4.0]
    partial = distance_norms(ps, prop1 + thm2, bracketed=prop1)
    full = distance_norms(ps, prop1 + thm2)
    alone = distance_norms(ps, prop1)
    assert all(partial[g] == alone[g] == full[g] for g in prop1)
    for g in thm2:
        assert partial[g].value == full[g].value and partial[g].method == "grid"
        assert (partial[g].lower_certified, partial[g].upper_certified) == (0.0, math.inf)
        assert full[g].lower_certified <= full[g].value <= full[g].upper_certified < math.inf


def test_bracketed_is_ignored_where_brackets_are_free():
    # the closed form in d = 1 and the covering radius bracket every gamma
    d1 = enumerate_points(rank1_lattice(7, (1,)))
    assert distance_norms(d1, [1.0, 3.0], bracketed=()) == distance_norms(d1, [1.0, 3.0])
    covering = distance_norms(P5, [math.inf])
    assert distance_norms(P5, [math.inf], bracketed=()) == covering


# ---------------------------------------------------------------------------
# Slab unions: the oracle for Vol(B_t) = 2t in verify_prop1
# ---------------------------------------------------------------------------

def slab_union_volume(h, t: Fraction) -> Fraction:
    """Exact Vol(B_t) = sum_k Vol({|h.x - k| < t} cap cube) over the planes
    h.x = k that meet the cube, for a dual vector h and 0 < t < 1/2: the
    plane-by-plane sum that verify_prop1's closed form 2t replaces."""
    assert 0 < t < Fraction(1, 2)
    return sum(
        (
            halfspace_cube_volume(h, k + t) - halfspace_cube_volume(h, k - t)
            for k in range(sum(min(x, 0) for x in h), sum(max(x, 0) for x in h) + 1)
        ),
        Fraction(0),
    )


def prop1_t(d: int) -> Fraction:
    """The rational t >= t_d at which verify_prop1 takes Vol(A_t)."""
    t_d = verify_prop1(rank1_lattice(1, (0,) * d), gammas=(), norm_reports={}).t_d
    return Fraction(math.ceil(t_d * 10**12), 10**12)


def test_slab_union_volume_1d():
    assert slab_union_volume((1,), Fraction(1, 4)) == Fraction(1, 2)


def test_slab_union_volume_rank1_5_12():
    t = Fraction(1, 10)
    vol_bt = slab_union_volume((2, -1), t)
    # direct check: widths 2t in functional units across k = -1, 0, 1, 2
    expect = sum(
        halfspace_cube_volume((2, -1), k + t) - halfspace_cube_volume((2, -1), k - t)
        for k in range(-1, 3)
    )
    assert vol_bt == expect == 2 * t
    rep = spectral_test(R5)
    v_d = hyperplane_section_constant(2)
    assert float(vol_bt) <= (2 * math.sqrt(2) + 4 * rep.sigma) * v_d * float(t)


def test_prop1_vol_a_is_the_exact_slab_union_on_the_default_corpus():
    corpus = builtin_corpus(CorpusSpec(), 20200817)
    assert len(corpus) == 260
    ts = {d: prop1_t(d) for d in {len(g) for _, _, g in corpus}}
    for lattice_id, n, g in corpus:
        lat = rank1_lattice(n, g)
        rep = spectral_test(lat)
        t = ts[lat.dim]
        vol_bt = slab_union_volume(rep.shortest_dual, t)
        assert vol_bt == 2 * t, lattice_id
        p1 = verify_prop1(lat, gammas=(), report=rep, norm_reports={})
        assert p1.vol_a_td == float(1 - vol_bt) and p1.vol_a_ok, lattice_id


def test_verify_prop1_equispaced_d1():
    lat = rank1_lattice(4, (1,))
    rep = verify_prop1(lat, gammas=(1.0,))
    assert rep.v_d == 1.0
    assert rep.t_d == pytest.approx(1 / 12)
    assert rep.vol_a_ok and rep.vol_b_bound_ok
    # c_1 sigma / 2 = 1/96 <= 5/64
    assert rep.lower_bounds[0] == pytest.approx(1 / 96, rel=1e-9)
    assert rep.lower_ok == (True,)
    assert rep.norms[0].value == pytest.approx(5 / 64, abs=1e-10)


def test_verify_prop1_sigma_norm_ratio_d1():
    lat = rank1_lattice(8, (1,))
    rep = verify_prop1(lat, gammas=(math.inf,))
    assert rep.sigma == pytest.approx(1 / 8)
    assert rep.ratios == (pytest.approx(1.0, abs=1e-3),)


def test_verify_prop1_rank1_5_12_all_gammas():
    rep = verify_prop1(R5, gammas=(0.5, 1.0, 2.0, math.inf))
    assert rep.vol_a_ok
    assert rep.vol_b_bound_ok
    assert all(rep.lower_ok)
    assert all(r > 0 for r in rep.ratios)


def test_verify_prop1_with_passed_in_norm_reports_is_unchanged():
    gammas = (0.5, 2.0, math.inf)
    plain = verify_prop1(R5, gammas=gammas)
    # the caller's reports may hold extra gammas; prop1 reads only its own
    reports = distance_norms(P5, (*gammas, 3.0, 1.0))
    given = verify_prop1(R5, gammas=gammas, report=spectral_test(R5), norm_reports=reports)
    assert given == plain
    no_inf = verify_prop1(R5, gammas=(1.0,), norm_reports=reports)
    assert no_inf.norms == (reports[1.0],) and no_inf.ratios == (reports[1.0].value / no_inf.sigma,)


def test_proxy_spec_paper_cases():
    sp = proxy_spec(2, 2, math.inf, 2)
    assert sp.gamma == math.inf and sp.exponent == 1
    sp = proxy_spec(3, math.inf, 1, 2)
    assert sp.gamma == 3 and sp.exponent == 3
    sp = proxy_spec(2, 2, 1, 3)
    assert sp.gamma == 4 and sp.exponent == 2


def test_proxy_spec_rational_cases_exact():
    sp = proxy_spec(3, Fraction(3, 2), Fraction(6, 5), 2)
    # 1/q - 1/p = 5/6 - 2/3 = 1/6 -> gamma = 18; exponent = 3 (q < p, (.)_+ = 0)
    assert sp.gamma == Fraction(18)
    assert sp.exponent == Fraction(3)
    sp2 = proxy_spec(4, Fraction(4, 3), 2, 3)
    # (1/p - 1/q)_+ = 3/4 - 1/2 = 1/4 -> exponent = 4 - 3/4
    assert sp2.gamma == math.inf
    assert sp2.exponent == Fraction(13, 4)


def test_proxy_spec_guards():
    with pytest.raises(ValueError):
        proxy_spec(1, 2, 2, 3)  # s <= d/p
    with pytest.raises(ValueError):
        proxy_spec(2, Fraction(1, 2), 1, 2)  # p < 1


def test_error_proxy_equispaced():
    lat = rank1_lattice(8, (1,))
    ps = enumerate_points(lat)
    sp = proxy_spec(2, 2, math.inf, 1)
    # gamma = inf, exponent = 2 - 1*(1/2) = 3/2; covering radius = 1/8
    assert sp.gamma == math.inf
    val = distance_norms(ps, [math.inf])[math.inf].value ** float(sp.exponent)
    assert val == pytest.approx((1 / 8) ** 1.5, rel=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    g=st.lists(st.integers(min_value=0, max_value=399), min_size=2, max_size=4),
    t=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(499, 1000)),
)
def test_slab_union_volume_is_2t_for_every_shortest_dual_vector(n, g, t):
    lat = rank1_lattice(n, g)
    rep = spectral_test(lat, 12)
    # d <= 4 has at most 12 shortest vectors up to sign
    duals = rep.shortest_duals
    ties = [sv.vector for sv in duals if sv.norm_sq_exact == rep.dual_norm_sq]
    assert ties[0] == rep.shortest_dual
    for h in ties:
        assert slab_union_volume(h, t) == 2 * t
