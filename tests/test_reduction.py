import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdisc import harness, lattice, reduction
from latdisc.errors import DimensionGuardError
from latdisc.harness import CorpusSpec, builtin_corpus
from latdisc.lattice import (
    dual_basis,
    fibonacci_lattice,
    hermite_normal_form,
    korobov_lattice,
    rank1_lattice,
)
from latdisc.reduction import (
    LLL_DELTA,
    lll_reduce,
    shortest_vectors,
    spectral_test,
)


def norm_sq(v):
    return sum(x * x for x in v)


def reference_gram_schmidt(rows):
    """Gram-Schmidt in Fractions: (orthogonal rows, mu)."""
    d = len(rows)
    ortho = []
    mu = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        v = tuple(Fraction(x) for x in rows[i])
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(rows[i], ortho[j])) / norm_sq(ortho[j])
            v = tuple(a - mu[i][j] * b for a, b in zip(v, ortho[j]))
        ortho.append(v)
    return ortho, mu


def reference_lll(basis):
    """Test-only reference: LLL in Fractions with delta 3/4, recomputing the
    full Gram-Schmidt after every step. Row k is size-reduced against rows
    k-1, ..., 0 with `round` (halves to even), then the Lovasz test.
    Returns (rows, transform)."""
    rows = [tuple(Fraction(x) for x in r) for r in basis]
    d = len(rows)
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    ortho, mu = reference_gram_schmidt(rows)
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                rows[k] = tuple(a - q * b for a, b in zip(rows[k], rows[j]))
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                ortho, mu = reference_gram_schmidt(rows)
        if norm_sq(ortho[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm_sq(ortho[k - 1]):
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            ortho, mu = reference_gram_schmidt(rows)
            k = max(k - 1, 1)
    return tuple(rows), tuple(tuple(r) for r in u)


def assert_lll_matches_reference(lat):
    """Rows and transform of the integral LLL equal the Fraction reference on
    the primal basis (rows over lat.denom) and on the dual basis."""
    for basis, denom in ((lat.basis, lat.denom), (dual_basis(lat), 1)):
        rows, transform = reference_lll([[Fraction(x, denom) for x in r] for r in basis])
        rb = lll_reduce(basis)
        assert rb.transform == transform
        assert tuple(tuple(Fraction(x, denom) for x in r) for r in rb.rows) == rows


def test_lll_matches_fraction_reference_on_the_corpus():
    for _, n, g in builtin_corpus(CorpusSpec(), 20200817):
        assert_lll_matches_reference(rank1_lattice(n, g))


@pytest.mark.parametrize(
    "lat",
    [korobov_lattice(1009, 76, d) for d in (5, 6, 7, 8)]
    + [rank1_lattice(4099, (1, 1233, 2001, 3001, 777))],
    ids=lambda lat: f"d{lat.dim}-n{lat.n_points}",
)
def test_lll_matches_fraction_reference_in_higher_dimensions(lat):
    assert_lll_matches_reference(lat)


def brute_force_min_dual_norm_sq(n, g):
    """Shell enumeration over h with h.g = 0 mod n; independent of LLL/SVP.

    Grows the sup-norm window until the window radius reaches the best
    Euclidean norm found, which certifies global minimality.
    """
    d = len(g)
    best = None
    w = 0
    while True:
        w += 1
        for h in _shell(d, w):
            if sum(hi * gi for hi, gi in zip(h, g)) % n == 0:
                nsq = sum(x * x for x in h)
                if best is None or nsq < best:
                    best = nsq
        if best is not None and w * w >= best:
            return best


def _shell(d, w):
    """All integer vectors with sup norm exactly w."""
    if d == 1:
        yield (w,)
        yield (-w,)
        return
    for first in range(-w, w + 1):
        if abs(first) == w:
            for rest in _box(d - 1, w):
                yield (first, *rest)
        else:
            for rest in _shell(d - 1, w):
                yield (first, *rest)


def _box(d, w):
    if d == 0:
        yield ()
        return
    for first in range(-w, w + 1):
        for rest in _box(d - 1, w):
            yield (first, *rest)


@st.composite
def rank1_generators(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4096))
    return n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)))


@settings(max_examples=60, deadline=None)
@given(rank1_generators())
def test_doubling_cube_oracle_equals_the_shell_oracle(ng):
    n, g = ng
    assert harness.brute_force_min_dual_norm_sq(n, g) == brute_force_min_dual_norm_sq(n, g)


# lambda_1^2 in (W^2, (W+1)^2] for the doubling search's W = 2, 4, 8. The
# shortest dual vector lies inside the cube [-W, W]^d, so the search stops
# at W; or outside it, where the cube holds no congruent vector or only a
# longer one, so the search must go on to 2W.
@pytest.mark.parametrize(
    "w, n, g, lam_sq, where",
    [
        (2, 6, (2, 5), 5, "inside"),
        (2, 36, (12, 13, 19), 9, "inside"),
        (2, 717, (239, 255), 9, "outside, none in the cube"),
        (2, 324, (108, 209, 154), 9, "outside, none in the cube"),
        (4, 20, (4, 11), 17, "inside"),
        (4, 690, (138, 613, 429), 19, "inside"),
        (4, 1795, (359, 364), 25, "outside, none in the cube"),
        (4, 580, (116, 37, 204), 25, "outside, 26 in the cube"),
        (8, 72, (8, 11), 68, "inside"),
        (8, 18963, (2107, 3696, 4510), 81, "inside"),
        (8, 26091, (2899, 7502, 7057), 81, "outside, none in the cube"),
        (8, 3357, (373, 252, 530), 81, "outside, 101 in the cube"),
    ],
)
def test_doubling_cube_oracle_stops_at_the_right_cube(w, n, g, lam_sq, where):
    assert w * w < lam_sq <= (w + 1) ** 2
    cube = [h for h in _box(len(g), w) if any(h) and sum(map(math.prod, zip(h, g))) % n == 0]
    in_cube = min((norm_sq(h) for h in cube), default=None)
    assert where == (
        "inside" if in_cube == lam_sq
        else f"outside, {'none' if in_cube is None else in_cube} in the cube"
    )
    assert harness.brute_force_min_dual_norm_sq(n, g) == lam_sq
    assert brute_force_min_dual_norm_sq(n, g) == lam_sq


def test_lll_identity_fixed_point():
    rb = lll_reduce([[1, 0], [0, 1]])
    assert rb.rows == ((1, 0), (0, 1))
    assert rb.transform == ((1, 0), (0, 1))


def test_lll_rank1_5_12_reaches_minimal_norms():
    # oracle: the shortest vectors of L have squared norm 1/5 (exhaustive
    # search over k g/5 + m for small k, m)
    best = None
    for k in range(5):
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                v = (Fraction(k, 5) + m1, Fraction(2 * k, 5) + m2)
                nsq = v[0] ** 2 + v[1] ** 2
                if nsq > 0 and (best is None or nsq < best):
                    best = nsq
    assert best == Fraction(1, 5)
    # the basis (1/5, 2/5), (0, 1) over denominator 5: squared norm 1/5 is 5
    rb = lll_reduce([[1, 2], [0, 5]])
    assert sorted(norm_sq(r) for r in rb.rows) == [5, 5]
    assert hermite_normal_form(rb.rows) == hermite_normal_form(rb.source)


def test_lll_permutation_spans_same_lattice():
    rows = [[1, 2], [2, -1]]  # (1/5, 2/5), (2/5, -1/5) over denominator 5
    rb1 = lll_reduce(rows)
    rb2 = lll_reduce(rows[::-1])
    assert hermite_normal_form(rb1.rows) == hermite_normal_form(rb2.rows)


def test_lll_rejects_bad_inputs():
    with pytest.raises(ValueError, match="dependent"):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="integers"):
        lll_reduce([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(ValueError, match="integers"):
        lll_reduce([[0.5, 0], [0, 1]])


def test_lll_size_reduction_and_lovasz_hold():
    lat = fibonacci_lattice(12)
    rb = lll_reduce(lat.basis)
    ortho, mu = reference_gram_schmidt(rb.rows)
    d = rb.dim
    for i in range(d):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
    for k in range(1, d):
        assert norm_sq(ortho[k]) >= (LLL_DELTA - mu[k][k - 1] ** 2) * norm_sq(
            ortho[k - 1]
        )


def shortest_vector(basis):
    """The first vector of the one search, over a fresh reduction of `basis`."""
    return shortest_vectors(lll_reduce(basis), 1)[0]


def test_shortest_vector_zd_tiebreak_is_last_axis():
    sv = shortest_vector([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert sv.norm_sq_exact == 1
    assert sv.coefficients == (0, 0, 1)


def brute_force_shortest_vectors(basis, k, radius):
    """The k shortest vectors of the lattice spanned by the integer `basis`,
    in (norm^2, reduced-basis coefficient) order, as (norm^2, vector,
    input coefficients) with the input coefficients sign-normalised.

    Scans every integer vector of the box [-radius, radius]^d, keeps those
    in the lattice (their input coefficients are integers, found with
    Fractions), and asserts that the k-th norm^2 is at most radius^2, so the
    box holds every vector that short.
    """
    d = len(basis)
    rb = lll_reduce(basis)

    def solver(rows):
        det, adj = lattice.det_adj(rows)
        # v = c . rows, so c = v . adj(rows) / det(rows)
        return lambda v: tuple(Fraction(sum(map(math.prod, zip(v, col))), det) for col in zip(*adj))

    input_coefficients, reduced_coefficients = solver(basis), solver(rb.rows)

    def positive_lead(c):
        return tuple(-x for x in c) if next(x for x in c if x) < 0 else c

    found = []
    for v in itertools.product(range(-radius, radius + 1), repeat=d):
        c = input_coefficients(v)
        if any(v) and all(x.denominator == 1 for x in c):
            c = tuple(int(x) for x in c)
            if c == positive_lead(c):  # one vector per +- pair, as input coefficients sign it
                w = positive_lead(tuple(int(x) for x in reduced_coefficients(v)))
                found.append((norm_sq(v), w, v, c))
    found.sort()
    assert found[k - 1][0] <= radius * radius
    return [(nsq, v, c) for nsq, _, v, c in found[:k]]


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize(
    "g", [(1,), (1, 7), (1, 7, 19), (1, 7, 19, 27)], ids=lambda g: f"d{len(g)}"
)
def test_shortest_vectors_runs_one_enumeration(g, k, monkeypatch):
    reduced = lll_reduce(dual_basis(rank1_lattice(64, g)))
    real = reduction.enumerate_below
    calls = []
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: calls.append(a) or real(*a))
    svs = shortest_vectors(reduced, k)
    assert len(calls) == 1 and len(svs) == k
    # a search from four times the bound finds no vector the one search missed
    wider = real(reduced.rows, 4 * svs[-1].norm_sq_exact, k)
    assert [nsq for _, nsq in wider[:k]] == [sv.norm_sq_exact for sv in svs]


def test_shortest_vectors_bound_stays_tight_on_a_skewed_basis(monkeypatch):
    # rows of lengths 1 and 100: the 10 shortest vectors are j (1, 0), j <= 10.
    # The multiples j e_1 among the bound's candidates put it at exactly
    # |10 (1, 0)|^2, so the one search returns these 10 vectors and no more
    real = reduction.enumerate_below
    found = []
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: found.append(real(*a)) or found[-1])
    svs = shortest_vectors(lll_reduce([[1, 0], [0, 100]]), 10)
    assert [sv.vector for sv in svs] == [(j, 0) for j in range(1, 11)]
    assert [len(hits) for hits in found] == [10]


def test_shortest_vectors_in_d12_stay_small(monkeypatch):
    # the bound has d k + d (d - 1) candidates; a coefficient box such as
    # {-1..1}^12 would have 3^12 rows
    reduced = lll_reduce(dual_basis(korobov_lattice(4099, 1606, 12)))
    real = reduction.enumerate_below
    found = []
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: found.append(real(*a)) or found[-1])
    tracemalloc.start()
    try:
        svs = [shortest_vectors(reduced, k) for k in (1, 10)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [sv.norm_sq_exact for sv in svs[1]] == [3, 3, 3, 3, 4, 4, 6, 6, 6, 6]
    assert svs[0] == svs[1][:1]
    assert [len(hits) < 100 for hits in found] == [True, True]


@pytest.mark.parametrize(
    "basis",
    [((1, 0), (5, 1)), ((5, 1), (1, 0)), ((3, 2), (4, 3)), ((1, 1, 0), (0, 1, 1), (1, 2, 2)),
     ((2, 0), (1, 2)), ((4, 1), (1, 4))],
)
def test_shortest_vectors_ties_break_on_reduced_coefficients(basis):
    svs = shortest_vectors(lll_reduce(basis), 6)
    expected = brute_force_shortest_vectors(basis, 6, 8)
    assert [(sv.norm_sq_exact, sv.vector, sv.coefficients) for sv in svs] == expected


ORACLE_BASES = {
    "Z2": ([[1, 0], [0, 1]], 5),
    "Z3": ([[int(i == j) for j in range(3)] for i in range(3)], 3),
    "Z4": ([[int(i == j) for j in range(4)] for i in range(4)], 2),
    "skewed": ([[1, 0], [0, 100]], 25),
    "rank1-d5": (dual_basis(rank1_lattice(17, (1, 3, 4, 5, 7))), 3),
    "rank1-d6": (dual_basis(rank1_lattice(7, (1, 2, 3, 4, 5, 6))), 2),
}


@pytest.mark.parametrize("name", ORACLE_BASES)
def test_shortest_vectors_match_the_brute_force_oracle(name):
    # Z^d and the rank-1 duals tie many vectors at the k-th norm, so the
    # tie order decides which k are returned
    basis, radius = ORACLE_BASES[name]
    expected = brute_force_shortest_vectors(basis, 25, radius)
    reduced = lll_reduce(basis)
    for k in (1, 3, 10, 25):
        svs = shortest_vectors(reduced, k)
        assert [(sv.norm_sq_exact, sv.vector, sv.coefficients) for sv in svs] == expected[:k], k


@pytest.mark.parametrize("k", [1, 3, 9, 10, 25])
@pytest.mark.parametrize(
    "lat",
    [fibonacci_lattice(16), fibonacci_lattice(11), rank1_lattice(1024, (1, 271, 343)),
     rank1_lattice(17, (1, 3, 4, 5, 7))],
    ids=["fib-k16", "fib-k11", "d3-n1024", "d5-n17"],
)
def test_enumerate_below_keeps_only_the_k_th_norm_and_shorter(lat, k, monkeypatch):
    # the search shrinks its bound to the k-th norm found, so it returns more
    # than k vectors only when norms tie at the k-th place. A search below the
    # candidate bound alone returned 36 vectors on fib-k16 for k = 10
    reduced = lll_reduce(dual_basis(lat))
    norms = [sv.norm_sq_exact for sv in shortest_vectors(reduced, k + 1)]
    real = reduction.enumerate_below
    found = []
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: found.append(real(*a)) or found[-1])
    shortest_vectors(reduced, k)
    (hits,) = found
    assert [nsq for _, nsq in hits[:k]] == norms[:k]
    assert all(nsq == norms[k - 1] for _, nsq in hits[k:])
    if norms[k - 1] < norms[k]:
        assert len(hits) == k


@pytest.mark.parametrize(
    "rows, bound_sq, what",
    [
        (((10**400, 0), (0, 1)), 5, "a basis entry"),
        (((3, 0), (0, 1)), 10**400, "the bound"),
        (((10**155, 0), (0, 1)), 5, "a Gram-Schmidt squared norm"),
    ],
    ids=["basis", "bound", "gram-schmidt"],
)
def test_enumerate_below_refuses_floats_beyond_their_range(rows, bound_sq, what):
    # a float pruning radius or norm of inf or nan once pruned every candidate,
    # or a bound beyond 1.8e308 raised OverflowError
    with pytest.raises(ValueError, match=f"^{what} is beyond the float range"):
        reduction.enumerate_below(rows, bound_sq, 1)


def test_spectral_test_just_inside_float_range():
    # N = 10^150 keeps every float the search prunes with finite
    n = 10**150
    assert spectral_test(rank1_lattice(n, (1, (n // 3) | 1))).dual_norm_sq == 10


@pytest.mark.parametrize("k", [-1, 0, True, False, 1.0, "3", None])
def test_shortest_vectors_rejects_a_bad_k(k):
    # k = -1 once returned the first vectors but one, and k = 0 none
    reduced = lll_reduce(dual_basis(fibonacci_lattice(11)))
    with pytest.raises(ValueError, match="^k must be an integer >= 1"):
        shortest_vectors(reduced, k)


@pytest.mark.parametrize("n", [-1, 0, True, 2.0])
def test_spectral_test_rejects_a_bad_n_shortest(n):
    with pytest.raises(ValueError, match="^n_shortest must be an integer >= 1"):
        spectral_test(fibonacci_lattice(11), n)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_spectral_test_keeps_the_n_shortest_dual_vectors(n):
    lat = fibonacci_lattice(11)
    rep = spectral_test(lat, n)
    assert list(rep.shortest_duals) == shortest_vectors(lll_reduce(dual_basis(lat)), n)
    assert rep.shortest_dual == rep.shortest_duals[0].vector
    assert rep.to_json_dict() == spectral_test(lat).to_json_dict()


def test_shortest_vector_dual_rank1_5_12():
    db = dual_basis(rank1_lattice(5, (1, 2)))
    sv = shortest_vector(db)
    assert sv.norm_sq_exact == 5
    assert brute_force_min_dual_norm_sq(5, (1, 2)) == 5
    h = sv.vector
    assert (h[0] + 2 * h[1]) % 5 == 0


def test_shortest_vector_dual_fibonacci_55():
    db = dual_basis(rank1_lattice(55, (1, 34)))
    sv = shortest_vector(db)
    assert sv.norm_sq_exact == brute_force_min_dual_norm_sq(55, (1, 34))


def test_shortest_vector_dimension_guard():
    with pytest.raises(DimensionGuardError):
        shortest_vector([[1 if i == j else 0 for j in range(13)] for i in range(13)])


def test_spectral_test_values():
    assert spectral_test(rank1_lattice(1, (0, 0))).sigma == pytest.approx(1.0)
    rep = spectral_test(rank1_lattice(5, (1, 2)))
    assert rep.sigma == pytest.approx(5 ** -0.5, abs=1e-15)
    assert rep.dual_norm_sq == 5
    one_d = spectral_test(rank1_lattice(8, (1,)))
    assert one_d.sigma == pytest.approx(1 / 8)


def test_spectral_exactness_brute_force_small():
    for n, g in [(8, (1, 3)), (21, (1, 13)), (64, (1, 19)), (16, (2, 6)), (27, (1, 8, 11))]:
        lat = rank1_lattice(n, g)
        rep = spectral_test(lat)
        assert rep.dual_norm_sq == brute_force_min_dual_norm_sq(n, g)


def test_sigma_invariant_under_coordinate_permutation():
    lat = rank1_lattice(64, (1, 19))
    swapped = rank1_lattice(64, (19, 1))
    assert spectral_test(lat).dual_norm_sq == spectral_test(swapped).dual_norm_sq


def test_sigma_diam_invariants():
    for lat in [rank1_lattice(5, (1, 2)), fibonacci_lattice(13), rank1_lattice(16, (1, 0))]:
        rep = spectral_test(lat)
        d = lat.dim
        assert rep.sigma <= math.sqrt(d) + 1e-15
        assert rep.sigma * math.sqrt(rep.dual_norm_sq) == pytest.approx(1.0, abs=1e-14)
        assert rep.to_json_dict()["dual_norm"] == math.sqrt(rep.dual_norm_sq)


def test_shortest_vectors_k_list_is_sorted_and_distinct():
    db = dual_basis(fibonacci_lattice(10))
    svs = shortest_vectors(lll_reduce(db), 10)
    assert len(svs) == 10
    norms = [sv.norm_sq_exact for sv in svs]
    assert norms == sorted(norms)
    assert len({sv.coefficients for sv in svs}) == 10
    # all satisfy the dual congruence h1 + 34 h2 = 0 mod 55
    for sv in svs:
        h = sv.vector
        assert (h[0] + 34 * h[1]) % 55 == 0


def test_every_point_on_some_hyperplane():
    from latdisc.lattice import enumerate_points

    lat = rank1_lattice(5, (1, 2))
    pts = enumerate_points(lat)
    h = (2, -1)
    for row in pts.ints.tolist():
        assert sum(Fraction(x, pts.denom) * a for x, a in zip(row, h)).denominator == 1


def test_fibonacci_sigma_scaling_window():
    # empirical guard: sigma(F_k) * sqrt(F_k) stays inside [0.4, 1.6]
    for k in range(5, 16):
        lat = fibonacci_lattice(k)
        rep = spectral_test(lat)
        val = rep.sigma * math.sqrt(lat.n_points)
        assert 0.4 <= val <= 1.6, (k, val)


REUSE_CORPUS = CorpusSpec(
    fibonacci_k=(5, 9), rank1_sizes=(64, 256, 1024), rank1_per_cell=1
)


@pytest.mark.parametrize(
    "entry", builtin_corpus(REUSE_CORPUS, 20200817), ids=lambda e: e[0]
)
def test_shortest_dual_vectors_reuse_the_reports_reduction(entry, monkeypatch):
    from latdisc.discrepancy import isotropic_lower_bound

    lat = rank1_lattice(*entry[1:])
    fresh = [sv.vector for sv in shortest_vectors(lll_reduce(dual_basis(lat)), 10)]
    rep = spectral_test(lat, 10)
    calls = []
    for name in ("lll_reduce", "enumerate_below"):
        real = getattr(reduction, name)
        monkeypatch.setattr(reduction, name, lambda *a, real=real: calls.append(a) or real(*a))
    _, witnesses = isotropic_lower_bound(lat, report=rep)
    assert [w.dual_slab[0] for w in witnesses] == fresh
    assert calls == []  # the report's dual vectors are used as they are
    assert fresh[0] == rep.shortest_dual
    assert sum(x * x for x in fresh[0]) == rep.dual_norm_sq


def dual_vectors(lat, k):
    """The k shortest dual vectors, from a fresh reduction of the dual basis."""
    return [sv.vector for sv in shortest_vectors(lll_reduce(dual_basis(lat)), k)]


DEFAULT_CORPUS = {lid: (n, g) for lid, n, g in builtin_corpus(CorpusSpec(), 20200817)}


def test_spectral_test_names_the_first_shortest_dual_vector_on_the_default_corpus():
    assert len(DEFAULT_CORPUS) == 260
    for lattice_id, (n, g) in DEFAULT_CORPUS.items():
        lat = rank1_lattice(n, g)
        assert spectral_test(lat).shortest_dual == dual_vectors(lat, 10)[0], lattice_id


# two shortest dual vectors each, on which two tie rules once picked different ones
TIED = ("fib-k05", "fib-k07", "rank1-d3-n64-i19", "rank1-d4-n1024-i17")


@pytest.mark.parametrize(
    "lattice_id", [*TIED, "fib-k06", "rank1-d2-n64-i03", "rank1-d3-n256-i00"]
)
def test_every_check_uses_the_same_shortest_dual_vector(lattice_id):
    from latdisc import discrepancy

    lat = rank1_lattice(*DEFAULT_CORPUS[lattice_id])
    rep = spectral_test(lat, 10)
    _, witnesses = discrepancy.isotropic_lower_bound(lat, report=rep)
    h = rep.shortest_dual
    assert dual_vectors(lat, 10)[0] == h
    assert witnesses[0].dual_slab[0] == h
    ties = [v for v in dual_vectors(lat, 12) if norm_sq(v) == rep.dual_norm_sq]
    assert len(ties) == (2 if lattice_id in TIED else 1)
