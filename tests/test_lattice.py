import io
import math
from fractions import Fraction

import numpy as np
import pytest

from latdisc.errors import EnumerationCapExceeded
from hypothesis import given, settings
from hypothesis import strategies as st

from latdisc.lattice import (
    IntegrationLattice,
    det_adj,
    dual_basis,
    enumerate_points,
    fibonacci_lattice,
    format_lattice_text,
    format_rank1_text,
    hermite_normal_form,
    korobov_lattice,
    parse_lattice_text,
    rank1_lattice,
    write_points_csv,
)


def same_lattice(a, b):
    """Whether a and b generate the same lattice. The least denominator D
    (the least D with D L <= Z^d) is a lattice invariant, so equal lattices
    share it and have equal HNFs of their integer bases."""
    return (
        a.dim == b.dim
        and a.denom == b.denom
        and hermite_normal_form(a.basis) == hermite_normal_form(b.basis)
    )


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def fraction_det_inverse(m):
    """Independent oracle: Gauss-Jordan in Fractions; (det, inverse or None)."""
    d = len(m)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(d)] for i, r in enumerate(m)]
    det = Fraction(1)
    for j in range(d):
        piv = next((i for i in range(j, d) if aug[i][j] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != j:
            aug[j], aug[piv] = aug[piv], aug[j]
            det = -det
        det *= aug[j][j]
        aug[j] = [x / aug[j][j] for x in aug[j]]
        for i in range(d):
            if i != j and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[j])]
    return det, [row[d:] for row in aug]


def rational_basis(lat):
    return tuple(tuple(Fraction(x, lat.denom) for x in row) for row in lat.basis)


def fraction_points(ps):
    """The points of `ps` as tuples of Fractions, the exact reference."""
    return tuple(tuple(Fraction(x, ps.denom) for x in row) for row in ps.ints.tolist())


def brute_force_rank1_residues(n, g):
    """Independent oracle: all k*g/n mod 1 for k = 0..n-1, deduplicated."""
    pts = set()
    for k in range(n):
        pts.add(tuple(Fraction((k * gi) % n, n) for gi in g))
    return pts


def test_identity_lattice_is_trivial():
    lat = rank1_lattice(1, (0, 0))
    assert lat.n_points == 1
    assert (lat.basis, lat.denom) == (((1, 0), (0, 1)), 1)
    assert fraction_points(enumerate_points(lat)) == ((Fraction(0), Fraction(0)),)


def test_rank1_5_12_determinant_and_containment():
    lat = rank1_lattice(5, (1, 2))
    assert lat.n_points == 5
    # |det(basis / 5)| = |det basis| / 5^2 = 1/5
    assert lat.denom == 5 and abs(det_adj(lat.basis)[0]) == 5
    assert len(dual_basis(lat)) == 2  # dual_basis raises for an invalid lattice
    # up to unimodular equivalence the basis is {(1/5,2/5),(0,1)}
    assert same_lattice(lat, IntegrationLattice(2, ((1, 2), (0, 5)), 5, 5))


def test_fibonacci_f10_is_55():
    lat = fibonacci_lattice(10)
    assert lat.n_points == 55
    assert lat.denom == 55 and abs(det_adj(lat.basis)[0]) == 55
    # independent Fibonacci recursion oracle
    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    assert fib[9] == 55
    assert same_lattice(lat, rank1_lattice(55, (1, 34)))


def test_enumerate_rank1_5_12_exact_points():
    pts = fraction_points(enumerate_points(rank1_lattice(5, (1, 2))))
    expected = {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(4, 5)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(4, 5), Fraction(3, 5)),
    }
    assert set(pts) == expected
    assert set(pts) == brute_force_rank1_residues(5, (1, 2))


def test_enumerate_gcd_collapse():
    lat = rank1_lattice(4, (2, 2))
    assert lat.n_points == 2
    pts = set(fraction_points(enumerate_points(lat)))
    assert pts == {(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))}
    assert pts == brute_force_rank1_residues(4, (2, 2))


@pytest.mark.parametrize("n,g", [(8, (1, 3)), (12, (2, 3)), (16, (4, 6)), (7, (1, 2, 3))])
def test_enumerate_matches_brute_force(n, g):
    lat = rank1_lattice(n, g)
    pts = set(fraction_points(enumerate_points(lat)))
    assert pts == brute_force_rank1_residues(n, g)
    assert len(pts) == lat.n_points


def test_group_closure_and_origin():
    ps = enumerate_points(fibonacci_lattice(8))  # N = 21
    pts = set(fraction_points(ps))
    assert tuple(Fraction(0) for _ in range(2)) in pts
    for p in pts:
        for q in pts:
            s = tuple(x - math.floor(x) for x in vec_add(p, q))
            assert s in pts


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_points(rank1_lattice(100, (1, 7)), cap=50)


def test_dual_basis_identity_and_1d():
    z2 = rank1_lattice(1, (0, 0))
    assert dual_basis(z2) == ((1, 0), (0, 1))
    one_d = rank1_lattice(7, (1,))
    assert dual_basis(one_d) == ((7,),)


def test_dual_basis_rank1_5_12_congruence():
    lat = rank1_lattice(5, (1, 2))
    db = dual_basis(lat)
    # brute-force oracle: all h with |h|_inf <= 5 and h1 + 2 h2 = 0 mod 5
    brute = {
        (h1, h2)
        for h1 in range(-5, 6)
        for h2 in range(-5, 6)
        if (h1 + 2 * h2) % 5 == 0
    }
    # every integer combination of dual rows satisfies the congruence
    for row in db:
        assert (row[0] + 2 * row[1]) % 5 == 0
    # and the dual generates every brute-force member (exact rational solve)
    _, dinv = fraction_det_inverse(db)
    for h in brute:
        coeffs = [sum(c * x for c, x in zip(col, h)) for col in zip(*dinv)]
        assert all(c.denominator == 1 for c in coeffs)


def test_dual_inner_products_are_integers():
    for lat in [rank1_lattice(55, (1, 34)), rank1_lattice(12, (2, 3)), korobov_lattice(16, 5, 3)]:
        db = dual_basis(lat)
        for prow in rational_basis(lat):
            for drow in db:
                assert sum(a * b for a, b in zip(prow, drow)).denominator == 1


def test_validate_detects_det_mismatch():
    # a lattice is validated by dual_basis's checks, which parse_lattice_text runs
    lat =IntegrationLattice(2, ((1, 0), (0, 3)), 3, 4)  # rows (1/3, 0), (0, 1)
    with pytest.raises(ValueError, match="^dual determinant 3 does not match N = 4$"):
        dual_basis(lat)
    with pytest.raises(
        ValueError, match="^invalid lattice spec: dual determinant 3 does not match N = 4$"
    ):
        parse_lattice_text("2 4\n1/3 0\n0 1\n")


def test_validate_detects_missing_zd():
    # rows (1/2, 1/3), (0, 1): det matches the claimed N, but solving for e1
    # needs coefficient -2/3
    lat = IntegrationLattice(2, ((3, 2), (0, 6)), 6, 2)
    missing = "dual basis is not integral; Z\\^d is not contained in L$"
    with pytest.raises(ValueError, match="^" + missing):
        dual_basis(lat)
    with pytest.raises(ValueError, match="^invalid lattice spec: " + missing):
        parse_lattice_text("2 2\n1/2 1/3\n0 1\n")
    # rows {(1/2,0),(0,1/3)} do contain Z^2; only the claimed N can be wrong
    ok = parse_lattice_text("2 6\n1/2 0\n0 1/3\n")
    assert ok == IntegrationLattice(2, ((3, 0), (0, 2)), 6, 6)
    assert dual_basis(ok) == ((2, 0), (0, 3))


def test_text_roundtrip_basis_form():
    lat = rank1_lattice(5, (1, 2))
    text = format_lattice_text(lat)
    back = parse_lattice_text(text)
    assert same_lattice(lat, back)
    assert back.n_points == 5


def test_text_rank1_form():
    lat = parse_lattice_text(format_rank1_text(55, (1, 34)))
    assert same_lattice(lat, fibonacci_lattice(10))
    with pytest.raises(ValueError):
        parse_lattice_text("2 4\nrank1: 2 2\n")  # collapses to N=2


def test_points_csv_exact_and_decimal():
    ps = enumerate_points(rank1_lattice(5, (1, 2)))
    buf = io.StringIO()
    write_points_csv(ps, buf, exact=True)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert "1/5,2/5" in lines
    buf = io.StringIO()
    write_points_csv(ps, buf, precision=3)
    assert "0.200,0.400" in buf.getvalue()


def reference_fraction_points(lat):
    """Breadth-first closure of the basis rows mod 1 in Fractions, sorted."""
    gens = {tuple(x - math.floor(x) for x in row) for row in rational_basis(lat)}
    origin = tuple(Fraction(0) for _ in range(lat.dim))
    points, frontier = {origin}, [origin]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(x - math.floor(x) for x in vec_add(p, g))
                if q not in points:
                    points.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(points))


NON_RANK1 = [
    IntegrationLattice(2, ((3, 0), (0, 2)), 6, 6),  # (1/2, 0), (0, 1/3)
    IntegrationLattice(2, ((1, 2), (0, 2)), 4, 8),  # (1/4, 1/2), (0, 1/2)
    # (1/6, 1/3, 0), (0, 1/2, 1/2), (0, 0, 1)
    IntegrationLattice(3, ((1, 2, 0), (0, 3, 3), (0, 0, 6)), 6, 12),
    # the same group from a basis that is not in Hermite form: (1/4, 1), (-1/4, -3/2)
    IntegrationLattice(2, ((1, 4), (-1, -6)), 4, 8),
]


@pytest.mark.parametrize(
    "lat",
    [
        rank1_lattice(5, (1, 2)),
        fibonacci_lattice(12),
        rank1_lattice(64, (5, 17, 41)),
        rank1_lattice(16, (4, 6)),  # gcd collapse: N = 8
        korobov_lattice(101, 7, 4),
        rank1_lattice(1, (0, 0, 0)),
    ]
    + NON_RANK1,
)
def test_enumerate_matches_fraction_reference_in_order(lat):
    ps = enumerate_points(lat)
    assert ps.n == lat.n_points
    assert ps.ints.dtype == np.int64 and ps.ints.shape == (lat.n_points, lat.dim)
    exact = fraction_points(ps)
    assert exact == reference_fraction_points(lat)
    assert np.array_equal(ps.as_array(), np.array([[float(x) for x in p] for p in exact]))


def test_enumerate_rejects_a_wrong_point_count():
    with pytest.raises(ValueError, match="expected 5"):
        enumerate_points(IntegrationLattice(2, ((3, 0), (0, 2)), 6, 5))
    with pytest.raises(EnumerationCapExceeded):  # the closure, not the claimed N, exceeds the cap
        enumerate_points(IntegrationLattice(1, ((1,),), 1000, 1), cap=50)


def test_det_adj_2x2():
    # basis / 5 with basis [[1, 2], [0, 5]]: det 5 / 25 = 1/5, inverse 5 adj / 5
    det, adj = det_adj(((1, 2), (0, 5)))
    assert det == 5
    assert adj == ((5, -2), (0, 1))


def test_det_adj_singular():
    assert det_adj(((1, 2), (2, 4))) == (0, None)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
    )
)
def test_det_adj_matches_fraction_elimination(m):
    det, adj = det_adj(m)
    ref_det, ref_inv = fraction_det_inverse(m)
    assert det == ref_det
    if det:
        assert adj == tuple(tuple(int(x * det) for x in row) for row in ref_inv)


def test_hnf_canonical_upper_triangular():
    h = hermite_normal_form([[2, 2], [4, 0], [0, 4]])
    assert h == ((2, 2), (0, 4))
    # permuting or unimodularly mixing the generators leaves the HNF fixed
    assert hermite_normal_form([[4, 0], [2, 2], [2, 6]]) == h


def test_hnf_rank_deficient_raises():
    with pytest.raises(ValueError):
        hermite_normal_form([[1, 2], [2, 4]])


def test_same_lattice_is_basis_independent():
    a = IntegrationLattice(2, ((1, 2), (0, 5)), 5, 5)  # (1/5, 2/5), (0, 1)
    b = IntegrationLattice(2, ((1, 2), (2, -1)), 5, 5)  # (1/5, 2/5), (2/5, -1/5)
    assert same_lattice(a, b)
    c = IntegrationLattice(2, ((1, 2), (0, 4)), 4, 4)  # (1/4, 1/2), (0, 1)
    assert not same_lattice(a, c)


def test_basis_is_over_the_least_denominator():
    lat = rank1_lattice(16, (2, 6))  # gcd 2 collapses N and the denominator to 8
    assert (lat.denom, lat.n_points) == (8, 8)
    assert enumerate_points(lat).denom == 8
    with pytest.raises(ValueError, match="least common denominator"):
        IntegrationLattice(2, ((2, 6), (0, 16)), 16, 8)


def test_spec_entries_parse_over_the_least_denominator():
    a = parse_lattice_text("2 5\n2/10 4/10\n0 1\n")
    b = parse_lattice_text("2 5\n1/5 2/5\n0 1\n")
    assert a == b
    assert (a.basis, a.denom) == (((1, 2), (0, 5)), 5)


@pytest.mark.parametrize(
    "text",
    [
        "2 5\n1/5 2/5\n0 1\n",
        "2 8\n1/4 1/2\n0 1/2\n",
        "3 12\n1/6 1/3 0\n0 1/2 1/2\n0 0 1\n",
        format_lattice_text(korobov_lattice(101, 7, 4)),
        # the rank1 form prints in basis form, which then round-trips
        format_lattice_text(parse_lattice_text("2 55\nrank1: 1 34\n")),
        format_lattice_text(parse_lattice_text("3 1\nrank1: 0 0 0\n")),
    ],
)
def test_spec_text_roundtrips_byte_identically(text):
    assert format_lattice_text(parse_lattice_text(text)) == text
