import io
import math
from fractions import Fraction

import numpy as np
import pytest

from latdisc.errors import EnumerationCapExceeded
from latdisc.lattice import (
    IntegrationLattice,
    dual_basis,
    enumerate_points,
    fibonacci_lattice,
    format_lattice_text,
    format_rank1_text,
    korobov_lattice,
    parse_lattice_text,
    rank1_lattice,
    same_lattice,
    validate,
    write_points_csv,
)
from latdisc.ratlin import as_mat, det, norm_sq, vec_add, vec_dot


def brute_force_rank1_residues(n, g):
    """Independent oracle: all k*g/n mod 1 for k = 0..n-1, deduplicated."""
    pts = set()
    for k in range(n):
        pts.add(tuple(Fraction((k * gi) % n, n) for gi in g))
    return pts


def test_identity_lattice_is_trivial():
    lat = rank1_lattice(1, (0, 0))
    assert lat.n_points == 1
    assert abs(det(lat.basis)) == 1
    assert enumerate_points(lat).points == ((Fraction(0), Fraction(0)),)


def test_rank1_5_12_determinant_and_containment():
    lat = rank1_lattice(5, (1, 2))
    assert lat.n_points == 5
    assert abs(det(lat.basis)) == Fraction(1, 5)
    assert validate(lat) == []
    # up to unimodular equivalence the basis is {(1/5,2/5),(0,1)}
    assert same_lattice(
        lat, IntegrationLattice(2, as_mat([[Fraction(1, 5), Fraction(2, 5)], [0, 1]]), 5)
    )


def test_fibonacci_f10_is_55():
    lat = fibonacci_lattice(10)
    assert lat.n_points == 55
    assert abs(det(lat.basis)) == Fraction(1, 55)
    # independent Fibonacci recursion oracle
    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    assert fib[9] == 55
    assert same_lattice(lat, rank1_lattice(55, (1, 34)))


def test_enumerate_rank1_5_12_exact_points():
    pts = enumerate_points(rank1_lattice(5, (1, 2))).points
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
    pts = set(enumerate_points(lat).points)
    assert pts == {(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))}
    assert pts == brute_force_rank1_residues(4, (2, 2))


@pytest.mark.parametrize("n,g", [(8, (1, 3)), (12, (2, 3)), (16, (4, 6)), (7, (1, 2, 3))])
def test_enumerate_matches_brute_force(n, g):
    lat = rank1_lattice(n, g)
    pts = set(enumerate_points(lat).points)
    assert pts == brute_force_rank1_residues(n, g)
    assert len(pts) == lat.n_points


def test_group_closure_and_origin():
    ps = enumerate_points(fibonacci_lattice(8))  # N = 21
    pts = set(ps.points)
    assert tuple(Fraction(0) for _ in range(2)) in pts
    for p in ps.points:
        for q in ps.points:
            s = tuple(x - math.floor(x) for x in vec_add(p, q))
            assert s in pts


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_points(rank1_lattice(100, (1, 7)), cap=50)


def test_dual_basis_identity_and_1d():
    z2 = rank1_lattice(1, (0, 0))
    assert dual_basis(z2).basis == ((1, 0), (0, 1))
    one_d = rank1_lattice(7, (1,))
    assert dual_basis(one_d).basis == ((7,),)


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
    for row in db.basis:
        assert (row[0] + 2 * row[1]) % 5 == 0
    # and the dual generates every brute-force member (exact rational solve)
    from latdisc.ratlin import inverse, mat_vec, transpose

    dinv = inverse(as_mat(db.basis))
    for h in brute:
        coeffs = mat_vec(transpose(dinv), as_mat([h])[0])
        assert all(c.denominator == 1 for c in coeffs)


def test_dual_inner_products_are_integers():
    for lat in [rank1_lattice(55, (1, 34)), rank1_lattice(12, (2, 3)), korobov_lattice(16, 5, 3)]:
        db = dual_basis(lat)
        for prow in lat.basis:
            for drow in as_mat(db.basis):
                assert vec_dot(prow, drow).denominator == 1


def test_validate_detects_det_mismatch():
    lat = IntegrationLattice(2, as_mat([[Fraction(1, 3), 0], [0, 1]]), 4)
    assert "determinant mismatch" in validate(lat)


def test_validate_detects_missing_zd():
    # det matches the claimed N, but solving for e1 needs coefficient -2/3
    lat = IntegrationLattice(2, as_mat([[Fraction(1, 2), Fraction(1, 3)], [0, 1]]), 2)
    assert validate(lat) == ["Z^d not contained"]
    # rows {(1/2,0),(0,1/3)} do contain Z^2; only the claimed N can be wrong
    ok = IntegrationLattice(2, as_mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), 6)
    assert validate(ok) == []


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
    gens = {tuple(x - math.floor(x) for x in row) for row in lat.basis}
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
    IntegrationLattice(2, as_mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), 6),
    IntegrationLattice(2, as_mat([[Fraction(1, 4), Fraction(1, 2)], [0, Fraction(1, 2)]]), 8),
    IntegrationLattice(
        3,
        as_mat([[Fraction(1, 6), Fraction(1, 3), 0], [0, Fraction(1, 2), Fraction(1, 2)], [0, 0, 1]]),
        12,
    ),
    # the same group from a basis that is not in Hermite form
    IntegrationLattice(2, as_mat([[Fraction(1, 4), 1], [Fraction(-1, 4), Fraction(-3, 2)]]), 8),
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
    assert ps.points == reference_fraction_points(lat)
    assert ps.n == lat.n_points
    assert ps.ints.dtype == np.int64 and ps.ints.shape == (lat.n_points, lat.dim)
    assert np.array_equal(ps.as_array(), np.array([[float(x) for x in p] for p in ps.points]))


def test_enumerate_rejects_a_wrong_point_count():
    with pytest.raises(ValueError, match="expected 5"):
        enumerate_points(IntegrationLattice(2, as_mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), 5))
    with pytest.raises(EnumerationCapExceeded):  # the closure, not the claimed N, exceeds the cap
        enumerate_points(IntegrationLattice(1, as_mat([[Fraction(1, 1000)]]), 1), cap=50)
