import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_oracle import halfspace_cube_volume, halfspace_cube_volume_derivative
from latdisc import cli, discrepancy, distance, harness, lattice
from latdisc.convex import HPolytope, body_from_json_dict
from latdisc.discrepancy import (
    N_SLABS,
    SLAB_EPS,
    _best_slab,
    _midplane_density,
    isotropic_lower_bound,
    slab_witness,
    verify_thm1,
)
from latdisc.harness import Campaign, CorpusSpec, builtin_corpus, run_lattice_task
from latdisc.lattice import (
    LatticePointSet,
    enumerate_points,
    fibonacci_generator,
    fibonacci_lattice,
    rank1_lattice,
)
from latdisc.reduction import spectral_test


# ---------------------------------------------------------------------------
# Exact counting, the oracle for witness emptiness
#
# A point is P / D with P an integer vector (LatticePointSet.ints). A rational
# linear form a.p is s / scale with s = m.P an integer, so every comparison
# against a rational threshold is an integer comparison against a threshold
# rounded once, exactly. Products run in int64 when a magnitude bound shows
# they cannot overflow, and on Python-int object arrays otherwise.
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _scaled_dot(ps: LatticePointSet, a) -> tuple[np.ndarray, int]:
    """Integers s and a scale with a.p = s[i] / scale for every point p."""
    a = [Fraction(x) for x in a]
    q = math.lcm(*(x.denominator for x in a))
    m = [x.numerator * (q // x.denominator) for x in a]
    # sum |m_i| D bounds every |s[i]|; beyond int64 the products need Python ints
    ints = ps.ints if sum(map(abs, m)) * ps.denom <= _INT64_MAX else ps.ints.astype(object)
    return ints @ np.array(m, dtype=ints.dtype), q * ps.denom


def _at_most(s: np.ndarray, t: int) -> np.ndarray:
    """s <= t elementwise. An int64 s lies inside the int64 range, so
    clamping t into that range leaves the answer unchanged."""
    if s.dtype != object:
        t = min(max(t, -_INT64_MAX), _INT64_MAX)
    return np.asarray(s <= t, dtype=bool)


def count_points_slab(ps: LatticePointSet, h, lo, hi) -> int:
    """Points with lo <= h.x <= hi, exact."""
    s, scale = _scaled_dot(ps, h)
    lo, hi = Fraction(lo) * scale, Fraction(hi) * scale
    inside = _at_most(-s, -math.ceil(lo)) & _at_most(s, math.floor(hi))
    return int(np.count_nonzero(inside))


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
    # a slab whose lower side lies below the cube counts a half-space
    assert count_points_slab(P5, [1, 0], -1, Fraction(1, 2)) == 3
    assert count_points_slab(P5, [1, 0], -1, Fraction(2, 5)) == 3  # boundary point counts
    assert count_points_slab(P5, [1, 0], 0, 1) == 5


def test_count_points_open_slab_is_zero():
    # all five points satisfy 2x1 - x2 in {0, 1} exactly: the closed slab
    # holds them all, and its two boundary planes hold them all too
    h = (2, -1)
    assert count_points_slab(P5, h, 0, 1) == 5
    on_planes = count_points_slab(P5, h, 0, 0) + count_points_slab(P5, h, 1, 1)
    assert count_points_slab(P5, h, 0, 1) - on_planes == 0


def test_slab_witness_rank1_5_12():
    w = slab_witness(R5, spectral_test(R5).shortest_dual)
    assert w.family == "dual-slab"
    assert w.certified
    # slab 0 < 2x1 - x2 < 1 has area 1/2 (piecewise-linear computation)
    assert w.local_value == pytest.approx(0.5, abs=1e-6)
    assert w.local_value_exact <= Fraction(1, 2)
    # the slab 1 + eps <= x_1 + 2 x_2 <= 2 - eps cut by the cube's faces
    assert w.dual_slab == ((1, 2), 1)
    # read back as a checked polytope (bounded, full-dimensional, in the cube)
    # with the same planes: the witness writes HPolytope's layout
    body = w.to_json_dict()["body"]
    assert body == {
        "variant": "h_polytope",
        "normals": [[1.0, 2.0], [-1.0, -2.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0]],
        "offsets": [1.999999999, -1.000000001, 1.0, 1.0, 0.0, 0.0],
    }
    back = body_from_json_dict(body)
    assert type(back) is HPolytope
    assert back.normals.tolist() == body["normals"]
    assert back.offsets.tolist() == body["offsets"]


def test_slab_witness_rejects_a_vector_outside_the_dual():
    with pytest.raises(ValueError, match="not in the dual"):
        slab_witness(R5, (1, 0))
    with pytest.raises(ValueError, match="nonzero"):
        slab_witness(R5, (0, 0))
    # (2, -1, 5) would pass the dual check on its first two entries alone
    with pytest.raises(ValueError, match="h has length 3, the lattice dimension is 2"):
        slab_witness(R5, (2, -1, 5))
    # 2.7 was once truncated to 2, and the slab of (2, -1) came back
    with pytest.raises(ValueError, match="h must have integer entries"):
        slab_witness(R5, (2.7, -1))


def test_slab_witness_z1_single_point():
    lat = rank1_lattice(1, (0,))
    w = slab_witness(lat, spectral_test(lat).shortest_dual)
    assert w.local_value == pytest.approx(1.0, abs=1e-6)


def test_slab_witness_equispaced_gap():
    lat = rank1_lattice(8, (1,))
    w = slab_witness(lat, spectral_test(lat).shortest_dual)
    assert w.local_value == pytest.approx(1 / 8, abs=1e-6)
    # length is exactly 1/N less the 1e-9 shrink from each end in units of
    # h.x = 8x, so 2e-9 / 8 less
    assert w.local_value_exact == Fraction(1, 8) - Fraction(2, 8 * 10**9)


def test_isotropic_lower_bound_single_point_d2():
    lat = rank1_lattice(1, (0, 0))
    best, all_w = isotropic_lower_bound(lat)
    assert best.certified
    assert best.local_value >= 0.9
    assert all(w.local_value <= 1 + 1e-12 for w in all_w)


def test_isotropic_lower_bound_equispaced_d1():
    lat = rank1_lattice(16, (1,))
    best, _ = isotropic_lower_bound(lat)
    assert best.local_value >= 1 / 16 - 1e-6
    assert best.local_value_exact <= Fraction(1, 16)


def test_isotropic_lower_bound_reads_its_dual_vectors_from_the_report():
    lat = fibonacci_lattice(11)
    rep = spectral_test(lat, N_SLABS + 2)
    _, witnesses = isotropic_lower_bound(lat, report=rep)
    assert [w.dual_slab[0] for w in witnesses] == [
        sv.vector for sv in rep.shortest_duals[:N_SLABS]
    ]
    short = spectral_test(lat, N_SLABS - 1)
    message = f"needs N_SLABS = {N_SLABS} dual vectors, but the report holds {N_SLABS - 1};"
    with pytest.raises(ValueError, match=message):
        isotropic_lower_bound(lat, report=short)


def test_witness_bodies_inside_cube():
    lat = fibonacci_lattice(7)
    _, all_w = isotropic_lower_bound(lat)
    for w in all_w:
        lo, hi = body_from_json_dict(w.to_json_dict()["body"]).bounding_box()
        assert np.all(lo >= -1e-9) and np.all(hi <= 1 + 1e-9)


def test_verify_thm1_rank1_5_12():
    rep = verify_thm1(R5, lattice_id="rank1-5-12")
    assert rep.verdict == "PASS"
    assert rep.bound == pytest.approx(2 * 2**6 / math.sqrt(5), rel=1e-12)
    assert rep.old_bound == pytest.approx(4 * 4 / math.sqrt(5), rel=1e-12)
    assert rep.j_lower >= 0.5 - 1e-6
    assert rep.slab_floor_ok
    assert rep.j_lower <= min(1.0, rep.bound)


def test_verify_thm1_zd():
    for d in (1, 2, 3):
        lat = rank1_lattice(1, tuple(0 for _ in range(d)))
        rep = verify_thm1(lat)
        assert rep.verdict == "PASS"
        assert rep.sigma == 1.0
        assert rep.slab_floor_ok


@pytest.mark.parametrize("d", [2, 3])
def test_zd_lower_bound_is_the_exact_slab(d):
    # the unit slab 0 < x_1 < 1 shrunk by 1e-9 on each side
    lat = rank1_lattice(1, (0,) * d)
    best, witnesses = isotropic_lower_bound(lat)
    assert best.local_value_exact == 1 - Fraction(2, 10**9)
    assert {w.family for w in witnesses} == {"dual-slab"}
    rep = verify_thm1(lat)
    assert rep.j_lower == float(best.local_value_exact)
    assert len(witnesses) == 10


def test_verify_thm1_fibonacci():
    rep = verify_thm1(fibonacci_lattice(15))
    assert rep.verdict == "PASS"
    assert rep.slab_floor_ok
    assert rep.slab_value > 0
    assert rep.j_lower <= min(1.0, rep.bound)


def test_thm1_slab_floor_is_taken_at_the_witness_slab():
    # the spectral test and the slab witness both pick (-2, 2, 3); (0, 4, -1)
    # comes second, with the same norm^2 17, and a different floor (0.05, not 0.0625)
    lat = rank1_lattice(64, (51, 21, 20))
    _, witnesses = isotropic_lower_bound(lat)
    h, k = witnesses[0].dual_slab
    rep = verify_thm1(lat)
    floor = Fraction(1, 5) * halfspace_cube_volume_derivative(h, Fraction(2 * k + 1, 2))
    assert rep.slab_floor == float(floor) == 0.0625
    assert rep.slab_floor_ok


def _midplane_cases():
    """Every h in {-3..3}^3 but 0, then 2,000 seeded random h in d = 1..6
    with entries in -9..9, each with every slab k that meets the cube."""
    rng = random.Random(20200817)
    hs = [h for h in itertools.product(range(-3, 4), repeat=3) if any(h)]
    drawn = 0
    while drawn < 2000:
        h = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        if any(h):
            hs.append(h)
            drawn += 1
    for h in hs:
        for k in range(sum(min(x, 0) for x in h), sum(max(x, 0) for x in h)):
            yield h, k


def test_midplane_density_equals_the_half_space_derivative():
    # the slab floor's density, from the reflected integer sum, against the
    # oracle's general Fraction cut at b = k + 1/2
    n = 0
    for h, k in _midplane_cases():
        oracle = halfspace_cube_volume_derivative(h, Fraction(2 * k + 1, 2))
        assert _midplane_density(h, k) == oracle, (h, k)
        n += 1
    assert n > 30_000


# ---------------------------------------------------------------------------
# Integer counting against a Fraction reference
# ---------------------------------------------------------------------------

def ref_slab_count(ps, h, lo, hi):
    """The count of lo <= h.p <= hi in Fractions."""
    values = [sum(Fraction(hj) * x for hj, x in zip(h, q)) for q in fraction_points(ps)]
    return sum(lo <= v <= hi for v in values)


CORPUS_LATTICES = (
    fibonacci_lattice(10),
    rank1_lattice(64, (1, 27)),  # dyadic points: cuts can pass through them exactly
    rank1_lattice(64, (5, 17, 41)),
    rank1_lattice(256, (1, 45, 203, 117)),
    rank1_lattice(1, (0, 0)),
)
CORPUS_POINT_SETS = [enumerate_points(lat) for lat in CORPUS_LATTICES]


@pytest.mark.parametrize("ps", CORPUS_POINT_SETS, ids=lambda ps: f"d{ps.dim}-N{ps.n}")
def test_integer_counts_match_fraction_reference(ps):
    rng = np.random.default_rng(ps.n)
    d = ps.dim
    exact = fraction_points(ps)
    for _ in range(25):
        h = tuple(int(x) for x in rng.integers(-5, 6, size=d))
        lo = sum(hj * x for hj, x in zip(h, exact[rng.integers(ps.n)]))  # through a point
        hi = lo + Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 5)))
        assert count_points_slab(ps, h, lo, hi) == ref_slab_count(ps, h, lo, hi)

        # a rational normal, and a half-space: a slab from below the cube
        a = [Fraction(int(x), 1 << 20) for x in rng.integers(-(1 << 20), 1 << 20, size=d)]
        b = sum(ai * x for ai, x in zip(a, exact[rng.integers(ps.n)]))
        below = -sum(map(abs, a)) - 1
        assert count_points_slab(ps, a, below, b) == ref_slab_count(ps, a, below, b)


def test_counts_exact_when_int64_could_overflow():
    # a hand-made point set over D ~ 2^62: the products m.P need Python ints
    denom = (1 << 62) + 3
    ints = np.array([[0, 0], [1, denom - 1], [denom // 3, denom // 5], [denom - 2, 7]], dtype=np.int64)
    ps = LatticePointSet(2, ints, denom)
    h = (3, -5)
    s, scale = _scaled_dot(ps, h)
    assert s.dtype == object and scale == denom
    for lo, hi in ((Fraction(-1), Fraction(1)), (Fraction(3 * (denom // 3) - 5 * (denom // 5), denom), 3)):
        assert count_points_slab(ps, h, lo, hi) == ref_slab_count(ps, h, lo, hi)
    a = [Fraction(1, 3), Fraction(2, 7)]
    for q in fraction_points(ps):
        b = a[0] * q[0] + a[1] * q[1]
        for lo in (-1, b):
            assert count_points_slab(ps, a, lo, b) == ref_slab_count(ps, a, lo, b)


def best_slab_by_scan(h):
    """The first k of largest Vol(k + eps <= h.x <= k + 1 - eps) and that
    volume, from the exact volume of every slab: the reference search."""
    vols = {
        k: halfspace_cube_volume(h, k + 1 - SLAB_EPS) - halfspace_cube_volume(h, k + SLAB_EPS)
        for k in range(sum(min(x, 0) for x in h), sum(max(x, 0) for x in h))
    }
    best_k = max(vols, key=lambda k: (vols[k], -k))
    return best_k, vols[best_k]


def shortest_dual_vectors(lat, k):
    """The k shortest dual vectors of lat, in the spectral test's order."""
    return [sv.vector for sv in spectral_test(lat, k).shortest_duals]


def test_slab_witness_records_its_best_index():
    lat = fibonacci_lattice(12)
    for h in shortest_dual_vectors(lat, 4):
        w = slab_witness(lat, h)
        best_k, vol = best_slab_by_scan(h)
        assert w.dual_slab == (h, best_k)
        assert w.local_value_exact == vol


@settings(max_examples=150, deadline=None)
@given(
    h=st.one_of(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=6),
    ).filter(any)
)
def test_best_slab_equals_the_exhaustive_scan(h):
    assert _best_slab(tuple(h)) == best_slab_by_scan(tuple(h))


@pytest.mark.parametrize(
    "h",
    [
        (5, 2),  # trapezoid: slabs 2, 3 and 4 tie on the flat top, the first wins
        (2, -5),
        (7, 7),  # triangle: slabs 6 and 7 tie across the middle
        (3, 3, 3, 3),
        (1,),
        (8,),
        (1597,),
        (3, 0, 0),
        (0, -4, 0),
        (1, 1),
        (60, -1, 1, 60),
    ],
)
def test_best_slab_equals_the_exhaustive_scan_on_plateaus_and_degenerate_h(h):
    assert _best_slab(h) == best_slab_by_scan(h)


@pytest.mark.parametrize(
    "h",
    [(312, 557, 131), (1000,), (250, -250, 250, -250), (499, 501), (3, -2, 4, 1, 2, 5), (7, 7)],
)
def test_best_slab_evaluates_at_most_two_volumes(h, monkeypatch):
    calls = []

    def counting_ie_sum(sums, t, power):
        calls.append(t)
        return ie_sum(sums, t, power)

    ie_sum = discrepancy._ie_sum
    monkeypatch.setattr(discrepancy, "_ie_sum", counting_ie_sum)
    best = _best_slab(h)
    monkeypatch.undo()
    top = max(map(abs, h))
    if top > sum(map(abs, h)) - top:  # the flat top of the density: closed form
        assert calls == []
    else:  # two inclusion-exclusion sums per slab volume
        assert len(calls) <= 4
    assert best == best_slab_by_scan(h)


def test_best_slab_raises_when_its_slab_is_not_strictly_first(monkeypatch):
    # a flat volume ties slab j_c with slab j_c - 1, which the certificate rejects
    monkeypatch.setattr(discrepancy, "_ie_sum", lambda sums, t, power: t)
    with pytest.raises(AssertionError, match="not the first largest"):
        _best_slab((3, 3, 3, 3))


@pytest.mark.parametrize("lat", CORPUS_LATTICES, ids=[f"ps{i}" for i in range(len(CORPUS_LATTICES))])
def test_isotropic_lower_bound_returns_only_certified_witnesses(lat):
    best, witnesses = isotropic_lower_bound(lat)
    assert {w.family for w in witnesses} == {"dual-slab"}
    assert all(w.certified for w in witnesses)
    assert [w.dual_slab[0] for w in witnesses] == shortest_dual_vectors(lat, 10)
    assert best.local_value_exact == max(w.local_value_exact for w in witnesses)


# ---------------------------------------------------------------------------
# Point-free witnesses: emptiness comes from h in L^perp, not from a count
# ---------------------------------------------------------------------------

def test_thm1_is_point_free(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the thm1 path enumerated or counted points")

    for module in (lattice, harness, distance, cli):
        monkeypatch.setattr(module, "enumerate_points", refuse)
    monkeypatch.setattr(sys.modules[__name__], "count_points_slab", refuse)
    assert not hasattr(discrepancy, "enumerate_points")
    assert not hasattr(discrepancy, "count_points_slab")
    c = Campaign(checks=("spectral-exact", "thm1"))
    spec = tmp_path / "lat.txt"
    # fib-k40 has N = 102,334,155 points, far past enumeration
    for k in (12, 40):
        n, g = fibonacci_generator(k)
        lat = fibonacci_lattice(k)
        assert lat.n_points == n
        assert verify_thm1(lat).verdict == "PASS"
        rows = run_lattice_task(c, f"fib-k{k}", n, g)["rows"]
        assert [r["check"] for r in rows][-2:] == ["thm1", "thm1-slab-floor"]
        assert {r["verdict"] for r in rows} == {"PASS"}
        spec.write_text(f"2 {n}\nrank1: {g[0]} {g[1]}\n")
        assert cli.main(["isodisc", str(spec)]) == 0
        assert '"verdict": "PASS"' in capsys.readouterr().out


def test_isodisc_takes_dual_vectors_longer_than_the_inverse_shrink(tmp_path, capsys):
    # in d = 1 the tenth shortest dual vector is 10N = 1e9: a Euclidean 1e-9
    # shrink would leave no slab, the shrink of 1e-9 in units of h.x does
    spec = tmp_path / "lat.txt"
    spec.write_text("1 100000000\nrank1: 1\n")
    assert cli.main(["isodisc", str(spec)]) == 0
    assert '"verdict": "PASS"' in capsys.readouterr().out
    w = slab_witness(rank1_lattice(10**8, (1,)), (10**9,))
    assert w.local_value_exact == (1 - 2 * SLAB_EPS) / 10**9


def test_every_witness_slab_of_the_enumerable_corpus_holds_no_point():
    corpus = [(i, rank1_lattice(n, g)) for i, n, g in builtin_corpus(CorpusSpec(), 20200817)]
    enumerable = [(i, lat) for i, lat in corpus if lat.dim <= 4 and lat.n_points <= 1024]
    assert len(enumerable) > 150
    for lattice_id, lat in enumerable:
        ps = enumerate_points(lat)
        for w in isotropic_lower_bound(lat)[1]:
            h, k = w.dual_slab
            lo, hi = k + SLAB_EPS, k + 1 - SLAB_EPS
            assert count_points_slab(ps, h, lo, hi) == 0, (lattice_id, h, k)
