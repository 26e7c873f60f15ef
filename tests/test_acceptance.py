"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Campaign-backed criteria share module-scoped fixtures so each campaign
runs once. Runtime limits are asserted where the criterion states one.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from latdisc.convex import Ball, kappa, offset_volumes, unit_cube
from latdisc.discrepancy import verify_thm1
from latdisc.distance import (
    covering_radius,
    distance_norms,
    proxy_spec,
)
from latdisc.harness import (
    Budgets,
    Campaign,
    CorpusSpec,
    brute_force_min_dual_norm_sq,
    builtin_corpus,
    run_campaign,
    write_artifacts,
)
from latdisc.lattice import enumerate_points, rank1_lattice
from latdisc.reduction import spectral_test

SEED = 20200817


def announce(capsys, text):
    with capsys.disabled():
        print(text)


@pytest.fixture(scope="module")
def body_campaign():
    """Criteria 3-5: lemma and Steiner checks over the full body corpus."""
    c = Campaign(
        checks=("lemma1", "lemma2", "lemma3", "corollary1", "steiner"),
        budgets=Budgets(),
        seed=SEED,
    )
    t0 = time.monotonic()
    res = run_campaign(c)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def thm1_campaign():
    c = Campaign(checks=("thm1",), budgets=Budgets(), seed=SEED)
    t0 = time.monotonic()
    res = run_campaign(c)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def prop1_campaign():
    c = Campaign(checks=("prop1",), budgets=Budgets(), seed=SEED)
    t0 = time.monotonic()
    res = run_campaign(c)
    return res, time.monotonic() - t0


def _rows(result, check):
    return [r for r in result.rows if r["check"] == check]


def test_criterion_1_spectral_exactness(capsys):
    t0 = time.monotonic()
    checked = 0
    for ident, n, g in builtin_corpus(CorpusSpec(), SEED):
        lat = rank1_lattice(n, g)
        if lat.dim > 3 or lat.n_points > 4096:
            continue
        rep = spectral_test(lat)
        oracle = brute_force_min_dual_norm_sq(n, g)
        assert rep.dual_norm_sq == oracle, (ident, rep.dual_norm_sq, oracle)
        checked += 1
    # named closed-form members
    assert spectral_test(rank1_lattice(5, (1, 2))).dual_norm_sq == 5
    for n in (4, 64, 1000):
        rep = spectral_test(rank1_lattice(n, (1,)))
        assert rep.dual_norm_sq == n * n  # sigma = 1/N exactly
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 min"
    announce(
        capsys,
        f"[criterion 1] PASS - sigma exact vs brute-force dual oracle on "
        f"{checked} corpus lattices (d<=3, N<=4096) in {elapsed:.1f}s",
    )


def test_criterion_2_theorem1(capsys, thm1_campaign):
    res, elapsed = thm1_campaign
    thm1 = _rows(res, "thm1")
    floors = _rows(res, "thm1-slab-floor")
    assert len(thm1) == len(builtin_corpus(CorpusSpec(), SEED))
    bad = [r for r in thm1 + floors if r["verdict"] == "FAIL"]
    assert bad == [], bad
    for r in thm1:
        assert r["lhs"] <= r["rhs"] + 1e-15  # j_lower <= min(1, d 2^(2(d+1)) sigma)
    for r in floors:
        assert r["rhs"] > 0  # slab witness value strictly positive
    announce(
        capsys,
        f"[criterion 2] PASS - Theorem 1 bound respected with 0 FAIL on "
        f"{len(thm1)} lattices; slab floors positive ({elapsed:.1f}s)",
    )


def test_criterion_3_lemma2_lemma3(capsys, body_campaign):
    res, elapsed = body_campaign
    l2, l3 = _rows(res, "lemma2"), _rows(res, "lemma3")
    assert len(l2) == 3 * 50 * 3  # dims x bodies x rhos
    assert len(l3) == 3 * 50 * 3
    bad = [r for r in l2 + l3 if r["verdict"] == "FAIL"]
    assert bad == [], bad
    # cube outer offset at d=2, rho=0.1 equals the Steiner sum exactly
    est = offset_volumes(unit_cube(2), [0.1], "outer")[0]
    expected = sum(math.comb(2, j) * kappa(j) * 0.1**j for j in (1, 2))
    assert abs(est - expected) <= 1e-12
    assert abs(est - 0.4314159265358979) <= 1e-12
    assert elapsed < 600, f"criterion 3 runtime {elapsed:.1f}s exceeds 10 min"
    announce(
        capsys,
        f"[criterion 3] PASS - Lemma 2/3 hold on 450 body-rho cases "
        f"(cube case exact to 1e-12) in {elapsed:.1f}s",
    )


def _campaign_sha256(campaign, tmp_path):
    res, _ = campaign
    write_artifacts(res, tmp_path)
    return hashlib.sha256((tmp_path / "campaign.json").read_bytes()).hexdigest()


def test_body_campaign_json_is_byte_identical_to_the_recorded_one(body_campaign, tmp_path):
    # sha256 of the campaign.json recorded when face contents came from the
    # cone recursion instead of one qhull hull per face; that moved the last
    # bits of some lemma2, lemma3 and corollary1 values, and nothing may move since
    digest = _campaign_sha256(body_campaign, tmp_path)
    assert digest == "3f2dd1650095dc84af38505bd2ce0e800a1abf670858f4ea1e33969c11fb77a8"


def test_thm1_campaign_json_is_byte_identical_to_the_recorded_one(thm1_campaign, tmp_path):
    # sha256 of the campaign.json recorded when the first largest slab was
    # still found by binary search over the slab volumes
    digest = _campaign_sha256(thm1_campaign, tmp_path)
    assert digest == "a54aa9c59c8534ed51d0c151535039c08333a695a2fe80289760a115a32f0ae4"


def test_prop1_campaign_json_is_byte_identical_to_the_recorded_one(prop1_campaign, tmp_path):
    # sha256 of the campaign.json recorded when the covering radius still
    # pushed its children one numpy scalar at a time and gamma = 1 took powers
    digest = _campaign_sha256(prop1_campaign, tmp_path)
    assert digest == "5929d115a6fed568ac80733995e1ac311fc818ffae382190dd14e4761fc72a3c"


def test_criterion_4_corollary1(capsys, body_campaign):
    res, elapsed = body_campaign
    rows = _rows(res, "corollary1")
    assert len(rows) == 3 * 50 * 3
    bad = [r for r in rows if r["verdict"] == "FAIL"]
    assert bad == [], bad
    announce(
        capsys,
        f"[criterion 4] PASS - exact boundary neighborhood <= d 2^(d+4) rho "
        f"on {len(rows)} body-rho cases",
    )


def test_criterion_5_steiner_identity_and_lemma1(capsys, body_campaign):
    res, _ = body_campaign
    steiner = _rows(res, "steiner")
    lemma1 = _rows(res, "lemma1")
    assert steiner and lemma1
    bad = [r for r in steiner + lemma1 if r["verdict"] == "FAIL"]
    assert bad == [], bad
    # direct closed-form checks for named cube and ball bodies
    for body in (unit_cube(2), unit_cube(3), Ball([0.5, 0.5], 0.3)):
        from latdisc.convex import parallel_volume_derivative_check, steiner_volume

        rho = 0.1
        outer = offset_volumes(body, [rho], "outer")[0]
        ident = abs(outer - (steiner_volume(body, rho) - body.volume()))
        assert ident <= 1e-12
        fd, analytic = parallel_volume_derivative_check(body, rho, 1e-3)
        assert abs(fd - analytic) <= 1e-3
    announce(
        capsys,
        f"[criterion 5] PASS - Minkowski identity to 1e-12 "
        f"({len(steiner)} rows) and derivative checks within 1e-3 "
        f"({len(lemma1)} rows)",
    )


def test_criterion_6_remark_sandwich(capsys):
    from latdisc.convex import binom_kappa_sum, remark_lower, remark_upper

    t0 = time.monotonic()
    s2 = math.exp(binom_kappa_sum(2))
    assert abs(s2 - (4 + math.pi)) <= 1e-10
    recorded = []
    for d in (10, 100, 1000, 10**4, 10**5):
        log_sum = binom_kappa_sum(d)
        assert remark_lower(d, 0.3) <= log_sum, d
        recorded.append((d, log_sum, remark_upper(d, 5.1)))
        if d >= 1000:
            assert log_sum / d ** (2 / 3) <= 5.1 * math.log(
                d * math.sqrt(2 * math.e**3 * math.pi)
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 6 runtime {elapsed:.1f}s is not 'seconds'"
    announce(
        capsys,
        f"[criterion 6] PASS - sandwich holds for d up to 1e5; S(2)=4+pi to "
        f"1e-10; upper bound RECORDED for {len(recorded)} dims ({elapsed:.2f}s)",
    )


def test_criterion_7_proposition1(capsys, prop1_campaign):
    res, elapsed = prop1_campaign
    vol_a = _rows(res, "prop1-volA")
    lower = [r for r in res.rows if r["check"].startswith("prop1-lower-g")]
    widths = _rows(res, "prop1-covering-width")
    assert len(vol_a) == len(builtin_corpus(CorpusSpec(), SEED))
    bad = [r for r in vol_a + lower + widths if r["verdict"] == "FAIL"]
    assert bad == [], bad[:5]
    # the lower bounds are certified in every dimension
    assert all(r["verdict"] == "PASS" for r in lower)
    gammas = {r["check"].removeprefix("prop1-lower-g") for r in lower}
    assert gammas == {"0.5", "1", "2", "inf"}
    # corpus-level norm_inf / sigma ratios: recorded, assert only positive
    # and finite (the companion upper constant is unknown)
    ratios = _rows(res, "prop1-ratio-inf")
    assert ratios and all(0 < r["lhs"] < math.inf for r in ratios)

    # equispaced d=1 closed form reproduced to 1e-10
    for n in (4, 64):
        ps = enumerate_points(rank1_lattice(n, (1,)))
        rep = distance_norms(ps, [1.0])[1.0]
        assert abs(rep.value - (n + 1) / (4 * n * n)) <= 1e-10

    # covering-radius width <= 1e-4 for every d=2 member (campaign rows), and
    # dense-grid oracle consistency on a fixed sample
    d2_widths = [r for r in widths if r["subject"].startswith(("fib", "rank1-d2", "zd-d2", "bad"))]
    assert d2_widths and all(r["lhs"] <= 1e-4 * (1 + 1e-6) for r in d2_widths)
    sample = ["fib-k10", "rank1-d2-n64-i00", "rank1-d2-n1024-i01", "zd-d2", "bad-axis-d2"]
    corpus = {ident: (n, g) for ident, n, g in builtin_corpus(CorpusSpec(), SEED)}
    grid = np.linspace(0.0, 1.0, 2001)
    xx, yy = np.meshgrid(grid, grid)
    mesh = np.c_[xx.ravel(), yy.ravel()]
    slack = math.sqrt(2) / (2 * 2000)
    for ident in sample:
        n, g = corpus[ident]
        ps = enumerate_points(rank1_lattice(n, g))
        cr = covering_radius(ps, tol=1e-4)
        assert cr.converged and cr.upper - cr.lower <= 1e-4
        oracle = float(cKDTree(ps.as_array()).query(mesh)[0].max())
        assert cr.lower <= oracle + slack and oracle <= cr.upper + 1e-12, ident
    assert elapsed < 600, f"criterion 7 runtime {elapsed:.1f}s exceeds 10 min"
    announce(
        capsys,
        f"[criterion 7] PASS - Vol(A_td) >= 1/2 exactly and certified lower "
        f"bounds (PASS) hold for gamma in {{1/2,1,2,inf}} on "
        f"{len(vol_a)} lattices; equispaced closed form to 1e-10; d=2 covering "
        f"widths <= 1e-4 ({elapsed:.1f}s)",
    )


def test_criterion_8_theorem2_diagnostic(capsys):
    # exact gamma/exponent derivations for the three triples and rational p,q
    cases = [
        ((2, 2, math.inf, 2), math.inf, Fraction(1)),
        ((3, math.inf, 1, 2), Fraction(3), Fraction(3)),
        ((2, 2, 1, 3), Fraction(4), Fraction(2)),
        ((3, Fraction(3, 2), Fraction(6, 5), 2), Fraction(18), Fraction(3)),
        ((4, Fraction(4, 3), 2, 3), math.inf, Fraction(13, 4)),
        ((5, Fraction(5, 2), Fraction(5, 3), 4), Fraction(25), Fraction(5)),
    ]
    for (s, p, q, d), gamma, exponent in cases:
        sp = proxy_spec(s, p, q, d)
        assert sp.gamma == gamma and sp.exponent == exponent, (s, p, q, d)

    t0 = time.monotonic()
    c = Campaign(checks=("thm2-diagnostic",), budgets=Budgets(), seed=SEED)
    res = run_campaign(c)
    elapsed = time.monotonic() - t0
    windows = [r for r in res.rows if r["check"].startswith("thm2-window")]
    assert len(windows) == 4  # sigma window + three triples
    bad = [r for r in windows if r["verdict"] == "FAIL"]
    assert bad == [], bad
    for r in windows:
        assert r["lhs"] <= 10.0
    assert len(res.tables["thm2"]) == 16 * 3
    announce(
        capsys,
        f"[criterion 8] PASS - proxy and sigma windows jointly bounded "
        f"(max/min ratios {[round(r['lhs'], 2) for r in windows]} <= 10) "
        f"over Fibonacci k=5..20 ({elapsed:.1f}s)",
    )


def test_criterion_9_determinism(capsys, tmp_path):
    corpus = CorpusSpec(
        fibonacci_k=(5, 8),
        rank1_dims=(2, 3),
        rank1_sizes=(64,),
        rank1_per_cell=2,
        zd_dims=(2,),
    )
    budgets = Budgets(
        body_count=3,
        body_dims=(2, 3),
        body_mc_samples=10**5,
        norm_mc_samples=20_000,
        remark_dims=(10, 100, 1000),
    )
    out = tmp_path / "artifacts"
    c = Campaign(corpus=corpus, budgets=budgets, seed=SEED, out_dir=str(out))
    t0 = time.monotonic()
    run_campaign(c, workers=1)
    one = (out / "campaign.json").read_bytes()
    run_campaign(c, workers=8)
    eight = (out / "campaign.json").read_bytes()
    elapsed = time.monotonic() - t0
    assert one == eight
    assert json.loads(one)["summary"].get("FAIL", 0) == 0
    announce(
        capsys,
        f"[criterion 9] PASS - campaign JSON byte-identical at 1 vs 8 workers "
        f"({len(one)} bytes, {elapsed:.1f}s)",
    )
