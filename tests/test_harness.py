import hashlib
import json
import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latdisc import harness
from latdisc.harness import (
    ALL_CHECKS,
    Budgets,
    Campaign,
    CorpusSpec,
    brute_force_min_dual_norm_sq,
    builtin_corpus,
    run_campaign,
    verdict_for,
    write_artifacts,
)
from latdisc import distance
from latdisc.distance import distance_norms, proxy_spec, verify_prop1
from latdisc.lattice import enumerate_points, fibonacci_lattice, rank1_lattice
from latdisc.reduction import spectral_test


SMALL_CORPUS = CorpusSpec(
    fibonacci_k=(5, 7),
    rank1_dims=(2,),
    rank1_sizes=(64,),
    rank1_per_cell=2,
    zd_dims=(2,),
    include_bad_lattice=True,
)
SMALL_BUDGETS = Budgets(
    body_count=3,
    body_dims=(2,),
    body_mc_samples=50_000,
    norm_mc_samples=20_000,
    remark_dims=(10, 100, 1000),
    thm2_triples=((2, 2, math.inf),),
)


def small_campaign(**kw):
    base = dict(corpus=SMALL_CORPUS, budgets=SMALL_BUDGETS, seed=11)
    base.update(kw)
    return Campaign(**base)


def test_verdict_grammar():
    assert verdict_for(1.0, 2.0) == "PASS"
    assert verdict_for(2.0, 2.0) == "PASS"
    assert verdict_for(2.2, 2.0) == "FAIL"


def test_builtin_corpus_structure():
    entries = builtin_corpus(CorpusSpec(), seed=1)
    ids = [e[0] for e in entries]
    assert ids[0] == "fib-k05"
    assert "zd-d2" in ids and "bad-axis-d2" in ids
    assert sum(1 for i in ids if i.startswith("rank1-")) == 3 * 4 * 20
    assert len(ids) == len(set(ids))
    # deterministic regeneration
    assert builtin_corpus(CorpusSpec(), seed=1) == entries
    # fibonacci members really are Fibonacci lattices
    fib = next(e for e in entries if e[0] == "fib-k10")
    assert fib[1] == 55 and fib[2] == (1, 34)


def test_corpus_generators_coprime():
    for _, n, g in builtin_corpus(SMALL_CORPUS, seed=3):
        if any(g):
            assert math.gcd(n, *g) == 1


def test_brute_force_oracle_agrees_with_enumeration():
    for _, n, g in builtin_corpus(SMALL_CORPUS, seed=5)[:8]:
        rep = spectral_test(rank1_lattice(n, g))
        assert rep.dual_norm_sq == brute_force_min_dual_norm_sq(n, g)


def test_body_only_campaign_builds_no_lattice_corpus(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a body-only campaign built the lattice corpus")

    monkeypatch.setattr(harness, "builtin_corpus", refuse)
    c = Campaign(
        checks=("lemma1", "lemma2", "lemma3", "corollary1", "steiner"),
        budgets=Budgets(body_count=2, body_dims=(2, 3)),
    )
    res = run_campaign(c)
    assert res.summary == {"PASS": 60}
    write_artifacts(res, tmp_path)
    # the campaign.json recorded when ball volumes came to be summed from the
    # Steiner polynomial; building the lattice corpus or not leaves it the same
    digest = hashlib.sha256((tmp_path / "campaign.json").read_bytes()).hexdigest()
    assert digest == "b13b8a3fb20205de363c052a36b0abaf09a4794b60fe16e927bc51bd6366ea70"


def test_small_campaign_no_failures():
    res = run_campaign(small_campaign())
    assert res.n_failures == 0
    assert res.summary["PASS"] > 0
    assert "RECORDED" in res.summary


def test_prop1_volb_row_reads_the_reports_bound():
    res = run_campaign(small_campaign(checks=("prop1",)))
    rows = {r["subject"]: r for r in res.rows if r["check"] == "prop1-volB-bound"}
    entries = builtin_corpus(SMALL_CORPUS, 11)
    assert sorted(rows) == sorted(ident for ident, _, _ in entries)
    for ident, n, g in entries:
        p1 = verify_prop1(rank1_lattice(n, g), gammas=(), norm_reports={})
        assert rows[ident]["rhs"] == p1.vol_b_bound
        assert p1.vol_b_bound_ok == (rows[ident]["verdict"] == "PASS")


def test_campaign_worker_determinism(tmp_path):
    c1 = small_campaign(out_dir=str(tmp_path / "w1"))
    c8 = small_campaign(out_dir=str(tmp_path / "w8"))
    run_campaign(c1, workers=1)
    run_campaign(c8, workers=8)
    b1 = (tmp_path / "w1" / "campaign.json").read_bytes()
    b8 = (tmp_path / "w8" / "campaign.json").read_bytes()
    # out_dir is the only allowed difference between the two payloads
    j1 = json.loads(b1)
    j8 = json.loads(b8)
    j1["campaign"]["out_dir"] = j8["campaign"]["out_dir"] = None
    assert json.dumps(j1, sort_keys=True) == json.dumps(j8, sort_keys=True)


def test_campaign_rerun_byte_identical(tmp_path):
    out = tmp_path / "a"
    c = small_campaign(out_dir=str(out))
    run_campaign(c, workers=1)
    first = (out / "campaign.json").read_bytes()
    run_campaign(c, workers=1)
    assert (out / "campaign.json").read_bytes() == first


def test_corrupted_bound_self_test():
    c = small_campaign(
        checks=("lemma3",), corrupt_check="lemma3", corrupt_rhs_scale=1e-6
    )
    res = run_campaign(c)
    assert res.summary.get("FAIL", 0) >= 1
    assert all(r["check"] == "lemma3" for r in res.rows if r["verdict"] == "FAIL")
    # and without corruption the same campaign passes
    clean = run_campaign(small_campaign(checks=("lemma3",)))
    assert clean.n_failures == 0


def test_artifact_tables(tmp_path):
    res = run_campaign(small_campaign(checks=("thm1", "prop1", "remark", "thm2-diagnostic")))
    paths = write_artifacts(res, tmp_path)
    names = {p.name for p in paths}
    assert {"campaign.json", "checks.csv", "thm1.csv", "prop1.csv", "remark.csv", "thm2.csv"} <= names
    checks = (tmp_path / "checks.csv").read_text().splitlines()
    assert checks[0] == "check,subject,lhs,rhs,verdict"
    assert len(checks) == 1 + len(res.rows)
    thm1 = (tmp_path / "thm1.csv").read_text().splitlines()
    assert thm1[0] == "id,d,N,sigma,j_lower,bound,verdict"
    assert len(thm1) == 1 + len(res.tables["thm1"])
    prop1 = (tmp_path / "prop1.csv").read_text().splitlines()
    assert prop1[0] == "id,gamma,norm,lower_bound,ratio"
    remark = (tmp_path / "remark.csv").read_text().splitlines()
    assert remark[0] == "d,log_sum,log_lower,log_upper"


def test_campaign_json_is_strict_json_when_inf_is_not_a_prop1_gamma(tmp_path):
    def refuse(constant):
        raise ValueError(f"campaign.json holds {constant}")

    c = Campaign.from_json_dict({
        "corpus": {"fibonacci_k": [5, 5], "rank1_per_cell": 0, "zd_dims": [],
                   "include_bad_lattice": False},
        "checks": ["prop1"],
        "budgets": {"prop1_gammas": [1]},
        "out_dir": str(tmp_path),
    })
    run_campaign(c)
    data = json.loads((tmp_path / "campaign.json").read_text(), parse_constant=refuse)
    checks = [r["check"] for r in data["rows"]]
    assert checks == ["prop1-volA", "prop1-volB-bound", "prop1-lower-g1"]


def test_write_artifacts_refuses_a_nan_and_writes_no_campaign_json(tmp_path):
    row = harness._row("lemma2", "ball-d2-i00-rho0.1", math.nan, 1.0, harness.RECORDED)
    result = harness.CampaignResult(small_campaign(), [row], {}, {harness.RECORDED: 1})
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_artifacts(result, tmp_path)
    assert not (tmp_path / "campaign.json").exists()


def test_campaign_json_roundtrip():
    c = small_campaign(out_dir="x")
    back = Campaign.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert back.corpus == c.corpus
    assert back.budgets == c.budgets
    assert back.seed == c.seed
    assert back.checks == c.checks


def _distinct(elements, label=str, **kw):
    """Lists of `elements` whose entries print apart, as the spec requires."""
    return st.lists(elements, unique_by=label, **kw).map(tuple)


_g = "{:g}".format  # how subjects print rhos and gammas

# valid specs, with integer-valued entries as ints, as a spec file may write them
_TOL = st.one_of(st.integers(1, 3), st.floats(1e-9, 1.0))
CORPUS_SPECS = st.builds(
    CorpusSpec,
    fibonacci_k=st.tuples(st.integers(3, 12), st.integers(3, 12)),
    rank1_dims=_distinct(st.integers(1, 12), max_size=3),
    rank1_sizes=_distinct(st.integers(2, 10**6), max_size=3),
    rank1_per_cell=st.integers(0, 30),
    zd_dims=_distinct(st.integers(1, 12), max_size=3),
    include_bad_lattice=st.booleans(),
)
BUDGETS = st.builds(
    Budgets,
    body_count=st.integers(0, 10**6),
    body_dims=_distinct(st.integers(2, 4)),
    body_mc_samples=st.integers(),
    rhos=_distinct(st.one_of(st.sampled_from([0, 1]), st.floats(0, 1)), _g, max_size=4),
    norm_mc_samples=st.integers(),
    prop1_gammas=_distinct(
        st.one_of(st.integers(1, 5), st.floats(1e-6, 1e6), st.just(math.inf)), _g, max_size=4
    ),
    # every dimension a lattice check accepts has a tolerance
    covering_tols=st.dictionaries(st.integers(1, 12), _TOL, min_size=12, max_size=12),
    remark_dims=_distinct(st.integers(1, 10**6), max_size=4),
    remark_delta=st.floats(1e-6, 0.66),
    remark_kappa=st.one_of(st.integers(6, 9), st.floats(5.1, 1e6)),
    # s >= 3 and p, q >= 1 give a proxy in d = 2 for any p and q
    thm2_triples=_distinct(
        st.tuples(
            st.integers(3, 6),
            *[st.one_of(st.integers(1, 4), st.floats(1, 1e3), st.just(math.inf))] * 2,
        ),
        lambda t: f"s{t[0]}-p{t[1]}-q{t[2]}",
        min_size=1,
        max_size=3,
    ),
)
CAMPAIGNS = st.builds(
    Campaign,
    corpus=CORPUS_SPECS.filter(lambda c: c.fibonacci_k[0] <= c.fibonacci_k[1]),
    checks=st.lists(st.sampled_from(ALL_CHECKS), min_size=1, max_size=4).map(tuple),
    budgets=BUDGETS,
    seed=st.integers(-(2**70), 2**70),
    out_dir=st.one_of(st.none(), st.sampled_from(["out", "inf", "1"])),
    corrupt_check=st.one_of(st.none(), st.sampled_from(ALL_CHECKS)),
    corrupt_rhs_scale=st.one_of(st.integers(-3, 3), st.floats(-1e6, 1e6)),
)


@settings(max_examples=200, deadline=None)
@given(CAMPAIGNS)
@example(Campaign(  # integer-valued entries once loaded as floats, and "inf" is a path here
    budgets=Budgets(prop1_gammas=(1, 2), covering_tols={1: 1, 2: 2, 3: 1e-2, 4: 5e-2}),
    corrupt_check="thm1",
    corrupt_rhs_scale=2,
    out_dir="inf",
))
def test_campaign_spec_load_inverts_dump(c):
    text = json.dumps(c.to_json_dict())
    back = Campaign.from_json_dict(json.loads(text))
    assert back == c
    assert json.dumps(back.to_json_dict()) == text


def test_a_campaign_rerun_from_its_own_campaign_json_writes_the_same_bytes(tmp_path):
    corpus = CorpusSpec(
        fibonacci_k=(5, 6), rank1_per_cell=0, zd_dims=(), include_bad_lattice=False
    )
    budgets = Budgets(
        prop1_gammas=(1, 2, math.inf),
        covering_tols={2: 1e-4},
        remark_dims=(10, 100),
        remark_kappa=6,
        thm2_triples=((2, 2, math.inf), (3, math.inf, 1)),
    )
    first = Campaign(
        corpus=corpus,
        checks=("prop1", "remark", "thm2-diagnostic"),
        budgets=budgets,
        corrupt_check="prop1-volA",
        corrupt_rhs_scale=2,
    )
    write_artifacts(run_campaign(first), tmp_path / "first")
    spec = json.loads((tmp_path / "first" / "campaign.json").read_text())["campaign"]
    rerun = Campaign.from_json_dict(spec)
    assert rerun == first
    write_artifacts(run_campaign(rerun), tmp_path / "rerun")
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "rerun").iterdir())
    for name in names:
        assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


def test_all_checks_cover_spec_names():
    for name in ("thm1", "prop1", "lemma3", "corollary1", "remark", "thm2-diagnostic"):
        assert name in ALL_CHECKS


def test_tasks_run_through_the_module_names(monkeypatch):
    # the benchmark's tracer (perfbench/spans.py) times every task by
    # rebinding these names on the module, so a task must call them there
    calls = Counter()
    for name in ("run_lattice_task", "run_body_task", "run_thm2_task"):
        def counted(*args, real=getattr(harness, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(harness, name, counted)
    run_campaign(small_campaign(checks=("spectral-exact", "lemma2", "thm2-diagnostic")))
    assert calls == {
        "run_lattice_task": len(builtin_corpus(SMALL_CORPUS, 11)),
        "run_body_task": SMALL_BUDGETS.body_count * len(SMALL_BUDGETS.body_dims),
        "run_thm2_task": 1,
    }


@pytest.mark.parametrize("k", [(2, 9), (5,), 5, (3.0, 9)])
def test_bad_fibonacci_k_names_the_field(k):
    with pytest.raises(ValueError, match=rf"corpus\.fibonacci_k .* got {re.escape(repr(k))}$"):
        CorpusSpec(fibonacci_k=k)


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("corpus", "rank1_dims", [2, 2.5]),
        ("corpus", "rank1_sizes", [1]),
        ("corpus", "rank1_per_cell", True),
        ("corpus", "zd_dims", 3),
        ("corpus", "include_bad_lattice", "yes"),
        ("budgets", "rhos", 0),
        ("budgets", "body_count", 2.0),
        ("budgets", "body_dims", ["2"]),
        ("budgets", "body_mc_samples", None),
        ("budgets", "rhos", [1.5]),
        ("budgets", "norm_mc_samples", "many"),
        ("budgets", "prop1_gammas", [1, "2"]),
        ("budgets", "covering_tols", {"two": 1e-4}),
        ("budgets", "remark_dims", [10, None]),
        ("budgets", "remark_delta", "0.3"),
        ("budgets", "remark_kappa", [5.1]),
        ("budgets", "thm2_triples", [[2, 2]]),
        (None, "checks", ["thm"]),
        (None, "checks", "thm1"),
        (None, "checks", []),
        (None, "checks", 3),
        (None, "seed", "4"),
        (None, "out_dir", 3),
        (None, "corrupt_rhs_scale", "2"),
        (None, "corpus", None),
        (None, "budgets", [1]),
        ("budgets", "covering_tols", {"2": "inf"}),
        (None, "corrupt_rhs_scale", "inf"),
        ("budgets", "remark_kappa", math.nan),
        ("budgets", "prop1_gammas", [10**400]),  # no float holds it
        ("budgets", "covering_tols", {"0": 1e-4}),
        ("budgets", "thm2_triples", [[2, math.nan, 1]]),
        ("budgets", "thm2_triples", [[2, 2, -math.inf]]),
        pytest.param("budgets", "remark_kappa", 10**400, id="budgets-remark_kappa-huge"),
        pytest.param(None, "corrupt_rhs_scale", -(10**400), id="None-corrupt_rhs_scale-huge"),
    ],
)
def test_campaign_from_json_dict_names_a_field_of_the_wrong_type(section, key, value):
    data = small_campaign().to_json_dict()
    (data[section] if section else data)[key] = value
    name = f"{section}.{key}" if section else key
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        Campaign.from_json_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("body_dims", (1,)),  # run_body_task's polytopes need d >= 2
        ("body_dims", (2, 5)),  # their outer parallel volumes need d <= 4
        ("remark_delta", 0.7),  # remark_lower needs delta in (0, 2/3)
        ("remark_delta", 0),
        ("remark_kappa", 4.0),  # remark_upper needs kappa > e (2 pi)^(1/3) ~ 5.015
    ],
)
def test_a_budget_its_task_would_refuse_fails_at_load(key, value):
    with pytest.raises(ValueError, match=rf"^budgets\.{key} must be .*, got {re.escape(repr(value))}$"):
        Budgets(**{key: value})
    data = small_campaign().to_json_dict()
    data["budgets"][key] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ValueError, match=rf"^budgets\.{key} must be "):
        Campaign.from_json_dict(data)
    # the edges that the tasks accept still load
    Budgets(body_dims=(2, 3, 4), remark_delta=0.66, remark_kappa=5.02)


@pytest.mark.parametrize(
    "section, key, value, entry, label",
    [
        ("corpus", "rank1_dims", [2, 2], "2", "2"),  # two lattices named rank1-d2-n64-i00
        ("corpus", "rank1_sizes", [64, 256, 64], "64", "64"),
        ("corpus", "zd_dims", [3, 2, 3], "3", "3"),
        ("budgets", "body_dims", [2, 3, 2], "2", "2"),
        ("budgets", "rhos", [0.05, 0.1, 0.10000001], "0.10000001", "0.1"),  # same -rho0.1
        ("budgets", "prop1_gammas", [1, 1.0, "inf"], "1.0", "1"),  # prop1-lower-g1 twice
        ("budgets", "prop1_gammas", ["inf", 2, "inf"], "inf", "inf"),
        ("budgets", "remark_dims", [10, 100, 10], "10", "10"),
        # two thm2 rows per Fibonacci lattice, and each value read twice by the window
        ("budgets", "thm2_triples", [[2, 2, "inf"], [2, 2, "inf"]], "(2, 2, inf)", "s2-p2-qinf"),
    ],
    ids=[
        "rank1_dims", "rank1_sizes", "zd_dims", "body_dims", "rhos",
        "prop1_gammas", "prop1_gammas_inf", "remark_dims", "thm2_triples",
    ],
)
def test_an_entry_that_repeats_a_subject_fails_at_load(section, key, value, entry, label):
    data = small_campaign().to_json_dict()
    data[section][key] = value
    message = rf"^{section}\.{key} entry {re.escape(entry)} prints as '{re.escape(label)}', "
    with pytest.raises(ValueError, match=message + "as the earlier entry"):
        Campaign.from_json_dict(data)
    # entries that print apart still load: integers print in full, not with :g
    Budgets(remark_dims=(10**6, 10**6 + 1), rhos=(0.1, 0.1001), prop1_gammas=(1, 1.5))
    Budgets(thm2_triples=((2, 2, math.inf), (2, math.inf, 2), (3, 2, math.inf)))


def test_campaign_spec_must_be_an_object():
    with pytest.raises(ValueError, match=r"^campaign must be an object, got \[\]$"):
        Campaign.from_json_dict([])


def test_run_campaign_needs_a_worker():
    with pytest.raises(ValueError, match="workers must be at least 1, got 0"):
        run_campaign(small_campaign(), workers=0)


@pytest.mark.parametrize(
    "section,key",
    [("corpus", "fibonaci_k"), ("budgets", "witness_budgett"), (None, "sead")],
)
def test_campaign_from_json_dict_names_unknown_key(section, key):
    data = small_campaign().to_json_dict()
    (data[section] if section else data)[key] = 1
    with pytest.raises(ValueError, match=key):
        Campaign.from_json_dict(data)


def test_the_deleted_witness_budget_fails_at_load():
    # witness_budget sized the random witness search, which is gone
    data = small_campaign().to_json_dict()
    assert "witness_budget" not in data["budgets"]
    data["budgets"]["witness_budget"] = 3
    with pytest.raises(ValueError, match=r"^unknown budgets key\(s\) in campaign spec: witness_budget$"):
        Campaign.from_json_dict(data)
    with pytest.raises(TypeError, match="witness_budget"):
        Budgets(witness_budget=3)


def test_campaign_spec_with_the_deleted_ball_budget_fails():
    # witness_ball_mc sized the ball witnesses' Monte Carlo, which is gone
    data = small_campaign().to_json_dict()
    assert "witness_ball_mc" not in data["budgets"]
    data["budgets"]["witness_ball_mc"] = 50_000
    with pytest.raises(ValueError, match="unknown budgets key.*witness_ball_mc"):
        Campaign.from_json_dict(data)


THM2_CORPUS = CorpusSpec(
    fibonacci_k=(5, 8),
    rank1_dims=(2, 3),
    rank1_sizes=(64,),
    rank1_per_cell=1,
    zd_dims=(2,),
    include_bad_lattice=False,
)
THM2_BUDGETS = Budgets()  # default triples: gamma inf, 3 and 4


def thm2_campaign(checks):
    return Campaign(corpus=THM2_CORPUS, checks=checks, budgets=THM2_BUDGETS, seed=11)


def thm2_reference(budgets, k_lo, k_hi):
    """The thm2 table and window ratios computed one gamma at a time on each
    fibonacci_lattice(k), independently of the campaign's lattice tasks."""
    table = []
    for k in range(k_lo, k_hi + 1):
        lat = fibonacci_lattice(k)
        ps = enumerate_points(lat)
        sigma, n = spectral_test(lat).sigma, lat.n_points
        for s, p, q in budgets.thm2_triples:
            spec = proxy_spec(s, p, q, 2)
            g = math.inf if spec.gamma == math.inf else float(spec.gamma)
            norm = distance_norms(ps, [g], covering_tol=budgets.covering_tols[2])[g]
            proxy = norm.value ** float(spec.exponent)
            table.append({
                "k": k, "N": n, "sigma": sigma, "triple": f"s{s}-p{p}-q{q}", "proxy": proxy,
                "scaled": proxy * n ** (s / 2 - max(float(spec.inv_p - spec.inv_q), 0.0)),
                "sigma_sqrt_n": sigma * math.sqrt(n),
            })
    windows = {"thm2-window-sigma": [t["sigma_sqrt_n"] for t in table]}
    for t in table:
        windows.setdefault(f"thm2-window-{t['triple']}", []).append(t["scaled"])
    return table, {key: max(v) / min(v) for key, v in windows.items()}


def test_thm2_matches_per_gamma_reference():
    res = run_campaign(thm2_campaign(("thm2-diagnostic",)))
    table, ratios = thm2_reference(THM2_BUDGETS, *THM2_CORPUS.fibonacci_k)
    assert res.tables["thm2"] == table
    checks = [r["check"] for r in res.rows]
    assert checks[0] == "thm2-window-sigma" and checks[1:] == sorted(checks[1:])
    assert {r["check"]: r["lhs"] for r in res.rows} == ratios
    assert {r["subject"] for r in res.rows} == {"fibonacci"}


def test_thm2_rows_do_not_depend_on_prop1():
    alone = run_campaign(thm2_campaign(("thm2-diagnostic",)))
    both = run_campaign(thm2_campaign(("prop1", "thm2-diagnostic")))
    assert both.tables["thm2"] == alone.tables["thm2"]
    n_windows = len(alone.rows)
    assert both.rows[-n_windows:] == alone.rows  # the windows come last
    assert not any(r["check"].startswith("thm2") for r in both.rows[:-n_windows])


@pytest.mark.parametrize("checks", [("prop1", "thm2-diagnostic"), ("thm2-diagnostic",)])
def test_one_distance_pass_per_lattice(monkeypatch, checks):
    real = distance.distance_norms
    calls = []

    def counted(ps, gammas, *, bracketed=None, **kw):
        calls.append((ps.n, tuple(gammas)))
        brackets.append(tuple(bracketed))
        return real(ps, gammas, bracketed=bracketed, **kw)

    brackets = []
    monkeypatch.setattr(distance, "distance_norms", counted)
    run_campaign(thm2_campaign(checks))
    entries = builtin_corpus(THM2_CORPUS, 11)
    fib_n = [n for ident, n, _ in entries if ident.startswith("fib-k")]
    if "prop1" in checks:
        assert [n for n, _ in calls] == [rank1_lattice(n, g).n_points for _, n, g in entries]
        assert all(g == (0.5, 1.0, 2.0, math.inf, 3.0, 4.0) for _, g in calls[: len(fib_n)])
        assert set(brackets) == {(0.5, 1.0, 2.0, math.inf)}  # thm2 reads only values
    else:  # only the Fibonacci members run, on the thm2 gammas alone
        assert calls == [(n, (math.inf, 3.0, 4.0)) for n in fib_n]
        assert set(brackets) == {()}


def test_campaign_json_does_not_depend_on_the_brackets_left_out(monkeypatch, tmp_path):
    # the thm2 gammas' reports carry no bracket, and none reaches campaign.json
    write_artifacts(run_campaign(thm2_campaign(("prop1", "thm2-diagnostic"))), tmp_path / "some")
    real = distance.distance_norms
    monkeypatch.setattr(
        distance, "distance_norms", lambda ps, gammas, bracketed, **kw: real(ps, gammas, **kw)
    )
    write_artifacts(run_campaign(thm2_campaign(("prop1", "thm2-diagnostic"))), tmp_path / "all")
    assert (tmp_path / "some" / "campaign.json").read_bytes() == (
        tmp_path / "all" / "campaign.json"
    ).read_bytes()


def test_thm2_without_triples_names_the_field():
    # the spec fails when it is built, before any lattice task runs
    with pytest.raises(ValueError, match=r"needs a triple in budgets\.thm2_triples$"):
        Campaign(corpus=THM2_CORPUS, checks=("thm2-diagnostic",), budgets=Budgets(thm2_triples=()))


def test_thm2_without_fibonacci_lattices_fails_at_load():
    data = Campaign(checks=("prop1", "thm2-diagnostic")).to_json_dict()
    data["corpus"]["fibonacci_k"] = [10, 5]
    message = r"^thm2-diagnostic needs Fibonacci lattices, but corpus\.fibonacci_k = \[10, 5\]"
    with pytest.raises(ValueError, match=message + r" is an empty range$"):
        Campaign(corpus=CorpusSpec(fibonacci_k=(10, 5)), checks=("prop1", "thm2-diagnostic"))
    with pytest.raises(ValueError, match=message):
        Campaign.from_json_dict(data)
    # without the diagnostic an empty Fibonacci range is a valid corpus
    Campaign(corpus=CorpusSpec(fibonacci_k=(10, 5)), checks=("prop1",))


@pytest.mark.parametrize(
    "triple, message",
    [
        ((2, 0.5, 1), "p and q must lie in [1, inf]"),
        ((1, 2, 2), "smoothness must satisfy s > d/p"),  # d = 2 on the Fibonacci members
    ],
)
def test_a_thm2_triple_proxy_spec_refuses_names_the_field(triple, message):
    data = thm2_campaign(("thm2-diagnostic",)).to_json_dict()
    data["budgets"]["thm2_triples"] = [list(triple)]
    full = rf"^budgets\.thm2_triples entry {re.escape(str(list(triple)))}: {re.escape(message)}$"
    with pytest.raises(ValueError, match=full):
        Campaign.from_json_dict(data)
    # the triples are read only by the diagnostic
    data["checks"] = ["prop1"]
    Campaign.from_json_dict(data)


@pytest.mark.parametrize("name", ["rank1_dims", "zd_dims"])
def test_a_lattice_dimension_above_the_spectral_cap_fails_at_load(name):
    data = Campaign(corpus=THM2_CORPUS, checks=("thm1",)).to_json_dict()
    data["corpus"][name] = [2, 13]
    message = rf"^corpus\.{name} must be a list of integers from 1 to 12 when a lattice check runs"
    with pytest.raises(ValueError, match=message + r", got \(2, 13\)$"):
        Campaign.from_json_dict(data)
    # the diagnostic alone runs only the Fibonacci members, all in d = 2
    data["checks"] = ["thm2-diagnostic"]
    Campaign.from_json_dict(data)


def test_a_tiny_prop1_gamma_runs_to_strict_json(tmp_path):
    # 2^(1/gamma) overflows for gamma < 1/1024; the paper's lower bound then
    # underflows to 0 and the certified ends stay positive, so the rows pass
    c = small_campaign(checks=("prop1",), budgets=Budgets(prop1_gammas=(0.0005,)))
    res = run_campaign(c)
    lower = [r for r in res.rows if r["check"] == "prop1-lower-g0.0005"]
    assert len(lower) == len(builtin_corpus(SMALL_CORPUS, 11))
    assert all(r["lhs"] == 0.0 < r["rhs"] and r["verdict"] == "PASS" for r in lower)
    write_artifacts(res, tmp_path)  # writes strict JSON, or raises
    json.loads((tmp_path / "campaign.json").read_text(), parse_constant=pytest.fail)


@pytest.mark.parametrize(
    "corpus",
    [
        CorpusSpec(),
        SMALL_CORPUS,
        CorpusSpec(fibonacci_k=(6, 5), include_bad_lattice=False),
        CorpusSpec(fibonacci_k=(6, 5), rank1_dims=(1, 3), rank1_per_cell=0, zd_dims=(4,),
                   include_bad_lattice=False),
        CorpusSpec(fibonacci_k=(6, 5), rank1_dims=(1, 3), rank1_sizes=(), zd_dims=(),
                   include_bad_lattice=True),
        CorpusSpec(fibonacci_k=(5, 5), rank1_dims=(1, 4), rank1_sizes=(2,), rank1_per_cell=1,
                   zd_dims=(1,), include_bad_lattice=False),
        CorpusSpec(fibonacci_k=(6, 5), rank1_dims=(), zd_dims=(), include_bad_lattice=False),
    ],
)
def test_covering_dims_read_off_the_spec_are_the_corpus_dims(corpus):
    c = Campaign(corpus=corpus, checks=("prop1",))
    assert harness._covering_dims(c) == {len(g) for _, _, g in builtin_corpus(corpus, c.seed)}


def test_a_prop1_campaign_builds_without_drawing_the_corpus(monkeypatch):
    def refuse(*args):
        raise AssertionError("builtin_corpus called while building a Campaign")

    monkeypatch.setattr(harness, "builtin_corpus", refuse)
    c = Campaign(checks=("prop1",), budgets=Budgets(prop1_gammas=(1.0, math.inf)))
    assert harness._covering_dims(c) == {2, 3, 4}


def test_a_covering_radius_without_a_tolerance_fails_at_load():
    corpus = CorpusSpec(
        fibonacci_k=(5, 6), rank1_dims=(5,), rank1_sizes=(64,), rank1_per_cell=1, zd_dims=()
    )
    budgets = Budgets(covering_tols={2: 1e-4})
    # prop1's gamma = inf computes a covering radius on every corpus member
    with pytest.raises(ValueError, match=r"^budgets\.covering_tols has no tolerance for d = 5,"):
        Campaign(corpus=corpus, checks=("prop1",), budgets=budgets)
    # thm2's (2, 2, inf) triple has gamma = inf on the Fibonacci members, d = 2
    with pytest.raises(ValueError, match=r"^budgets\.covering_tols has no tolerance for d = 2,"):
        Campaign(corpus=corpus, checks=("thm2-diagnostic",), budgets=Budgets(covering_tols={}))
    # with no gamma = inf no tolerance is read: these load and run
    finite = Budgets(covering_tols={}, prop1_gammas=(1.0,), thm2_triples=((3, math.inf, 1),))
    zd5 = CorpusSpec(fibonacci_k=(5, 5), rank1_dims=(), zd_dims=(5,), include_bad_lattice=False)
    res = run_campaign(Campaign(corpus=zd5, checks=("prop1", "thm2-diagnostic"), budgets=finite))
    assert {r["subject"] for r in res.rows} == {"fib-k05", "zd-d5", "fibonacci"}
    assert not any(r["check"] == "prop1-covering-width" for r in res.rows)


def test_a_lattice_task_reduces_its_dual_basis_once(monkeypatch):
    from latdisc import reduction

    calls = []
    real = reduction.lll_reduce
    monkeypatch.setattr(reduction, "lll_reduce", lambda *a: calls.append(a) or real(*a))
    c = Campaign(checks=("spectral-exact", "thm1", "prop1"))
    rows = harness.run_lattice_task(c, "fib-k07", 13, (1, 8))["rows"]
    assert {r["check"] for r in rows} >= {"spectral-exact", "thm1", "prop1-volA"}
    assert len(calls) == 1


@pytest.mark.parametrize(
    "checks, lattice_id, n, g, k",
    [
        (("spectral-exact", "thm1", "prop1"), "fib-k07", 13, (1, 8), 10),
        (("spectral-exact", "thm1", "prop1"), "rank1-d4-n64-i00", 64, (6, 39, 14, 16), 10),
        (("prop1",), "fib-k07", 13, (1, 8), 1),
    ],
    ids=["thm1-fib-k07", "thm1-d4", "prop1-only"],
)
def test_a_lattice_task_runs_one_dual_search(checks, lattice_id, n, g, k, monkeypatch):
    # sigma and Theorem 1's witnesses share one k-best search; a task
    # without thm1 asks for one vector
    from latdisc import reduction

    calls = []
    real = reduction.enumerate_below
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: calls.append(a) or real(*a))
    rows = harness.run_lattice_task(Campaign(checks=checks), lattice_id, n, g)["rows"]
    assert "prop1-volA" in {r["check"] for r in rows}
    assert ("thm1" in checks) == ("thm1" in {r["check"] for r in rows})
    assert [a[2] for a in calls] == [k]


def test_isodisc_runs_one_dual_search(tmp_path, monkeypatch, capsys):
    from latdisc import reduction
    from latdisc.cli import main

    spec = tmp_path / "fib.lat"
    assert main(["--out", str(spec), "gen", "fibonacci", "--k", "12"]) == 0
    calls = []
    real = reduction.enumerate_below
    monkeypatch.setattr(reduction, "enumerate_below", lambda *a: calls.append(a) or real(*a))
    assert main(["isodisc", str(spec)]) == 0
    assert len(json.loads(capsys.readouterr().out)["witnesses"]) == 10
    assert [a[2] for a in calls] == [10]
