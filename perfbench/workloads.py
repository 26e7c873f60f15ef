"""The benchmark's workloads: one slice of an acceptance campaign each.

Every workload is a `Campaign` run through `run_campaign` with default
`Budgets()` apart from the fields set in `WORKLOADS`. The slices are smaller than
the acceptance campaigns so that one run repeats its slice several times.

- thm1:  spectral-exact + thm1 on Fibonacci, rank-1, Z^d and the bad lattice.
         Time goes to exact `Fraction` counting in `discrepancy` and to
         `lattice.enumerate_points`; `distance` and body Monte Carlo never run.
- prop1: prop1 + thm2-diagnostic on the same kind of corpus. Time goes to
         `distance` (covering radius, grid and Monte Carlo moments, slab
         unions); points are used as floats, not exact rationals.
- body:  lemma1..3, corollary1 and steiner on random bodies in d = 2, 3, 4.
         Time goes to `convex`/`montecarlo` offset volumes, mostly the d = 4
         H-polytopes (Dykstra projection). Lattice layers never run.

Inputs come from the seed. For thm1 and prop1 the seed is the campaign
seed: it draws the rank-1 generators and the witness candidates. For body
the seed draws the two smaller offset radii; the bodies themselves are the
acceptance corpus (campaign seed 20200817), because the cost of one d = 4
H-polytope varies about 5x between campaign seeds (Dykstra converges at a
rate set by the body's corners), so a run of a few bodies would measure the
draw rather than the program.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from latdisc.harness import Budgets, Campaign, CorpusSpec, builtin_corpus

ACCEPTANCE_SEED = 20200817

THM1_CHECKS = ("spectral-exact", "thm1")
PROP1_CHECKS = ("prop1", "thm2-diagnostic")
BODY_CHECKS = ("lemma1", "lemma2", "lemma3", "corollary1", "steiner")
BODY_RHO_MAX = 0.1  # the largest acceptance radius; it sets the sampling box and the distance cap


@dataclass(frozen=True)
class Workload:
    checks: tuple[str, ...]
    corpus: CorpusSpec
    budgets: Budgets


WORKLOADS = {
    "thm1": Workload(
        THM1_CHECKS,
        CorpusSpec(
            fibonacci_k=(5, 17),
            rank1_sizes=(64, 256, 1024),
            rank1_per_cell=1,
        ),
        Budgets(),
    ),
    "prop1": Workload(
        PROP1_CHECKS,
        CorpusSpec(
            fibonacci_k=(5, 16),
            rank1_sizes=(64, 256, 1024),
            rank1_per_cell=1,
        ),
        Budgets(),
    ),
    "body": Workload(
        BODY_CHECKS,
        CorpusSpec(),
        # 2^18 samples (4 chunks) instead of 10^6 keep a repetition near 5 s,
        # so a run holds several; Dykstra still takes most of the time
        Budgets(body_count=8, body_mc_samples=1 << 18),
    ),
}

# Toy sizes for the benchmark's own tests: same code paths, a second or two.
TOY_CORPUS = CorpusSpec(
    fibonacci_k=(5, 7),
    rank1_dims=(2, 3, 4),
    rank1_sizes=(64,),
    rank1_per_cell=1,
    zd_dims=(2, 4),
)
TOY_BUDGETS = {
    "thm1": Budgets(),
    "prop1": Budgets(norm_mc_samples=20_000),
    "body": Budgets(body_count=4, body_mc_samples=20_000),
}


def body_rhos(seed: int) -> tuple[float, ...]:
    """Two offset radii drawn from the seed, below the fixed largest one."""
    rng = random.Random(seed)
    lo, mid = sorted(round(rng.uniform(0.01, BODY_RHO_MAX), 4) for _ in range(2))
    return (lo, mid, BODY_RHO_MAX)


def campaign(
    name: str,
    seed: int,
    out_dir: str | None = None,
    toy: bool = False,
    corrupt_check: str | None = None,
) -> Campaign:
    """The campaign one repetition of workload `name` runs for `seed`."""
    w = WORKLOADS[name]
    corpus = TOY_CORPUS if toy else w.corpus
    budgets = TOY_BUDGETS[name] if toy else w.budgets
    campaign_seed = seed
    if name == "body":
        budgets = replace(budgets, rhos=body_rhos(seed))
        campaign_seed = ACCEPTANCE_SEED
    return Campaign(
        corpus=corpus,
        checks=w.checks,
        budgets=budgets,
        seed=campaign_seed,
        out_dir=out_dir,
        corrupt_check=corrupt_check,
        corrupt_rhs_scale=1e-9 if corrupt_check else 1.0,
    )


def _body_kind(d: int, index: int) -> str:
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    return kinds[index % len(kinds)]


def task_list(c: Campaign) -> list[str]:
    """One key per task the campaign runs, in run order. Row subjects map
    back to these keys through `task_of`."""
    keys: list[str] = []
    if {"spectral-exact", "thm1", "prop1"} & set(c.checks):
        keys += [lattice_id for lattice_id, _, _ in builtin_corpus(c.corpus, c.seed)]
    if set(BODY_CHECKS) & set(c.checks):
        keys += [
            f"body-d{d}-i{index:02d}"
            for d in c.budgets.body_dims
            for index in range(c.budgets.body_count)
        ]
    if "thm2-diagnostic" in c.checks:
        keys.append("fibonacci")
    return keys


def task_of(row: dict) -> str:
    """The task key a check row came from."""
    check, subject = row["check"], row["subject"]
    if check in BODY_CHECKS:
        # subject is "<kind>-d<d>-i<index>-rho<rho>"
        _, d, index, _ = subject.split("-", 3)
        return f"body-{d}-{index}"
    return subject


def expected_rows(c: Campaign) -> Counter:
    """Rows per check name that the campaign's corpus implies.

    Derived from the corpus and budget definitions alone, so a harness
    change that drops or duplicates rows shows as a mismatch.
    """
    rows: Counter = Counter()
    checks = set(c.checks)
    b = c.budgets
    if {"spectral-exact", "thm1", "prop1"} & checks:
        for _, n, g in builtin_corpus(c.corpus, c.seed):
            d = len(g)
            if "spectral-exact" in checks and d <= 3 and n <= 4096:
                rows["spectral-exact"] += 1
            if "thm1" in checks:
                rows["thm1"] += 1
                rows["thm1-slab-floor"] += 1
            if "prop1" in checks:
                rows["prop1-volA"] += 1
                rows["prop1-volB-bound"] += 1
                for g_ in b.prop1_gammas:
                    rows[f"prop1-lower-g{'inf' if g_ == float('inf') else f'{g_:g}'}"] += 1
                rows["prop1-ratio-inf"] += 1
                if float("inf") in b.prop1_gammas:
                    rows["prop1-covering-width"] += 1
    if "thm2-diagnostic" in checks:
        rows["thm2-window-sigma"] += 1
        for s, p, q in set(b.thm2_triples):
            rows[f"thm2-window-s{s}-p{p}-q{q}"] += 1
    for d in b.body_dims if set(BODY_CHECKS) & checks else ():
        for index in range(b.body_count):
            closed_form = _body_kind(d, index) in ("ball", "box")
            for check in ("lemma2", "lemma3", "corollary1"):
                if check in checks:
                    rows[check] += len(b.rhos)
            for check in ("steiner", "lemma1"):
                if check in checks and closed_form:
                    rows[check] += len(b.rhos)
    return rows
