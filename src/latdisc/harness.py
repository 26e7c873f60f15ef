"""Verification campaigns over the builtin lattice and body corpora.

A campaign is fully determined by (corpus spec, checks, budgets, seed):
reruns produce byte-identical JSON artifacts for any worker count. Every
compared value is exact or a certified bound, so a check is PASS or FAIL,
and a claim with an unknown constant is RECORDED, never failed. Four row
kinds are the exception, decided by a float tolerance: lemma1 (a finite
difference against 1e-3), steiner (against 1e-12), remark-s2 (against
1e-10) and prop1-covering-width (a rhs widened by 1 + 1e-9). The lemma2,
lemma3 and corollary1 rows compare float body volumes, not enclosures,
until ROADMAP item 16 certifies them.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, distance
from .convex import (
    AxisBox,
    Ball,
    binom_kappa_sum,
    offset_volumes,
    parallel_volume_derivative_check,
    random_body,
    remark_lower,
    remark_upper,
    steiner_volume,
)
from .discrepancy import N_SLABS, verify_thm1
from .distance import ProxySpec, proxy_spec, verify_prop1
from .lattice import enumerate_points, fibonacci_generator, rank1_lattice
from .reduction import SVP_DIMENSION_CAP, spectral_test

PASS = "PASS"
FAIL = "FAIL"
RECORDED = "RECORDED"

ALL_CHECKS = (
    "spectral-exact",
    "thm1",
    "prop1",
    "lemma1",
    "lemma2",
    "lemma3",
    "corollary1",
    "steiner",
    "remark",
    "thm2-diagnostic",
)


def verdict_for(lhs: float, rhs: float) -> str:
    """FAIL iff lhs > rhs."""
    return FAIL if lhs > rhs else PASS


def _row(
    check: str, subject: str, lhs: float, rhs: float | None, verdict: str | None = None
) -> dict:
    """One row of campaign.json; the verdict defaults to verdict_for(lhs, rhs)."""
    return {
        "check": check,
        "subject": subject,
        "lhs": float(lhs),
        "rhs": None if rhs is None else float(rhs),
        "verdict": verdict_for(lhs, rhs) if verdict is None else verdict,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A float, or an int that a float can hold: the checks compute in floats."""
    return isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max


def _is_finite(x) -> bool:
    return _is_real(x) and math.isfinite(x)


def _int_at_least(lo: int):
    return lambda x: _is_int(x) and x >= lo


def _list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and all(ok(x) for x in v)


def _str_or_none(v) -> bool:
    return v is None or isinstance(v, str)


def _check_fields(obj, where: str, rules: dict) -> None:
    """Raise ValueError naming the first field of `obj` that breaks its
    rule; `rules` maps a field to (what it must be, predicate), and `where`
    prefixes the field's name."""
    for name, (expected, ok) in rules.items():
        value = getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{where}{name} must be {expected}, got {value!r}")


def _check_distinct(obj, where: str, labels: dict) -> None:
    """Raise ValueError naming the first entry of a list field of `obj`
    that prints as an earlier entry does: the two would write rows with the
    same subjects. `labels` maps a field to how a subject prints an entry."""
    for name, label in labels.items():
        seen: dict[str, object] = {}
        for x in getattr(obj, name):
            if (key := label(x)) in seen:
                raise ValueError(
                    f"{where}{name} entry {x!r} prints as {key!r}, as the earlier entry "
                    f"{seen[key]!r} does; their rows would share subjects"
                )
            seen[key] = x


_CORPUS_RULES = {
    "fibonacci_k": (
        "a pair (k_lo, k_hi) of integers with k_lo >= 3",
        lambda k: isinstance(k, tuple) and len(k) == 2 and all(map(_is_int, k)) and k[0] >= 3,
    ),
    "rank1_dims": ("a list of integers >= 1", _list_of(_int_at_least(1))),
    "rank1_sizes": ("a list of integers >= 2", _list_of(_int_at_least(2))),
    "rank1_per_cell": ("an integer >= 0", _int_at_least(0)),
    "zd_dims": ("a list of integers >= 1", _list_of(_int_at_least(1))),
    "include_bad_lattice": ("true or false", lambda v: isinstance(v, bool)),
}

_BUDGET_RULES = {
    "body_count": ("an integer >= 0", _int_at_least(0)),
    "body_dims": (  # run_body_task's polytopes need d >= 2, their outer parallel volumes d <= 4
        "a list of integers from 2 to 4",
        _list_of(lambda d: _is_int(d) and 2 <= d <= 4),
    ),
    "body_mc_samples": ("an integer", _is_int),
    "rhos": ("a list of numbers in [0, 1]", _list_of(lambda r: _is_real(r) and 0 <= r <= 1)),
    "norm_mc_samples": ("an integer", _is_int),
    "prop1_gammas": ("a list of positive numbers or inf", _list_of(lambda g: _is_real(g) and g > 0)),
    "covering_tols": (
        "a map from dimension to a finite positive number",
        lambda v: isinstance(v, dict)
        and all(_is_int(d) and d >= 1 and _is_real(t) and 0 < t < math.inf for d, t in v.items()),
    ),
    "remark_dims": ("a list of integers >= 1", _list_of(_int_at_least(1))),
    "remark_delta": ("a number in (0, 2/3)", lambda v: _is_real(v) and 0 < v < 2 / 3),
    "remark_kappa": (
        "a finite number above e (2 pi)^(1/3)",
        lambda v: _is_finite(v) and v > math.e * (2 * math.pi) ** (1 / 3),
    ),
    "thm2_triples": (
        "a list of [s, p, q] triples: an integer s, and numbers or inf p and q",
        _list_of(
            lambda t: isinstance(t, (list, tuple)) and len(t) == 3 and _is_int(t[0])
            and all(_is_real(x) and x > -math.inf for x in t[1:])  # nan fails the comparison
        ),
    ),
}

_CAMPAIGN_RULES = {  # the spec's top-level fields; corpus and budgets check their own
    "checks": (
        f"a non-empty list of checks from {', '.join(ALL_CHECKS)}",
        lambda v: _list_of(ALL_CHECKS.__contains__)(v) and len(v) > 0,
    ),
    "seed": ("an integer", _is_int),
    "out_dir": ("a path or null", _str_or_none),
    "corrupt_check": ("a check name or null", _str_or_none),
    "corrupt_rhs_scale": ("a finite number", _is_finite),
}


@dataclass(frozen=True)
class CorpusSpec:
    fibonacci_k: tuple[int, int] = (5, 20)
    rank1_dims: tuple[int, ...] = (2, 3, 4)
    rank1_sizes: tuple[int, ...] = (64, 256, 1024, 4096)
    rank1_per_cell: int = 20
    zd_dims: tuple[int, ...] = (2, 3, 4)
    include_bad_lattice: bool = True

    def __post_init__(self):
        _check_fields(self, "corpus.", _CORPUS_RULES)
        labels = dict.fromkeys(("rank1_dims", "rank1_sizes", "zd_dims"), str)
        _check_distinct(self, "corpus.", labels)


@dataclass(frozen=True)
class Budgets:
    body_count: int = 50
    body_dims: tuple[int, ...] = (2, 3, 4)
    body_mc_samples: int = 10**6  # unread: body volumes are closed forms; specs that set it still load
    rhos: tuple[float, ...] = (0.01, 0.05, 0.1)
    norm_mc_samples: int = 100_000  # unread: distance norms sample nothing; specs that set it still load
    prop1_gammas: tuple[float, ...] = (0.5, 1.0, 2.0, math.inf)
    covering_tols: dict = field(
        default_factory=lambda: {1: 1e-6, 2: 1e-4, 3: 1e-2, 4: 5e-2}
    )
    remark_dims: tuple[int, ...] = (10, 100, 1000, 10**4, 10**5)
    remark_delta: float = 0.3
    remark_kappa: float = 5.1
    thm2_triples: tuple = ((2, 2, math.inf), (3, math.inf, 1), (2, 2, 1))

    def __post_init__(self):
        _check_fields(self, "budgets.", _BUDGET_RULES)
        g = "{:g}".format  # subjects print rhos and gammas with :g, dimensions in full
        labels = {
            "body_dims": str, "rhos": g, "prop1_gammas": g, "remark_dims": str,
            "thm2_triples": lambda t: f"s{t[0]}-p{t[1]}-q{t[2]}",  # the thm2 rows' `triple`
        }
        _check_distinct(self, "budgets.", labels)


def _check_keys(raw: dict, cls, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s) in campaign spec: {', '.join(unknown)}")
    return raw


def _from_json(v, numbers: bool):
    """A JSON value in its spec form: lists made tuples, at every depth.
    With `numbers` (the corpus and budgets sections, whose fields are all
    numbers or flags), "inf" is made math.inf and a decimal object key an
    int; anything else is left for the field checks to reject."""
    if isinstance(v, (list, tuple)):
        return tuple(_from_json(x, numbers) for x in v)
    if isinstance(v, dict):
        return {
            int(k) if numbers and k.isdecimal() else k: _from_json(x, numbers) for k, x in v.items()
        }
    return math.inf if numbers and v == "inf" else v


def _to_json(v):
    """Inverse of _from_json: tuples made lists, math.inf made "inf" and
    object keys made strings, at every depth."""
    if isinstance(v, (list, tuple)):
        return [_to_json(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _to_json(x) for k, x in v.items()}
    return "inf" if v == math.inf else v


@dataclass(frozen=True)
class Campaign:
    corpus: CorpusSpec = CorpusSpec()
    checks: tuple[str, ...] = ALL_CHECKS
    budgets: Budgets = Budgets()
    seed: int = 20200817
    out_dir: str | None = None
    corrupt_check: str | None = None  # harness self-test: scale this check's rhs
    corrupt_rhs_scale: float = 1.0

    def __post_init__(self):
        _check_fields(self, "", _CAMPAIGN_RULES)
        # a spec that a check cannot run on fails here, before any task runs
        if "thm2-diagnostic" in self.checks:
            k_lo, k_hi = self.corpus.fibonacci_k
            if k_lo > k_hi:
                raise ValueError(
                    "thm2-diagnostic needs Fibonacci lattices, but corpus.fibonacci_k = "
                    f"[{k_lo}, {k_hi}] is an empty range"
                )
            if not self.budgets.thm2_triples:
                raise ValueError("thm2-diagnostic needs a triple in budgets.thm2_triples")
        # every lattice task runs the spectral test, which has a dimension cap
        if {"spectral-exact", "thm1", "prop1"} & set(self.checks):
            for name in ("rank1_dims", "zd_dims"):
                dims = getattr(self.corpus, name)
                if any(d > SVP_DIMENSION_CAP for d in dims):
                    raise ValueError(
                        f"corpus.{name} must be a list of integers from 1 to {SVP_DIMENSION_CAP} "
                        f"when a lattice check runs, got {dims!r}"
                    )
        missing = sorted(_covering_dims(self) - set(self.budgets.covering_tols))
        if missing:
            raise ValueError(
                f"budgets.covering_tols has no tolerance for d = {', '.join(map(str, missing))}, "
                "where the lattice tasks compute a covering radius"
            )

    @staticmethod
    def from_json_dict(data: dict) -> "Campaign":
        """Inverse of to_json_dict; raises ValueError naming any unknown key
        and any field of the wrong type."""
        sections = {"corpus": CorpusSpec, "budgets": Budgets}
        return Campaign(**{
            k: sections[k](**_from_json(_check_keys(v, sections[k], k), True))
            if k in sections else _from_json(v, False)
            for k, v in _check_keys(data, Campaign, "campaign").items()
        })

    def to_json_dict(self) -> dict:
        return _to_json(asdict(self))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Stream `index` of `seed`: Philox keyed by (seed, index), so what one
    consumer draws depends only on its seed and index, never on what other
    consumers drew. The rank-1 generators and the random bodies draw from
    these streams."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _random_generator_vector(d: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    while True:
        g = tuple(int(x) for x in rng.integers(1, n, size=d))
        if math.gcd(n, *g) == 1:
            return g


def builtin_corpus(
    spec: CorpusSpec, seed: int
) -> list[tuple[str, int, tuple[int, ...]]]:
    """Deterministic corpus as (id, n, generator) triples; all members are
    rank-1 so the independent spectral oracle stays a pure congruence check."""
    out: list[tuple[str, int, tuple[int, ...]]] = []
    k_lo, k_hi = spec.fibonacci_k
    for k in range(k_lo, k_hi + 1):
        out.append((f"fib-k{k:02d}", *fibonacci_generator(k)))
    idx = 0
    for d in spec.rank1_dims:
        for n in spec.rank1_sizes:
            for j in range(spec.rank1_per_cell):
                rng = chunk_rng(seed ^ 0x5EED, idx)
                idx += 1
                g = _random_generator_vector(d, n, rng)
                out.append((f"rank1-d{d}-n{n}-i{j:02d}", n, g))
    for d in spec.zd_dims:
        out.append((f"zd-d{d}", 1, tuple(0 for _ in range(d))))
    if spec.include_bad_lattice:
        out.append(("bad-axis-d2", 256, (1, 0)))
    return out


def _covering_dims(c: Campaign) -> set[int]:
    """The dimensions whose lattice tasks compute a covering radius: those
    whose distance norms include gamma = inf, from prop1 on every corpus
    member or from a thm2 triple on the Fibonacci members (d = 2). The
    corpus's dimensions are read off its spec, as `builtin_corpus` lays it
    out, without drawing a generator."""
    dims = set()
    if "prop1" in c.checks and math.inf in c.budgets.prop1_gammas:
        spec = c.corpus
        dims = set(spec.zd_dims)
        if spec.rank1_sizes and spec.rank1_per_cell > 0:
            dims.update(spec.rank1_dims)
        if spec.fibonacci_k[0] <= spec.fibonacci_k[1] or spec.include_bad_lattice:
            dims.add(2)
    if "thm2-diagnostic" in c.checks and any(
        math.isinf(gamma) for _, _, gamma in _thm2_specs(c.budgets, 2)
    ):
        dims.add(2)
    return dims


def brute_force_min_dual_norm_sq(n: int, g: tuple[int, ...]) -> int:
    """The minimal dual norm^2 of a rank-1 lattice by exhaustive search over
    h with h.g = 0 mod n; independent of the LLL/enumeration code paths.

    Searches the cubes [-W, W]^d for W = 1, 2, 4, ... and stops once the
    smallest nonzero congruent norm^2 in the cube is <= (W + 1)^2: every
    integer vector outside the cube has a coordinate of size >= W + 1, so
    none is shorter.
    """
    g = [x % n for x in g]
    w = 1
    while True:
        axis = np.arange(-w, w + 1, dtype=np.int64)
        residue = functools.reduce(np.add.outer, [axis * x for x in g]) % n
        nsq = functools.reduce(np.add.outer, [axis * axis] * len(g))
        congruent = nsq[(residue == 0) & (nsq > 0)]
        if congruent.size and (best := int(congruent.min())) <= (w + 1) ** 2:
            return best
        w *= 2


# ---------------------------------------------------------------------------
# Per-task check runners (top-level functions so ProcessPool can pickle them)
# ---------------------------------------------------------------------------

def _thm2_specs(budgets: Budgets, d: int) -> list[tuple[tuple, ProxySpec, float]]:
    """((s, p, q), ProxySpec, gamma as a float) for each thm2 triple."""
    out = []
    for s, p, q in budgets.thm2_triples:
        try:
            spec = proxy_spec(s, p, q, d)
        except ValueError as exc:
            raise ValueError(f"budgets.thm2_triples entry [{s}, {p}, {q}]: {exc}") from None
        out.append(((s, p, q), spec, float(spec.gamma)))
    return out


def run_lattice_task(c: Campaign, lattice_id: str, n: int, g: tuple[int, ...]) -> dict:
    """All selected lattice-level checks for one corpus member; a Fibonacci
    member also writes its thm2 table rows."""
    lat = rank1_lattice(n, g)
    d = lat.dim
    rows: list[dict] = []
    tables: dict[str, list[dict]] = {"thm1": [], "prop1": [], "thm2": []}
    # one dual search serves sigma and, when thm1 runs, its witnesses
    rep = spectral_test(lat, N_SLABS if "thm1" in c.checks else 1)
    if "spectral-exact" in c.checks and d <= 3 and lat.n_points <= 4096:
        oracle = brute_force_min_dual_norm_sq(n, g)
        rows.append(_row(
            "spectral-exact", lattice_id, abs(rep.dual_norm_sq - oracle), 0.0,
            PASS if rep.dual_norm_sq == oracle else FAIL,
        ))
    if "thm1" in c.checks:
        t1 = verify_thm1(lat, lattice_id=lattice_id, report=rep)
        rows.append(_row("thm1", lattice_id, t1.j_lower, min(1.0, t1.bound), t1.verdict))
        rows.append(_row(
            "thm1-slab-floor", lattice_id, t1.slab_floor, t1.slab_value,
            PASS if t1.slab_floor_ok else FAIL,
        ))
        tables["thm1"].append(t1.to_json_dict())
    fibonacci = lattice_id.startswith("fib-k") and "thm2-diagnostic" in c.checks
    thm2 = _thm2_specs(c.budgets, d) if fibonacci else []
    if "prop1" in c.checks or thm2:
        # one distance pass serves prop1 and thm2; a shared gamma is computed once
        prop1_gammas = c.budgets.prop1_gammas if "prop1" in c.checks else ()
        gammas = dict.fromkeys([*prop1_gammas, *(gamma for _, _, gamma in thm2)])
        # only gamma = inf computes a covering radius, and reads d's tolerance
        tol = {"covering_tol": c.budgets.covering_tols[d]} if math.inf in gammas else {}
        # thm2 reads only values, so only the prop1 gammas need certified brackets
        norms = distance.distance_norms(
            enumerate_points(lat), gammas, bracketed=prop1_gammas, **tol
        )
    if "prop1" in c.checks:
        p1 = verify_prop1(
            lat,
            gammas=prop1_gammas,
            report=rep,
            norm_reports=norms,
        )
        rows.append(_row(
            "prop1-volA", lattice_id, 0.5, p1.vol_a_td, PASS if p1.vol_a_ok else FAIL
        ))
        rows.append(_row(
            "prop1-volB-bound", lattice_id, 1.0 - p1.vol_a_td, p1.vol_b_bound,
            PASS if p1.vol_b_bound_ok else FAIL,
        ))
        for gname, norm, lb, ok, ratio in zip(
            p1.gammas, p1.norms, p1.lower_bounds, p1.lower_ok, p1.ratios
        ):
            label = f"{gname:g}"
            rows.append(_row(
                f"prop1-lower-g{label}", lattice_id, lb, norm.lower_certified,
                PASS if ok else FAIL,
            ))
            tables["prop1"].append(
                {
                    "id": lattice_id,
                    "gamma": label,
                    "norm": norm.value,
                    "lower_bound": lb,
                    "ratio": ratio,
                }
            )
            if math.isinf(gname):
                rows.append(_row("prop1-ratio-inf", lattice_id, ratio, None, RECORDED))
                width = norm.upper_certified - norm.lower_certified
                rows.append(_row(
                    "prop1-covering-width", lattice_id, width, tol["covering_tol"] * (1 + 1e-9)
                ))
    for (s, p, q), spec, gamma in thm2:
        proxy = norms[gamma].value ** float(spec.exponent)
        scale_exp = s / d - max(float(spec.inv_p - spec.inv_q), 0.0)
        tables["thm2"].append(
            {
                "k": int(lattice_id.removeprefix("fib-k")),
                "N": lat.n_points,
                "sigma": rep.sigma,
                "triple": f"s{s}-p{p}-q{q}",
                "proxy": proxy,
                "scaled": proxy * lat.n_points**scale_exp,
                "sigma_sqrt_n": rep.sigma * math.sqrt(lat.n_points),
            }
        )
    return {"rows": rows, "tables": tables}


def run_body_task(c: Campaign, d: int, index: int) -> dict:
    """Lemma and Steiner checks for one random convex body."""
    kinds = ["ball", "box", "hpoly"] + (["hull"] if d <= 3 else [])
    rng = chunk_rng(c.seed ^ 0xB0D1E5, d * 10_000 + index)
    body = random_body(d, rng, kinds[index % len(kinds)])
    subject = f"{type(body).__name__.lower()}-d{d}-i{index:02d}"
    rhos = list(c.budgets.rhos)
    outer = offset_volumes(body, rhos, "outer")
    inner = offset_volumes(body, rhos, "inner")
    rows: list[dict] = []
    for rho, o, i in zip(rhos, outer, inner):
        at = f"{subject}-rho{rho:g}"
        if "lemma2" in c.checks:
            rows.append(_row("lemma2", at, i, o))
        if "lemma3" in c.checks:
            rows.append(_row("lemma3", at, max(o, i), 2 ** (d + 3) * rho))
        if "corollary1" in c.checks:
            rows.append(_row("corollary1", at, o + i, d * 2 ** (d + 4) * rho))
        if "steiner" in c.checks and isinstance(body, (Ball, AxisBox)):
            # Minkowski identity: for every body both sides are one Steiner
            # polynomial, equal up to roundoff, checked against independent
            # references in the unit tests. The rows stay on balls and boxes,
            # whose count perfbench/workloads.py expects.
            expected = steiner_volume(body, rho) - body.volume()
            rows.append(_row("steiner", at, abs(o - expected), 1e-12))
    if "lemma1" in c.checks and isinstance(body, (Ball, AxisBox)):
        h = 1e-3
        for rho in rhos:
            fd, analytic = parallel_volume_derivative_check(body, rho, h)
            rows.append(_row("lemma1", f"{subject}-rho{rho:g}", abs(fd - analytic), 1e-3))
    return {"rows": rows, "tables": {}}


def run_remark_task(c: Campaign) -> dict:
    """The Remark's sandwich of the binomial-kappa sum over the budget's dimensions."""
    budgets = c.budgets
    s2 = math.exp(binom_kappa_sum(2))
    rows = [_row("remark-s2", "d2", abs(s2 - (4 + math.pi)), 1e-10)]
    for d in budgets.remark_dims:
        log_sum = binom_kappa_sum(d)
        rows.append(_row("remark-lower", f"d{d}", remark_lower(d, budgets.remark_delta), log_sum))
        rows.append(_row(
            "remark-upper", f"d{d}", log_sum, remark_upper(d, budgets.remark_kappa), RECORDED
        ))
        if d >= 1000:
            lhs = log_sum / d ** (2 / 3)
            rhs = budgets.remark_kappa * math.log(d * math.sqrt(2 * math.e**3 * math.pi))
            rows.append(_row("remark-upper-scaled", f"d{d}", lhs, rhs))
    return {"rows": rows, "tables": {}}


def run_thm2_task(detail_rows: list[dict]) -> list[dict]:
    """Joint-boundedness windows over the Fibonacci family: max/min of
    sigma sqrt(N) and of each triple's scaled proxy, from the thm2 rows
    the Fibonacci lattice tasks wrote."""
    proxies: dict[str, list[float]] = {}
    for r in detail_rows:
        proxies.setdefault(r["triple"], []).append(r["scaled"])
    sigma = [r["sigma_sqrt_n"] for r in detail_rows]
    return [
        _row(f"thm2-window-{key}", "fibonacci", max(vals) / min(vals), 10.0)
        for key, vals in [("sigma", sigma), *sorted(proxies.items())]
    ]


def _run_task(task: tuple) -> dict:
    """Run one `(kind, campaign, *key)` task. The runners are looked up when
    the task runs, so a rebinding of the module's names takes effect."""
    kind, c, *key = task
    run = {"lattice": run_lattice_task, "body": run_body_task, "remark": run_remark_task}[kind]
    return run(c, *key)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    campaign: Campaign
    rows: list[dict]
    tables: dict[str, list[dict]]
    summary: dict

    @property
    def n_failures(self) -> int:
        return self.summary.get(FAIL, 0)

    def to_json_dict(self) -> dict:
        return {
            "version": __version__,
            "campaign": self.campaign.to_json_dict(),
            "rows": self.rows,
            "tables": self.tables,
            "summary": self.summary,
        }


def _build_tasks(c: Campaign) -> list[tuple]:
    tasks: list[tuple] = []
    lattice_checks = {"spectral-exact", "thm1", "prop1"} & set(c.checks)
    # the thm2 diagnostic rides on the Fibonacci members' lattice tasks
    thm2 = "thm2-diagnostic" in c.checks
    if lattice_checks or thm2:
        for lattice_id, n, g in builtin_corpus(c.corpus, c.seed):
            if lattice_checks or lattice_id.startswith("fib-k"):
                tasks.append(("lattice", c, lattice_id, n, g))
    if {"lemma1", "lemma2", "lemma3", "corollary1", "steiner"} & set(c.checks):
        for d in c.budgets.body_dims:
            for index in range(c.budgets.body_count):
                tasks.append(("body", c, d, index))
    if "remark" in c.checks:
        tasks.append(("remark", c))
    return tasks


def run_campaign(c: Campaign, workers: int = 1) -> CampaignResult:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = _build_tasks(c)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    rows: list[dict] = []
    tables: dict[str, list[dict]] = {"thm1": [], "prop1": [], "thm2": []}
    for chunk in results:
        rows.extend(chunk["rows"])
        for name, extra in chunk.get("tables", {}).items():
            tables.setdefault(name, []).extend(extra)
    if "thm2-diagnostic" in c.checks:
        rows.extend(run_thm2_task(tables["thm2"]))
    if c.corrupt_check is not None:
        rows = [_corrupt_row(r, c) for r in rows]
    summary: dict[str, int] = {}
    for r in rows:
        summary[r["verdict"]] = summary.get(r["verdict"], 0) + 1
    summary = {k: summary[k] for k in sorted(summary)}
    result = CampaignResult(c, rows, tables, summary)
    if c.out_dir:
        write_artifacts(result, Path(c.out_dir))
    return result


def _corrupt_row(row: dict, c: Campaign) -> dict:
    if row["check"] != c.corrupt_check or row["rhs"] is None:
        return row
    rhs = row["rhs"] * c.corrupt_rhs_scale
    out = dict(row)
    out["rhs"] = rhs
    if row["verdict"] in (PASS, FAIL):
        out["verdict"] = verdict_for(row["lhs"], rhs)
    return out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def default_out_dir() -> str:
    return os.environ.get("LATDISC_OUT", "latdisc-artifacts")


def write_artifacts(result: CampaignResult, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    payload = json.dumps(result.to_json_dict(), indent=2, allow_nan=False) + "\n"
    path = out_dir / "campaign.json"
    path.write_text(payload)
    written.append(path)
    written.extend(report_tables(result, out_dir))
    return written


def report_tables(result: CampaignResult, out_dir: Path) -> list[Path]:
    """CSV emissions with a stable, documented column order. Each table is
    written from one list of row keys; a key's "lattice_" prefix is dropped
    from its column header (thm1.csv's `id` is the row's `lattice_id`)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write_csv(name: str, keys: list[str], rows: list[dict]) -> None:
        p = out_dir / name
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)  # writes a None rhs as an empty field
            w.writerow([k.removeprefix("lattice_") for k in keys])
            w.writerows([[r[k] for k in keys] for r in rows])
        written.append(p)

    write_csv(
        "checks.csv", ["check", "subject", "lhs", "rhs", "verdict"], result.rows
    )
    if result.tables.get("thm1"):
        write_csv(
            "thm1.csv",
            ["lattice_id", "d", "N", "sigma", "j_lower", "bound", "verdict"],
            result.tables["thm1"],
        )
    if result.tables.get("prop1"):
        write_csv(
            "prop1.csv", ["id", "gamma", "norm", "lower_bound", "ratio"], result.tables["prop1"]
        )
    remark = [r for r in result.rows if r["check"] == "remark-upper"]
    if remark:
        lower = {r["subject"]: r["lhs"] for r in result.rows if r["check"] == "remark-lower"}
        write_csv(
            "remark.csv",
            ["d", "log_sum", "log_lower", "log_upper"],
            [
                {
                    "d": r["subject"].removeprefix("d"),
                    "log_sum": r["lhs"],
                    "log_lower": lower[r["subject"]],
                    "log_upper": r["rhs"],
                }
                for r in remark
            ],
        )
    if result.tables.get("thm2"):
        write_csv(
            "thm2.csv",
            ["k", "N", "sigma", "triple", "proxy", "scaled", "sigma_sqrt_n"],
            result.tables["thm2"],
        )
    return written
