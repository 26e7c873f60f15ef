"""Command-line interface: lattice generation, spectral tests, witnesses,
distance norms, body geometry, bound tables, and verification campaigns."""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .convex import (
    binom_kappa_sum,
    body_from_json_dict,
    boundary_neighborhood_volume,
    offset_volumes,
    remark_lower,
    remark_upper,
    steiner_volume,
)
from .discrepancy import N_SLABS, isotropic_lower_bound, verify_thm1
from .distance import distance_norms
from .errors import COUNT, DIMS, SIZE, TOL, LatdiscError, require
from .harness import (
    ALL_CHECKS,
    Budgets,
    Campaign,
    CorpusSpec,
    default_out_dir,
    run_campaign,
    write_artifacts,
)
from .lattice import (
    enumerate_points,
    fibonacci_generator,
    format_lattice_text,
    format_rank1_text,
    korobov_lattice,
    parse_lattice_text,
    rank1_lattice,
    write_points_csv,
)
from .reduction import spectral_test


def _read_text(path: str) -> str:
    """The text of the file at `path`; ValueError naming a path that cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _read_json(path: str):
    """The JSON value in the file at `path`; ValueError naming a path that
    cannot be read or does not hold JSON, or the path and a literal no
    finite float holds (1e400, NaN, Infinity; a spec spells infinity "inf")."""

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):  # also the constants, read as floats
            raise ValueError(f"the literal {literal} in {path} is not a finite number")
        return value

    text = _read_text(path)
    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _read_lattice(path: str):
    text = sys.stdin.read() if path == "-" else _read_text(path)
    return parse_lattice_text(text)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _seed(args, default: int = 0) -> int:
    """--seed when it was given, else the command's own default."""
    return default if args.seed is None else args.seed


def _parse_entries(text: str, flag: str, kind=int) -> list[tuple[str, object]]:
    """(entry, value) for each entry of the comma list given to `flag`, the
    value as `kind` (int, or float, which also reads inf); empty entries are
    skipped. ValueError names the flag and the entry, or the flag when the
    list holds no entry; a float entry that is infinite but not spelled
    inf (1e400, say) is refused."""
    out = []
    for tok in text.split(","):
        if tok:
            try:
                value = kind(tok)
            except ValueError:
                expected = "an integer" if kind is int else "a number or inf"
                raise ValueError(f"{flag}: entry {tok!r} is not {expected}") from None
            if kind is float and math.isinf(value) and "inf" not in tok.lower():
                raise ValueError(f"{flag}: entry {tok!r} is beyond the float range")
            out.append((tok, value))
    if not out:
        raise ValueError(f"{flag}: the list is empty")
    return out


def _parse_list(text: str, flag: str, kind=int) -> list:
    """The values of the comma list given to `flag`, as `_parse_entries`
    reads them. Each value prints its own output, so an entry that repeats
    an earlier value (1 and 1.0 are one) is a ValueError naming the flag
    and both entries."""
    seen: dict = {}
    for tok, value in _parse_entries(text, flag, kind):
        if value in seen:
            raise ValueError(f"{flag}: entry {tok!r} repeats the earlier entry {seen[value]!r}")
        seen[value] = tok
    return list(seen)


def _cmd_gen(args) -> int:
    if args.family == "rank1":
        g = [value for _, value in _parse_entries(args.g, "--g")]  # a vector: entries may repeat
        lat = rank1_lattice(args.n, g)
        if lat.n_points == args.n:
            _emit(args, format_rank1_text(args.n, g))
        else:
            _emit(args, format_lattice_text(lat))
    elif args.family == "fibonacci":
        n, g = fibonacci_generator(args.k)
        limit = sys.get_int_max_str_digits()  # the most digits str() converts, 0 for no limit
        what = f"an integer whose F_k has at most {limit} digits (sys.get_int_max_str_digits())"
        require("--k", args.k, (what, lambda k: not limit or n < 10**limit))  # n is F_k
        _emit(args, format_rank1_text(n, g))
    elif args.family == "korobov":
        lat = korobov_lattice(args.n, args.a, require("--d", args.d, COUNT))
        _emit(args, format_lattice_text(lat))
    else:  # zd
        _emit(args, format_rank1_text(1, [0] * require("--d", args.d, COUNT)))
    return 0


def _cmd_spectral(args) -> int:
    lat = _read_lattice(args.lattice)
    _emit_json(args, spectral_test(lat).to_json_dict())
    return 0


def _cmd_points(args) -> int:
    limit = sys.get_int_max_str_digits()  # the most digits str() converts, 0 for no limit
    what = f"an integer from 0 to {limit} (sys.get_int_max_str_digits())"
    require("--precision", args.precision, (what, lambda p: 0 <= p <= limit) if limit else SIZE)
    lat = _read_lattice(args.lattice)
    ps = enumerate_points(lat, cap=args.cap)
    import io

    buf = io.StringIO()
    write_points_csv(ps, buf, precision=args.precision, exact=args.exact)
    _emit(args, buf.getvalue())
    return 0


def _cmd_isodisc(args) -> int:
    lat = _read_lattice(args.lattice)
    rep = spectral_test(lat, N_SLABS)
    best, witnesses = isotropic_lower_bound(lat, report=rep)
    report = verify_thm1(lat, report=rep)
    _emit_json(
        args,
        {
            "best": best.to_json_dict(),
            "thm1": report.to_json_dict(),
            "witnesses": [w.to_json_dict() for w in witnesses],
        },
    )
    return 0 if report.verdict == "PASS" else 1


def _cmd_distnorm(args) -> int:
    require("--tol", args.tol, TOL)
    lat = _read_lattice(args.lattice)
    ps = enumerate_points(lat)
    gammas = _parse_list(args.gamma, "--gamma", float)
    reports = distance_norms(ps, gammas, covering_tol=args.tol)
    _emit_json(args, [reports[g].to_json_dict() for g in gammas])
    return 0


def _cmd_geom(args) -> int:
    body = body_from_json_dict(_read_json(args.body))
    if args.geom_op == "steiner":
        value = steiner_volume(body, args.rho)
    elif args.geom_op == "offset":
        value = offset_volumes(body, [args.rho], args.side)[0]
    else:
        value = boundary_neighborhood_volume(body, args.rho)
    _emit_json(args, {"value": value})
    return 0


def _cmd_bounds_remark(args) -> int:
    rows = []
    for d in require("--dims", _parse_list(args.dims, "--dims"), DIMS):
        rows.append(
            {
                "d": d,
                "log_sum": binom_kappa_sum(d),
                "log_lower": remark_lower(d, args.delta),
                "log_upper": remark_upper(d, args.kappa),
            }
        )
    if args.format == "csv":
        lines = ["d,log_sum,log_lower,log_upper"]
        lines += [f'{r["d"]},{r["log_sum"]},{r["log_lower"]},{r["log_upper"]}' for r in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, rows)
    return 0


_VERIFY_CHECKS = {
    "thm1": ("spectral-exact", "thm1"),
    "prop1": ("prop1",),
    "lemma3": ("lemma2", "lemma3"),
    "corollary1": ("corollary1",),
    "all": ALL_CHECKS,
}


def _small_corpus() -> CorpusSpec:
    return CorpusSpec(
        fibonacci_k=(5, 10),
        rank1_dims=(2, 3),
        rank1_sizes=(64, 256),
        rank1_per_cell=3,
        zd_dims=(2, 3),
    )


def _cmd_verify(args) -> int:
    workers = require("--workers", args.workers, COUNT)
    corpus = _small_corpus() if args.small else CorpusSpec()
    budgets = Budgets() if not args.small else Budgets(body_count=6)
    campaign = Campaign(
        corpus=corpus,
        checks=_VERIFY_CHECKS[args.claim],
        budgets=budgets,
        seed=_seed(args),
        out_dir=args.out or default_out_dir(),
    )
    result = run_campaign(campaign, workers=workers)
    summary = ", ".join(f"{k}={v}" for k, v in result.summary.items())
    print(f"{args.claim}: {summary}")
    return 0 if result.n_failures == 0 else 1


def _cmd_campaign(args) -> int:
    workers = require("--workers", args.workers, COUNT)
    campaign = Campaign.from_json_dict(_read_json(args.spec))
    campaign = replace(
        campaign, seed=_seed(args, campaign.seed), out_dir=args.out or campaign.out_dir
    )
    result = run_campaign(campaign, workers=workers)
    if not campaign.out_dir:
        write_artifacts(result, Path(default_out_dir()))
    summary = ", ".join(f"{k}={v}" for k, v in result.summary.items())
    print(f"campaign: {summary}")
    return 0 if result.n_failures == 0 else 1


_GLOBAL_DEFAULTS = {
    "seed": None,
    "tol": inspect.signature(distance_norms).parameters["covering_tol"].default,
    "out": None,
    "format": "json",
    "workers": 1,
}


def _global_flags(with_defaults: bool) -> argparse.ArgumentParser:
    """Parent parser holding the global flags.

    The root copy carries the real defaults; subcommand copies use SUPPRESS
    so a flag given after the subcommand overrides one given before it, and
    an omitted flag never clobbers the root value. Separate instances are
    required because parent parsers share action objects.
    """
    p = argparse.ArgumentParser(add_help=False)

    def dflt(name):
        return _GLOBAL_DEFAULTS[name] if with_defaults else argparse.SUPPRESS

    p.add_argument(
        "--seed",
        type=int,
        default=dflt("seed"),
        help="random seed read by `verify` and `campaign run` (default: 0; for"
        " `campaign run`, the spec's seed)",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=dflt("tol"),
        help=f"covering-radius tolerance read by `distnorm` (default: {_GLOBAL_DEFAULTS['tol']})",
    )
    p.add_argument(
        "--out",
        default=dflt("out"),
        help="output file/directory (default: stdout or $LATDISC_OUT)",
    )
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default=dflt("format"),
        help="table format read by `bounds remark` (default: json)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=dflt("workers"),
        help="worker processes read by `verify` and `campaign run`, at least 1 (default: 1)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags(with_defaults=False)
    parser = argparse.ArgumentParser(
        prog="latdisc",
        description="Spectral tests, discrepancy witnesses, and parallel-body "
        "volume bounds for integration lattices.",
        parents=[_global_flags(with_defaults=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    gen = add_parser("gen", help="generate a lattice spec file")
    gen.add_argument("family", choices=("rank1", "fibonacci", "korobov", "zd"))
    gen.add_argument("--n", type=int, default=1, help="rank1/korobov: modulus n (default: 1)")
    gen.add_argument("--g", default="0", help="rank1: comma list generator g (default: 0)")
    gen.add_argument("--k", type=int, default=10, help="fibonacci: index k >= 3 (default: 10)")
    gen.add_argument("--a", type=int, default=1, help="korobov: multiplier a (default: 1)")
    gen.add_argument("--d", type=int, default=2, help="korobov/zd: dimension d >= 1 (default: 2)")
    gen.set_defaults(fn=_cmd_gen)

    sp = add_parser("spectral", help="spectral test report for a lattice")
    sp.add_argument("lattice", help="lattice spec file, or - for stdin")
    sp.set_defaults(fn=_cmd_spectral)

    pts = add_parser("points", help="enumerate the lattice point set as CSV")
    pts.add_argument("lattice")
    pts.add_argument(
        "--precision",
        type=int,
        default=17,
        help="decimal digits per coordinate, at least 0 (default: 17)",
    )
    pts.add_argument("--exact", action="store_true", help='render coordinates as "p/q"')
    pts.add_argument(
        "--cap", type=int, default=10**6, help="refuse lattices with more points (default: 10^6)"
    )
    pts.set_defaults(fn=_cmd_points)

    iso = add_parser("isodisc", help="isotropic-discrepancy witness search over dual slabs")
    iso.add_argument("lattice")
    iso.set_defaults(fn=_cmd_isodisc)

    dn = add_parser("distnorm", help="distance-function L_gamma norms")
    dn.add_argument("lattice")
    dn.add_argument("--gamma", default="1,2,inf", help="comma list of distinct gammas, e.g. 0.5,1,2,inf")
    dn.set_defaults(fn=_cmd_distnorm)

    geom = add_parser("geom", help="parallel-body volume operations")
    geom.add_argument("geom_op", choices=("steiner", "offset", "boundary"))
    geom.add_argument("--body", required=True, help="ConvexBody JSON file")
    geom.add_argument("--rho", type=float, required=True, help="offset radius in [0, 1]")
    geom.add_argument(
        "--side",
        choices=("outer", "inner"),
        default="outer",
        help="side of the offset for `geom offset` (default: outer)",
    )
    geom.set_defaults(fn=_cmd_geom)

    bounds = add_parser("bounds", help="quantitative bound tables")
    bsub = bounds.add_subparsers(dest="bounds_op", required=True)
    rem = bsub.add_parser("remark", parents=[common], help="binomial-kappa sum sandwich table")
    rem.add_argument(
        "--dims", default="10,100,1000,10000,100000", help="comma list of distinct dimensions d"
    )
    rem.add_argument("--delta", type=float, default=0.3, help="lower-bound delta (default: 0.3)")
    rem.add_argument("--kappa", type=float, default=5.1, help="upper-bound kappa (default: 5.1)")
    rem.set_defaults(fn=_cmd_bounds_remark)

    ver = add_parser("verify", help="run verification checks on the builtin corpus")
    ver.add_argument("claim", choices=sorted(_VERIFY_CHECKS))
    ver.add_argument("--small", action="store_true", help="reduced corpus for quick runs")
    ver.set_defaults(fn=_cmd_verify)

    camp = add_parser("campaign", help="campaign operations")
    csub = camp.add_subparsers(dest="campaign_op", required=True)
    run = csub.add_parser("run", parents=[common], help="run a campaign from a JSON spec")
    run.add_argument("spec")
    run.set_defaults(fn=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LatdiscError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
