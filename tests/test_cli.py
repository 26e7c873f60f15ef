import hashlib
import json
import math
import sys

import numpy as np
import pytest

from latdisc.cli import main
from latdisc.convex import random_body
from latdisc.lattice import fibonacci_generator


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_and_spectral_roundtrip(tmp_path, capsys):
    spec = tmp_path / "lat.txt"
    code, _ = run_cli(capsys, "--out", str(spec), "gen", "rank1", "--n", "5", "--g", "1,2")
    assert code == 0
    assert spec.read_text().splitlines()[0] == "2 5"
    code, out = run_cli(capsys, "spectral", str(spec))
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma"] == pytest.approx(5**-0.5)
    assert rep["dual_norm"] == pytest.approx(math.sqrt(5))
    assert sorted(rep) == ["dual_norm", "lll_delta", "shortest_dual", "sigma"]


def test_global_flags_accepted_before_and_after_subcommand(tmp_path, capsys):
    before = tmp_path / "a.lat"
    after = tmp_path / "b.lat"
    assert run_cli(capsys, "--out", str(before), "gen", "rank1", "--n", "5", "--g", "1,2")[0] == 0
    assert run_cli(capsys, "gen", "rank1", "--n", "5", "--g", "1,2", "--out", str(after))[0] == 0
    assert before.read_text() == after.read_text()
    # a flag after the subcommand wins over one before it
    from latdisc.cli import build_parser

    args = build_parser().parse_args(["--seed", "1", "isodisc", "x", "--seed", "2"])
    assert args.seed == 2


def test_gen_fibonacci(tmp_path, capsys):
    code, out = run_cli(capsys, "gen", "fibonacci", "--k", "10")
    assert code == 0
    assert out == "2 55\nrank1: 1 34\n"


def test_points_exact(tmp_path, capsys):
    spec = tmp_path / "lat.txt"
    run_cli(capsys, "--out", str(spec), "gen", "rank1", "--n", "5", "--g", "1,2")
    code, out = run_cli(capsys, "points", str(spec), "--exact")
    assert code == 0
    assert "1/5,2/5" in out
    assert len(out.strip().splitlines()) == 6  # header + 5 points


def test_isodisc(tmp_path, capsys):
    spec = tmp_path / "lat.txt"
    run_cli(capsys, "--out", str(spec), "gen", "rank1", "--n", "5", "--g", "1,2")
    code, out = run_cli(capsys, "isodisc", str(spec))
    assert code == 0
    data = json.loads(out)
    assert data["thm1"]["verdict"] == "PASS"
    assert data["best"]["certified"]
    assert len(data["witnesses"]) == 10
    # the verdict is taken from the same witness search that is printed
    assert data["best"] in data["witnesses"]
    # sha256 of the recorded output (7716 bytes)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "903b21f638d158b3210f91f3b61c25a18c803fde11ef5f42b62e000d8a99412c"
    assert sorted(data["best"]) == ["body", "certified", "family", "local_value"]
    # the witnesses are the dual slabs alone; nothing is sampled, so no
    # witness reports a standard error, a sample count or a sampling seed
    assert {w["family"] for w in data["witnesses"]} == {"dual-slab"}
    assert all(w["certified"] for w in data["witnesses"])

    def keys(node):
        if isinstance(node, dict):
            return set(node) | set().union(*map(keys, node.values()))
        if isinstance(node, list):
            return set().union(*map(keys, node))
        return set()

    assert not keys(data) & {"std_error", "n_samples", "seed"}


def test_distnorm(tmp_path, capsys):
    spec = tmp_path / "lat.txt"
    run_cli(capsys, "--out", str(spec), "gen", "rank1", "--n", "4", "--g", "1")
    code, out = run_cli(capsys, "distnorm", str(spec), "--gamma", "1,inf")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["value"] == pytest.approx(5 / 64, abs=1e-10)
    assert reports[1]["gamma"] == "inf"
    assert reports[1]["upper_certified"] >= 0.25


def test_distnorm_at_a_tiny_gamma_prints_true_bounds(tmp_path, capsys):
    # gamma = 1e-200 overflowed in the upper end's root; 1e-5 always ran
    spec = tmp_path / "lat.txt"
    spec.write_text("1 7\nrank1: 1\n")
    code, out = run_cli(capsys, "distnorm", str(spec), "--gamma", "1e-200,1e-5")
    assert code == 0

    def refuse(constant):
        raise ValueError(f"distnorm printed {constant}, which is not strict JSON")

    tiny, small = json.loads(out, parse_constant=refuse)
    assert tiny["lower_certified"] == 0.0 and math.copysign(1, tiny["lower_certified"]) == 1
    assert tiny["upper_certified"] == "inf"  # written as the report writes gamma = inf
    assert 0 < small["lower_certified"] <= small["value"] <= small["upper_certified"] < 1


def test_geom_commands(tmp_path, capsys):
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"variant": "ball", "center": [0.5, 0.5], "radius": 0.3}))
    code, out = run_cli(capsys, "geom", "steiner", "--body", str(body), "--rho", "0.1")
    assert code == 0
    assert json.loads(out) == {"value": pytest.approx(math.pi * 0.16, abs=1e-12)}
    code, out = run_cli(
        capsys, "geom", "offset", "--body", str(body), "--rho", "0.1", "--side", "outer"
    )
    assert json.loads(out)["value"] == pytest.approx(math.pi * 0.07, abs=1e-12)
    code, out = run_cli(capsys, "geom", "boundary", "--body", str(body), "--rho", "0.1")
    assert json.loads(out)["value"] == pytest.approx(math.pi * (0.16 - 0.04), abs=1e-12)


def test_geom_inner_offset_of_a_segment_prints_zero(tmp_path, capsys):
    body = tmp_path / "segment.json"
    body.write_text(json.dumps({"variant": "v_polytope", "vertices": [[0.2, 0.3], [0.7, 0.3]]}))
    code, out = run_cli(
        capsys, "geom", "offset", "--body", str(body), "--rho", "0.1", "--side", "inner"
    )
    assert code == 0
    assert out.split() == ["{", '"value":', "0.0", "}"]  # not -0.0


@pytest.mark.parametrize(
    "op,rho",
    [
        ("offset", "nan"),
        ("boundary", "nan"),
        ("steiner", "nan"),
        ("steiner", "inf"),
        ("offset", "inf"),
    ],
)
def test_geom_rho_that_is_not_finite_is_a_usage_error(tmp_path, capsys, op, rho):
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"variant": "ball", "center": [0.5, 0.5], "radius": 0.3}))
    with pytest.raises(SystemExit) as exc:
        main(["geom", op, "--body", str(body), "--rho", rho])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: rho must be a number in [0, 1], got {rho}" in captured.err


@pytest.mark.parametrize("op", ["steiner", "offset", "boundary"])
@pytest.mark.parametrize("rho", ["1e308", "2", "-0.1"])
def test_geom_rho_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, op, rho):
    # steiner once took any finite rho, and 1e308 overflowed in its Steiner sum
    body = tmp_path / "ball.json"
    body.write_text(json.dumps({"variant": "ball", "center": [0.5, 0.5], "radius": 0.3}))
    with pytest.raises(SystemExit) as exc:
        main(["geom", op, "--body", str(body), "--rho", rho])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: rho must be a number in [0, 1], got {float(rho)}" in captured.err


@pytest.mark.parametrize(
    "body, message",
    [
        ({"variant": "ball", "radius": 0.1}, "ball is missing the field 'center'"),
        ({"variant": "axis_box", "lower": [0.1, 0.1]}, "axis_box is missing the field 'upper'"),
        ({"center": [0.5, 0.5], "radius": 0.1}, "body is missing the field 'variant'"),
        (
            {"variant": "cone"},
            "body.variant must be one of ball, axis_box, h_polytope, v_polytope, got 'cone'",
        ),
        (
            {"variant": "ball", "center": [0.5, 0.5], "radius": 0.1, "raduis": 0.3},
            "unknown ball field(s): raduis",
        ),
        ([1, 2], "body must be an object, got [1, 2]"),
        (
            {"variant": "ball", "center": 5, "radius": 0.1},
            "ball.center must be a non-empty list of finite numbers, got 5",
        ),
        (
            {"variant": "axis_box", "lower": [0.1, 0.1], "upper": 0.9},
            "axis_box.upper must be a non-empty list of finite numbers, got 0.9",
        ),
        (
            # the NaN constant is refused where the file is read
            {"variant": "axis_box", "lower": [math.nan, 0.1], "upper": [0.5, 0.5]},
            "the literal NaN in ",  # then the path
        ),
        (
            {"variant": "h_polytope", "normals": [1.0, 0.0], "offsets": [0.5]},
            "h_polytope.normals must be a non-empty list of equally long, "
            "non-empty lists of finite numbers, got [1.0, 0.0]",
        ),
        (
            {"variant": "h_polytope", "normals": [[1.0, 0.0], [-1.0, 0.0]], "offsets": [0.5]},
            "offsets must hold one entry per normal (2), got shape (1,)",
        ),
        (
            {"variant": "v_polytope", "vertices": [[0.1, 0.2], [0.3]]},
            "v_polytope.vertices must be a non-empty list of equally long, "
            "non-empty lists of finite numbers, got [[0.1, 0.2], [0.3]]",
        ),
        (
            {"variant": "ball", "center": [0.5, 0.5], "radius": 10**400},
            f"ball.radius must be a finite number, got {10**400}",
        ),
        (
            {"variant": "axis_box", "lower": [0.1, 0.1], "upper": [0.9, 10**400]},
            "axis_box.upper must be a non-empty list of finite numbers, "
            f"got [0.9, {10**400}]",
        ),
    ],
    ids=[
        "no-center", "no-upper", "no-variant", "unknown-variant", "misspelt-field", "list",
        "ball-scalar-center", "box-scalar-upper", "box-nan-lower", "hpoly-flat-normals",
        "hpoly-offsets-count", "vpoly-ragged-vertices", "ball-radius-beyond-float",
        "box-upper-beyond-float",
    ],
)
def test_geom_malformed_body_is_a_usage_error(tmp_path, capsys, body, message):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    with pytest.raises(SystemExit) as exc:
        main(["geom", "steiner", "--body", str(path), "--rho", "0.1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_geom_polytope_beyond_d4_is_a_usage_error(tmp_path, capsys):
    d = 5
    body = tmp_path / "cube5.json"
    normals = [[float(i == k) * s for k in range(d)] for s in (1, -1) for i in range(d)]
    body.write_text(
        json.dumps({"variant": "h_polytope", "normals": normals, "offsets": [1.0] * d + [0.0] * d})
    )
    with pytest.raises(SystemExit) as exc:
        main(["geom", "steiner", "--body", str(body), "--rho", "0.1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "latdisc: error:" in err and "d = 5" in err
    assert "Traceback" not in err


def test_bounds_remark_csv(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "bounds", "remark", "--dims", "10,100"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,log_sum,log_lower,log_upper"
    assert len(lines) == 3


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_bounds_remark_kappa_that_is_not_finite_is_a_usage_error(capsys, kappa):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "remark", "--kappa", kappa])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"latdisc: error: kappa must be a finite number above e (2 pi)^(1/3), got {kappa}"
    assert expected in captured.err


def test_verify_small_thm1(tmp_path, capsys):
    code, out = run_cli(
        capsys, "--out", str(tmp_path), "--workers", "2", "verify", "thm1", "--small"
    )
    assert code == 0
    assert "FAIL" not in out or "FAIL=0" in out
    assert (tmp_path / "thm1.csv").exists()


def test_campaign_run(tmp_path, capsys):
    spec = {
        "corpus": {
            "fibonacci_k": [5, 6],
            "rank1_dims": [2],
            "rank1_sizes": [64],
            "rank1_per_cell": 1,
            "zd_dims": [2],
            "include_bad_lattice": False,
        },
        "checks": ["thm1", "remark"],
        "budgets": {"remark_dims": [10, 100]},
        "seed": 4,
        "out_dir": str(tmp_path / "artifacts"),
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "campaign", "run", str(path))
    assert code == 0
    assert (tmp_path / "artifacts" / "campaign.json").exists()
    assert "campaign:" in out


def _tiny_campaign_spec(**extra):
    spec = {
        "corpus": {
            "fibonacci_k": [5, 5],
            "rank1_dims": [2],
            "rank1_sizes": [64],
            "rank1_per_cell": 1,
            "zd_dims": [],
            "include_bad_lattice": False,
        },
        "checks": ["spectral-exact"],
        "seed": 4,
    }
    spec.update(extra)
    return spec


@pytest.mark.parametrize(
    "flags,expected_seed",
    [((), 4), (("--seed", "5"), 5), (("--seed", "0"), 0)],
)
def test_campaign_run_seed_without_out(tmp_path, capsys, monkeypatch, flags, expected_seed):
    # --seed applies whether or not --out is given, and 0 is a seed like any other
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_tiny_campaign_spec()))
    code, _ = run_cli(capsys, "campaign", "run", str(path), *flags)
    assert code == 0
    written = json.loads((tmp_path / "default" / "campaign.json").read_text())
    assert written["campaign"]["seed"] == expected_seed


def test_campaign_run_out_keeps_spec_seed(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_tiny_campaign_spec(out_dir=str(tmp_path / "spec-out"))))
    code, _ = run_cli(capsys, "campaign", "run", str(path), "--out", str(tmp_path / "flag-out"))
    assert code == 0
    assert not (tmp_path / "spec-out").exists()
    written = json.loads((tmp_path / "flag-out" / "campaign.json").read_text())
    assert written["campaign"]["seed"] == 4
    assert written["campaign"]["out_dir"] == str(tmp_path / "flag-out")



@pytest.mark.parametrize(
    "text,message",
    [
        ("2 5\n1/5 2/5\n1/0 1\n", "line 3: basis entry '1/0' has a zero denominator"),
        ("2 5\n1/5 two/5\n0 1\n", "line 2: basis entry 'two/5' is not a rational p/q"),
        ("2 5\n1/5 2/5\n0\n", "line 3: basis row has 1 entries, expected 2"),
        ("x 5\n1/5 2/5\n0 1\n", "line 1: dimension d 'x' is not an integer"),
        ("2 5.0\nrank1: 1 2\n", "line 1: point count N '5.0' is not an integer"),
        ("\n2\nrank1: 1 2\n", "line 2: expected \"d N\", got '2'"),
        ("2 5\nrank1: 1 2/1\n", "line 2: rank1 generator entry '2/1' is not an integer"),
        ("2 5\nrank1: 1 2 3\n", "line 2: rank1 generator has 3 entries, expected 2"),
        ("2 5\nrank1: 1 2\n1/5 2/5\n", "line 3: unexpected line after the rank1 generator"),
    ],
)
def test_bad_lattice_spec_names_line_and_field(tmp_path, capsys, text, message):
    spec = tmp_path / "bad.lat"
    spec.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["spectral", str(spec)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {message}" in err
    assert "Traceback" not in err


_N155 = 10**155
_F1480, (_, _F1479) = fibonacci_generator(1480)


@pytest.mark.parametrize("command", ["spectral", "isodisc"])
@pytest.mark.parametrize(
    "text, what",
    [
        # an LLL row of norm ~1e155, whose float squared norm is inf
        (f"2 {_N155}\nrank1: 1 {(_N155 // 3) | 1}\n", "a Gram-Schmidt squared norm"),
        # the k = 1480 Fibonacci lattice, whose candidate bound is beyond 1.8e308
        (f"2 {_F1480}\nrank1: 1 {_F1479}\n", "the bound"),
    ],
    ids=["rank1-1e155", "fibonacci-1480"],
)
def test_lattice_beyond_float_pruning_is_a_usage_error(tmp_path, capsys, command, text, what):
    spec = tmp_path / "big.lat"
    spec.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, str(spec)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: {what} is beyond the float range" in captured.err
    assert "Traceback" not in captured.err


def test_gen_fibonacci_small_k_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "fibonacci", "--k", "2"])
    assert exc.value.code == 2
    assert "latdisc: error: k must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["zd", "korobov"])
@pytest.mark.parametrize("d", ["0", "-2"])
def test_gen_dimension_below_one_is_a_usage_error(capsys, family, d):
    with pytest.raises(SystemExit) as exc:
        main(["gen", family, "--n", "5", "--d", d])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: --d must be an integer >= 1, got {d}" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("gen", "rank1", "--n", "5", "--g", "1,x"), "--g: entry 'x' is not an integer"),
        (("bounds", "remark", "--dims", "10,1e3"), "--dims: entry '1e3' is not an integer"),
        (("distnorm", "{spec}", "--gamma", "1,two"), "--gamma: entry 'two' is not a number or inf"),
        (("distnorm", "{spec}", "--gamma", ""), "--gamma: the list is empty"),
        (("distnorm", "{spec}", "--gamma", ","), "--gamma: the list is empty"),
        (("bounds", "remark", "--dims", ""), "--dims: the list is empty"),
        (("gen", "rank1", "--n", "5", "--g", ","), "--g: the list is empty"),
        (("bounds", "remark", "--dims", "0,10"), "--dims must be a list of integers >= 1, got [0, 10]"),
        # a repeated entry would print its row or report twice
        (("bounds", "remark", "--dims", "10,100,10"), "--dims: entry '10' repeats the earlier entry '10'"),
        (("distnorm", "{spec}", "--gamma", "1,inf,1.0"), "--gamma: entry '1.0' repeats the earlier entry '1'"),
    ],
)
def test_bad_list_entry_names_the_flag_and_the_entry(tmp_path, capsys, argv, message):
    spec = tmp_path / "lat.txt"
    spec.write_text("1 4\nrank1: 1\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(spec=spec) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {message}" in err
    assert "Traceback" not in err


def test_a_generator_may_repeat_an_entry(capsys):
    # --g is a vector, not a list of choices: (1, 1) is the Fibonacci lattice of k = 3
    code, out = run_cli(capsys, "gen", "rank1", "--n", "2", "--g", "1,1")
    assert code == 0
    assert out == "2 2\nrank1: 1 1\n"


def test_campaign_spec_with_small_fibonacci_k_fails_at_load(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    spec = _tiny_campaign_spec()
    spec["corpus"]["fibonacci_k"] = [2, 5]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    message = "corpus.fibonacci_k must be a pair (k_lo, k_hi) of integers with k_lo >= 3, got (2, 5)"
    assert f"latdisc: error: {message}" in err
    assert not (tmp_path / "default").exists()


def test_every_option_has_help():
    import argparse

    from latdisc.cli import build_parser

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from walk(sub, path + (name,))
            elif action.option_strings:
                yield path, action

    options = list(walk(build_parser(), ("latdisc",)))
    assert len(options) > 20
    missing = [(" ".join(p), a.option_strings) for p, a in options if not a.help]
    assert missing == []


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("corpus", "rank1_per_cell", "2", "corpus.rank1_per_cell must be an integer >= 0, got '2'"),
        ("budgets", "rhos", [0.1, "x"], "budgets.rhos must be a list of numbers in [0, 1], got (0.1, 'x')"),
    ],
)
def test_campaign_spec_field_of_wrong_type_fails_at_load(
    tmp_path, capsys, monkeypatch, section, key, value, message
):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    spec = _tiny_campaign_spec(budgets={})
    spec[section][key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", [("verify", "thm1", "--small"), ("campaign", "run", "{spec}")])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, workers, command):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_tiny_campaign_spec()))
    with pytest.raises(SystemExit) as exc:
        main(["--workers", workers, *(a.format(spec=spec) for a in command)])
    assert exc.value.code == 2
    assert f"latdisc: error: --workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "default").exists()


def test_isodisc_budget_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "lat.txt"
    spec.write_text("2 5\nrank1: 1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["isodisc", str(spec), "--budget", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


def test_campaign_spec_with_witness_budget_fails_at_load(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_tiny_campaign_spec(budgets={"witness_budget": 3})))
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "latdisc: error: unknown budgets field(s): witness_budget" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("spectral", "{missing}"),
        ("geom", "steiner", "--body", "{missing}", "--rho", "0.1"),
        ("campaign", "run", "{missing}"),
        ("spectral", "{directory}"),
        ("campaign", "run", "{binary}"),
    ],
    ids=["lattice", "body", "spec", "directory", "binary"],
)
def test_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    paths = {"missing": tmp_path / "nonexistent", "directory": tmp_path, "binary": tmp_path / "b"}
    paths["binary"].write_bytes(b"\xff\xfe")  # not UTF-8 text
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    path = next(str(p) for k, p in paths.items() if f"{{{k}}}" in argv)
    assert f"latdisc: error: cannot read {path}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "default").exists()


@pytest.mark.parametrize(
    "argv",
    [("geom", "steiner", "--body", "{path}", "--rho", "0.1"), ("campaign", "run", "{path}")],
    ids=["body", "spec"],
)
def test_file_that_is_not_json_is_a_usage_error_naming_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    path = tmp_path / "x.json"
    path.write_text("not json\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {path} is not JSON: Expecting value: line 1 column 1 (char 0)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--cap", "0"), "lattice has 21 points, cap is 0"),
        (
            ("--precision", "-1"),
            f"--precision must be an integer from 0 to {sys.get_int_max_str_digits()} "
            "(sys.get_int_max_str_digits()), got -1",
        ),
    ],
)
def test_points_refusal_is_a_usage_error(tmp_path, capsys, flags, message):
    spec = tmp_path / "fib.lat"
    spec.write_text("2 21\nrank1: 1 13\n")
    with pytest.raises(SystemExit) as exc:
        main(["points", str(spec), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "-1e-4", "nan", "inf"])
def test_distnorm_tol_that_is_not_finite_positive_is_a_usage_error(tmp_path, capsys, tol):
    spec = tmp_path / "r13.lat"
    spec.write_text("2 13\nrank1: 1 5\n")
    with pytest.raises(SystemExit) as exc:
        main([f"--tol={tol}", "distnorm", str(spec), "--gamma", "1,inf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "latdisc: error: --tol must be a finite positive number, got " in err
    assert "Traceback" not in err


def test_spectral_and_isodisc_name_the_same_shortest_dual_vector(tmp_path, capsys):
    # fib-k05 has two shortest dual vectors, (2, 1) and (-1, 2)
    spec = tmp_path / "fib5.lat"
    spec.write_text("2 5\nrank1: 1 3\n")
    code, out = run_cli(capsys, "spectral", str(spec))
    assert code == 0
    h = json.loads(out)["shortest_dual"]
    code, out = run_cli(capsys, "isodisc", str(spec))
    assert code == 0
    first = json.loads(out)["witnesses"][0]["body"]["normals"][0]
    assert h == [int(x) for x in first] == [-1, 2]


def test_geom_inner_body_qhull_cannot_measure_is_a_usage_error(tmp_path, capsys):
    # the second d = 5 hull that random_body draws from this stream: 22 points,
    # whose inner parallel body at rho = 0.01 has thousands of vertices
    rng = np.random.default_rng(20200817)
    for d, kind in [(4, "hpoly")] * 4 + [(4, "hull")] * 4 + [(5, "hpoly")] * 4:
        random_body(d, rng, kind)
    first, second = random_body(5, rng, "hull"), random_body(5, rng, "hull")
    assert (len(first.vertices), len(second.vertices)) == (9, 22)
    argv = ["geom", "offset", "--side", "inner", "--rho", "0.01", "--body"]
    for body in (first, second):
        path = tmp_path / f"hull{len(body.vertices)}.json"
        path.write_text(json.dumps({"variant": "v_polytope", "vertices": body.vertices.tolist()}))
        if body is first:
            code, out = run_cli(capsys, *argv, str(path))
            assert code == 0 and json.loads(out)["value"] == pytest.approx(7.916e-4, rel=1e-3)
            continue
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        message = "qhull cannot measure the inner parallel body of this d = 5 polytope at rho = 0.01"
        assert f"latdisc: error: {message}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("gamma, entry", [("1e400,2", "1e400"), ("1,-1e999", "-1e999")])
def test_an_infinite_gamma_not_spelled_inf_is_a_usage_error(tmp_path, capsys, gamma, entry):
    spec = tmp_path / "fib.lat"
    spec.write_text("2 21\nrank1: 1 13\n")
    with pytest.raises(SystemExit) as exc:
        main(["distnorm", str(spec), "--gamma", gamma])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"latdisc: error: --gamma: entry '{entry}' is beyond the float range" in captured.err
    # inf is spelled as float() reads it
    code, out = run_cli(capsys, "distnorm", str(spec), "--gamma", "Infinity")
    assert code == 0 and json.loads(out)[0]["gamma"] == "inf"


@pytest.mark.parametrize(
    "section, key, value, literal",
    [
        ("budgets", "prop1_gammas", "[1e400]", "1e400"),
        ("budgets", "thm2_triples", "[[2, 1e400, 1]]", "1e400"),
        ("budgets", "prop1_gammas", "[Infinity]", "Infinity"),
        ("budgets", "remark_kappa", "-Infinity", "-Infinity"),
        ("budgets", "rhos", "[NaN]", "NaN"),
        (None, "corrupt_rhs_scale", "1e999", "1e999"),
    ],
)
def test_a_spec_number_no_float_holds_is_a_usage_error(
    tmp_path, capsys, monkeypatch, section, key, value, literal
):
    # each once loaded as an infinity or a nan; a spec spells infinity "inf"
    monkeypatch.setenv("LATDISC_OUT", str(tmp_path / "default"))
    spec = _tiny_campaign_spec(budgets={})
    (spec[section] if section else spec)[key] = "@"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec).replace('"@"', value))
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: the literal {literal} in {path} is not a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "fibonacci", "--k", "100000"), "--k must be an integer whose F_k has at most"),
        (("points", "{spec}", "--precision", "5000"), "--precision must be an integer from 0 to"),
    ],
)
def test_an_integer_too_long_to_print_names_its_flag(tmp_path, capsys, argv, message):
    spec = tmp_path / "fib.lat"
    spec.write_text("2 21\nrank1: 1 13\n")
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main([a.format(spec=spec) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"latdisc: error: {message} {limit}" in err
    assert f"(sys.get_int_max_str_digits()), got {argv[-1]}" in err
    assert "Traceback" not in err
    # the limit itself prints
    code, out = run_cli(capsys, "points", str(spec), "--precision", str(limit))
    assert code == 0 and len(out.splitlines()[2].split(",")[0]) == limit + 2  # "0." and the digits
