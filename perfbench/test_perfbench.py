"""The benchmark's own tests, at toy scale. Run with

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from latdisc.harness import run_campaign  # noqa: E402


def _toy(tmp_path, workload, trace, **kw):
    return run.measure(
        workload, 5, seconds=0, trace=trace, out_dir=str(tmp_path / workload), toy=True, **kw
    )


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_expected_rows_match_campaign(workload):
    c = workloads.campaign(workload, 5, toy=True)
    result = run_campaign(c)
    got = {}
    for r in result.rows:
        got[r["check"]] = got.get(r["check"], 0) + 1
    assert got == dict(workloads.expected_rows(c))
    assert {workloads.task_of(r) for r in result.rows} <= set(workloads.task_list(c))


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    out = _toy(tmp_path, "thm1", False, setup=run.setup_times("thm1", 5, probes=1))
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["metrics"]["pass_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    out = _toy(tmp_path, workload, True)
    res, record = out["result"], out["record"]
    # one hash for the untraced and the traced repetition: wrappers change nothing
    assert res["correct"] and len(record["campaign_sha256"]) == 1
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == spans.METRICS
    self_total = sum(res["metrics"][f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert 0 < self_total <= record["traced_rep_wall_s"][0]
    assert res["metrics"]["harness.task.count"]["value"] == record["tasks"]


def test_traced_counts_follow_the_workload(tmp_path):
    m = {k: v["value"] for k, v in _toy(tmp_path, "body", True)["result"]["metrics"].items()}
    assert m["lattice.enumerate_points.calls"] == 0
    assert m["convex.HPolytope.dist_many_capped.d4.points"] > 0
    assert m["montecarlo.box_fractions_multi.samples"] > 0
    m = {k: v["value"] for k, v in _toy(tmp_path, "thm1", True)["result"]["metrics"].items()}
    assert m["distance.distance_norms.calls"] == 0
    assert m["lattice.enumerate_points.points"] > 0
    assert 0 < m["discrepancy.witness.certified_frac"] < 1  # ball witnesses are never certified


def test_injected_fail_is_counted(tmp_path):
    res = _toy(tmp_path, "body", False, corrupt_check="lemma3")["result"]
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["pass_frac"]["value"] < 1


def test_row_count_mismatch_fails_every_task(tmp_path, monkeypatch):
    real = workloads.expected_rows

    def one_more(c):
        rows = real(c)
        rows["thm1"] += 1
        return rows

    monkeypatch.setattr(workloads, "expected_rows", one_more)
    res = _toy(tmp_path, "thm1", False)["result"]
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_run_without_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_skips_functions_the_program_lost():
    mod = types.ModuleType("fake")
    mod.kept = lambda x: x + 1
    tracer = spans.Tracer()
    tracer.rebind(mod, "gone", "fake.gone")
    tracer.rebind(mod, "kept", "fake.kept", lambda a, k, out: {"points": out[0]})
    assert mod.kept(1) == 2  # counts that no longer fit the return value are skipped
    tracer.uninstall()
    assert tracer.missing == ["fake.gone", "counts of fake.kept"]
    assert [s["name"] for s in tracer.spans] == ["fake.kept"]
