"""Gate tests: envelope comparison, summary artifact, observatory hook."""

import io
import json
import os

from repro.observatory import ObservatoryStore, record_from_profile_db
from tools.bench_gate import SUMMARY_SCHEMA, compare_envelopes, run_gate

SIZES = (4, 8, 16, 32, 64)


def envelope(run_id, ratios, scale=1.0, bench="kernel"):
    return {
        "schema": "repro-bench/1",
        "run_id": run_id,
        "git_sha": "cafe1234",
        "timestamp": "2026-08-01T00:00:00+00:00",
        "bench": bench,
        "scale": scale,
        "metrics": {"gate": {"scale": scale, "ratios": dict(ratios)}},
    }


def write_envelope(directory, name, payload):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    return path


def gate_dirs(tmp_path, baseline_ratios, fresh_ratios, name="kernel.json"):
    baselines = str(tmp_path / "baselines")
    results = str(tmp_path / "results")
    write_envelope(baselines, name, envelope("base-1", baseline_ratios))
    write_envelope(results, name, envelope("fresh-1", fresh_ratios))
    return results, baselines


def profile_db(cost_fn):
    from repro.core import ProfileDatabase

    db = ProfileDatabase()
    for size in SIZES:
        db.add_activation("hot", 1, size, int(cost_fn(size)))
    return db


def test_clean_gate_writes_ok_summary(tmp_path):
    results, baselines = gate_dirs(tmp_path, {"speedup": 2.0}, {"speedup": 2.1})
    summary_path = str(tmp_path / "summary.json")
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines,
                    summary_path=summary_path, out=out)
    assert code == 0
    assert "all baselines hold" in out.getvalue()
    with open(summary_path, encoding="utf-8") as stream:
        summary = json.load(stream)
    assert summary["schema"] == SUMMARY_SCHEMA
    assert summary["ok"] is True
    assert summary["problems"] == []
    (compared,) = summary["compared"]
    assert compared["status"] == "ok"
    assert compared["baseline_run_id"] == "base-1"
    assert compared["fresh_run_id"] == "fresh-1"


def test_regression_fails_and_lands_in_summary(tmp_path):
    results, baselines = gate_dirs(tmp_path, {"speedup": 2.0}, {"speedup": 1.0})
    summary_path = str(tmp_path / "summary.json")
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines, tolerance=0.25,
                    summary_path=summary_path, out=out)
    assert code == 1
    assert "FAIL" in out.getvalue()
    with open(summary_path, encoding="utf-8") as stream:
        summary = json.load(stream)
    assert summary["ok"] is False
    (compared,) = summary["compared"]
    assert compared["status"] == "fail"
    assert any("speedup" in violation for violation in compared["violations"])


def test_missing_fresh_envelope_is_a_problem(tmp_path):
    results, baselines = gate_dirs(tmp_path, {"speedup": 2.0}, {"speedup": 2.0})
    os.remove(os.path.join(results, "kernel.json"))
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines,
                    summary_path=str(tmp_path / "s.json"), out=out)
    assert code == 1
    assert "no fresh envelope" in out.getvalue()


def test_compare_envelopes_scale_mismatch():
    base = envelope("b", {"speedup": 2.0}, scale=1.0)
    fresh = envelope("f", {"speedup": 2.0}, scale=2.0)
    (problem,) = compare_envelopes(base, fresh, "kernel.json", 0.25)
    assert "scales differ" in problem


def test_gate_ingests_envelopes_into_observatory(tmp_path):
    results, baselines = gate_dirs(tmp_path, {"speedup": 2.0}, {"speedup": 2.1})
    # the gate's own summary artifact in the results dir must be skipped
    write_envelope(results, "bench_gate_summary.json",
                   {"schema": SUMMARY_SCHEMA, "ok": True})
    observatory = str(tmp_path / "obs")
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines,
                    summary_path=str(tmp_path / "s.json"),
                    observatory=observatory, out=out)
    assert code == 0
    assert "1 envelope(s) ingested" in out.getvalue()
    store = ObservatoryStore(observatory)
    (info,) = store.runs()
    assert info.run_id == "fresh-1"
    with open(tmp_path / "s.json", encoding="utf-8") as stream:
        summary = json.load(stream)
    assert summary["observatory"]["ingested"] == ["fresh-1"]
    assert summary["observatory"]["drift_gated"] is False

    # second run: idempotent by run id
    out = io.StringIO()
    run_gate(results, baselines_dir=baselines,
             summary_path=str(tmp_path / "s.json"),
             observatory=observatory, out=out)
    assert "1 already known" in out.getvalue()


def test_fail_on_drift_trips_on_regressed_history(tmp_path):
    observatory = str(tmp_path / "obs")
    store = ObservatoryStore(observatory)
    store.add_run(record_from_profile_db(
        profile_db(lambda n: 10 * n), run_id="old",
        timestamp="2026-07-01T00:00:00+00:00"))
    store.add_run(record_from_profile_db(
        profile_db(lambda n: n * n), run_id="new",
        timestamp="2026-07-02T00:00:00+00:00"))
    store.close()

    results, baselines = gate_dirs(tmp_path, {"speedup": 2.0}, {"speedup": 2.1})
    summary_path = str(tmp_path / "s.json")
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines,
                    summary_path=summary_path,
                    observatory=observatory, fail_on_drift=True, out=out)
    assert code == 1
    text = out.getvalue()
    assert "hot regressed O(n) -> O(n^2)" in text
    assert "growth-class drift" in text
    with open(summary_path, encoding="utf-8") as stream:
        summary = json.load(stream)
    assert summary["ok"] is False
    assert summary["observatory"]["drift_gated"] is True
    assert summary["observatory"]["drift_regressions"] == 1
    (alert,) = [a for a in summary["observatory"]["alerts"]
                if a["verdict"] == "regressed"]
    assert alert["routine"] == "hot"

    # without the gate flag the drift is reported but does not fail
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines,
                    summary_path=summary_path,
                    observatory=observatory, fail_on_drift=False, out=out)
    assert code == 0
    assert "hot regressed" in out.getvalue()


def test_rebaseline_skips_non_envelope_json(tmp_path):
    results = str(tmp_path / "results")
    baselines = str(tmp_path / "baselines")
    write_envelope(results, "kernel.json", envelope("r1", {"speedup": 2.0}))
    write_envelope(results, "bench_gate_summary.json",
                   {"schema": SUMMARY_SCHEMA, "ok": True})
    write_envelope(results, "no_gate.json",
                   {"schema": "repro-bench/1", "run_id": "r2", "metrics": {}})
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines, rebaseline=True, out=out)
    assert code == 0
    assert sorted(os.listdir(baselines)) == ["kernel.json"]


def test_rebaseline_named_bench_leaves_other_baselines_untouched(tmp_path):
    results = str(tmp_path / "results")
    baselines = str(tmp_path / "baselines")
    old_kernel = write_envelope(baselines, "kernel.json",
                                envelope("old-k", {"speedup": 2.0}))
    write_envelope(baselines, "farm.json", envelope("old-f", {"speedup": 1.0}))
    with open(old_kernel, encoding="utf-8") as stream:
        kernel_before = stream.read()
    write_envelope(results, "kernel.json", envelope("new-k", {"speedup": 3.0}))
    write_envelope(results, "farm.json", envelope("new-f", {"speedup": 1.5}))
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines, rebaseline=True,
                    benches=["farm"], out=out)
    assert code == 0
    with open(old_kernel, encoding="utf-8") as stream:
        assert stream.read() == kernel_before
    with open(os.path.join(baselines, "farm.json"), encoding="utf-8") as stream:
        assert json.load(stream)["run_id"] == "new-f"
    assert "rebaselined farm.json" in out.getvalue()
    assert "kernel.json" not in out.getvalue()


def test_rebaseline_unknown_bench_copies_nothing(tmp_path):
    results = str(tmp_path / "results")
    baselines = str(tmp_path / "baselines")
    write_envelope(results, "kernel.json", envelope("new-k", {"speedup": 3.0}))
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines, rebaseline=True,
                    benches=["kernel", "nope"], out=out)
    assert code == 1
    assert "nope.json" in out.getvalue()
    assert not os.path.exists(baselines)


def latency_envelope(run_id, p99, bench="service_slap"):
    payload = envelope(run_id, {}, bench=bench)
    payload["metrics"]["gate"]["latency_ms"] = {"put_p99": p99}
    return payload


def test_latency_growth_past_tolerance_fails():
    base = latency_envelope("b", 10.0)
    fresh = latency_envelope("f", 14.0)
    (problem,) = compare_envelopes(base, fresh, "slap.json", 0.25)
    assert "latency_ms.put_p99 grew" in problem
    assert "40.0%" in problem


def test_latency_within_tolerance_passes():
    base = latency_envelope("b", 10.0)
    fresh = latency_envelope("f", 12.0)
    assert compare_envelopes(base, fresh, "slap.json", 0.25) == []


def test_latency_improvement_passes():
    base = latency_envelope("b", 10.0)
    fresh = latency_envelope("f", 2.0)
    assert compare_envelopes(base, fresh, "slap.json", 0.25) == []


def test_missing_latency_key_is_a_problem():
    base = latency_envelope("b", 10.0)
    fresh = envelope("f", {})
    (problem,) = compare_envelopes(base, fresh, "slap.json", 0.25)
    assert "latency_ms.put_p99 missing" in problem


def test_latency_gate_end_to_end(tmp_path):
    baselines = str(tmp_path / "baselines")
    results = str(tmp_path / "results")
    write_envelope(baselines, "slap.json", latency_envelope("base-1", 10.0))
    write_envelope(results, "slap.json", latency_envelope("fresh-1", 40.0))
    out = io.StringIO()
    code = run_gate(results, baselines_dir=baselines, tolerance=0.25,
                    summary_path=str(tmp_path / "s.json"), out=out)
    assert code == 1
    assert "latency_ms.put_p99 grew" in out.getvalue()


def test_no_baselines_is_a_failure(tmp_path):
    results = str(tmp_path / "results")
    write_envelope(results, "kernel.json", envelope("r1", {"speedup": 2.0}))
    out = io.StringIO()
    code = run_gate(results, baselines_dir=str(tmp_path / "missing"),
                    summary_path=str(tmp_path / "s.json"), out=out)
    assert code == 1
    assert "no baselines" in out.getvalue()
