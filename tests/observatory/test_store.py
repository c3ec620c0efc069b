"""Store tests: exact round-trips, idempotency, gc, crash tolerance."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.observatory import (
    HISTORY_FILENAME,
    CurveRecord,
    ObservatoryStore,
    RunRecord,
)

from .util import db_from, drifting_history, seeded_store

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def empty_run(run_id, timestamp="2026-07-01T00:00:00+00:00", **overrides):
    fields = dict(
        run_id=run_id,
        git_sha="cafe1234",
        timestamp=timestamp,
        scale=2.0,
        source="profile",
        events=100,
        metrics={},
        curves=[],
        points={},
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_round_trip_through_reopen(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    before_runs = store.runs()
    before_curves = {name: store.curve_trajectory(name)
                     for name in store.routines()}
    before_points = store.points_for(0, "victim")
    assert before_points, "top-K raw plot points should be stored"
    store.close()

    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert len(reopened) == 5
    assert reopened.runs() == before_runs
    assert reopened.routines() == ["loglike", "stable", "victim"]
    for name, curves in before_curves.items():
        assert reopened.curve_trajectory(name) == curves
    assert reopened.points_for(0, "victim") == before_points


def test_add_run_is_idempotent_by_run_id(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    record = empty_run("r1", metrics={"farm.jobs": 4.0})
    assert store.add_run(record)
    assert not store.add_run(record)
    assert not store.add_run(record._replace(git_sha="other"))
    assert len(store) == 1
    assert store.has_run("r1")

    with open(store.path, encoding="utf-8") as stream:
        lines = [line for line in stream if line.strip()]
    # one meta line + one run line: the duplicate never reached the log
    assert len(lines) == 2


def test_metrics_scale_and_curves_round_trip_exactly(tmp_path):
    # values with more than six fractional digits read back unchanged,
    # both from the live store and after a replay of the log
    curve = CurveRecord(
        routine="f", model="O(n)", a=3.14159265358979, b=-0.000000271828,
        r2=0.99999987654321, points=8, max_size=512,
        exponent=1.00000123456789,
    )
    metrics = {"farm.events_per_s": 12345.6789012345, "counter.drops": 3.0,
               "ratio": 1e-9}
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("r1", scale=0.1234567891, metrics=metrics,
                            curves=[curve]))
    for opened in (store, ObservatoryStore(str(tmp_path / "obs"))):
        (info,) = opened.runs()
        assert info.scale == 0.1234567891
        assert opened.metrics_for(info.seq) == metrics
        (row,) = opened.curve_trajectory("f")
        assert (row.a, row.b, row.r2, row.exponent) == (
            curve.a, curve.b, curve.r2, curve.exponent)
        assert opened.curves_for_run(info.seq) == [row]


def test_curve_row_predict_matches_fit(tmp_path):
    store = seeded_store(tmp_path / "obs", [db_from({"f": lambda n: 10 * n})])
    (row,) = store.curve_trajectory("f")
    assert row.model == "O(n)"
    assert row.predict(64) == pytest.approx(640, rel=0.05)
    assert row.exponent == pytest.approx(1.0, abs=0.1)


def test_runs_ordered_by_timestamp_then_seq(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("late", timestamp="2026-07-09T00:00:00+00:00"))
    store.add_run(empty_run("early", timestamp="2026-07-01T00:00:00+00:00"))
    assert [info.run_id for info in store.runs()] == ["early", "late"]


def test_gc_keeps_newest_runs_and_compacts_log(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    assert store.gc(keep=2) == 3
    assert len(store) == 2
    assert [info.run_id for info in store.runs()] == ["run3", "run4"]
    # the compaction is durable: a reopen sees the same survivors
    store.close()
    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert [info.run_id for info in reopened.runs()] == ["run3", "run4"]
    assert reopened.curve_trajectory("victim")[0].model == "O(n^2)"


def test_gc_noop_when_keep_covers_history(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history(runs=2))
    assert store.gc(keep=5) == 0
    assert len(store) == 2
    with pytest.raises(ValueError):
        store.gc(keep=-1)


def test_truncated_trailing_line_is_ignored(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history(runs=2))
    store.close()
    path = tmp_path / "obs" / HISTORY_FILENAME
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"type": "run", "run_id": "torn')   # crash mid-append
    reopened = ObservatoryStore(str(path.parent))
    assert len(reopened) == 2
    # the store stays writable after recovery
    assert reopened.add_run(empty_run("r3"))
    assert len(reopened) == 3


def test_append_after_torn_line_survives_reopen(tmp_path):
    """An append after a crash-torn line must land on a line of its own,
    or replay drops the new, acknowledged run with the fragment."""
    store = seeded_store(tmp_path / "obs", drifting_history(runs=2))
    with open(store.path, "a", encoding="utf-8") as stream:
        stream.write('{"type": "run", "run_id": "torn')   # crash mid-append
    assert store.add_run(empty_run("r3"))
    store.close()
    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert len(reopened) == 3
    assert reopened.has_run("r3")
    assert not reopened.has_run("torn")


def test_history_lines_are_self_describing(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("r1", curves=[
        CurveRecord("f", "O(n)", 10.0, 1.0, 0.99, 5, 64, 1.02),
    ]))
    with open(store.path, encoding="utf-8") as stream:
        records = [json.loads(line) for line in stream if line.strip()]
    assert records[0] == {"type": "meta", "schema": "repro-observatory/1"}
    assert records[1]["type"] == "run"
    assert records[1]["schema"] == "repro-observatory/1"
    assert records[1]["curves"][0]["model"] == "O(n)"


def test_store_creates_directory(tmp_path):
    root = tmp_path / "deep" / "obs"
    store = ObservatoryStore(str(root))
    assert os.path.exists(store.path)
    assert len(store) == 0
    assert store.runs() == []


def test_store_does_not_load_the_profiled_workloads(tmp_path):
    # minidb is a workload the paper profiles, not the store's engine:
    # opening a store and ingesting a dump must not import it (nor the
    # pytrace tracer it runs under)
    dump = tmp_path / "run.profile"
    dump.write_text("\n".join(
        ["repro-profile 1", "F lower_bound=0", "G 0 0", "P f\t0\t0\t0"]
        + [f"S {n} 1 {10 * n} {10 * n} {10 * n} {100 * n * n}"
           for n in (4, 8, 16, 32)]) + "\n")
    script = textwrap.dedent(f"""
        import sys
        from repro.observatory import ObservatoryStore, ingest_path
        store = ObservatoryStore({str(tmp_path / "obs")!r})
        assert ingest_path(store, {str(dump)!r}).ingested
        assert store.curve_trajectory("f")
        print(sorted(name for name in sys.modules
                     if name.startswith(("repro.minidb", "repro.pytrace"))))
    """)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
