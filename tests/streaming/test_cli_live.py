"""CLI round trip: ``repro record --live`` and ``repro watch``."""

import filecmp
import io

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_record_live_then_watch_then_batch_identity(tmp_path):
    trace = str(tmp_path / "live.rpt2")
    ckpt = str(tmp_path / "ckpt")
    code, output = run_cli(
        "record", "376.kdtree", trace, "--threads", "2", "--scale", "0.3",
        "--live", ckpt, "--checkpoint-events", "2000")
    assert code == 0
    assert "live checkpoint" in output

    code, frame = run_cli("watch", ckpt, "--once")
    assert code == 0
    assert "repro watch" in frame and "closed" in frame

    streamed = str(tmp_path / "streamed.profile")
    batch = str(tmp_path / "batch.profile")
    from repro.streaming import checkpoint_dump_bytes

    with open(streamed, "wb") as stream:
        stream.write(checkpoint_dump_bytes(ckpt))
    code, _ = run_cli("analyze", trace, "--dump", batch)
    assert code == 0
    assert filecmp.cmp(streamed, batch, shallow=False)


def test_watch_follows_a_growing_trace(tmp_path):
    """``repro watch <trace> --checkpoints DIR --once`` co-tails: it can
    analyse a finished trace from scratch with no recorder help."""
    trace = str(tmp_path / "t.rpt2")
    ckpt = str(tmp_path / "ckpt")
    code, _ = run_cli("record", "376.kdtree", trace, "--threads", "2",
                      "--scale", "0.2", "--live", str(tmp_path / "unused"))
    assert code == 0
    code, frame = run_cli("watch", trace, "--checkpoints", ckpt, "--once")
    assert code == 0
    assert "checkpoint #" in frame


def test_record_live_requires_v2(tmp_path):
    code, output = run_cli(
        "record", "376.kdtree", str(tmp_path / "t.trace"), "--format", "v1",
        "--live", str(tmp_path / "ckpt"))
    assert code == 2
    assert "--live" in output


def test_watch_without_checkpoints_errors(tmp_path):
    code, output = run_cli("watch", str(tmp_path / "nothere"), "--once")
    assert code != 0
