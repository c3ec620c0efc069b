"""Checkpoint emitter: periodic partial-profile snapshots, atomically.

While a trace streams, the incremental engine's
:class:`~repro.core.profile_data.ProfileDatabase` is a running partial
profile; this module materialises it for everything downstream (the
``repro watch`` dashboard, observatory ingest, ``put_stream`` uploads).
The design constraints:

* **Atomic + sequenced.**  Every checkpoint is written to a temp file
  and ``os.replace``\\ d into ``checkpoint-<seq>.profile`` (or
  ``.delta``); a ``CURRENT.json`` manifest — itself replaced atomically
  — names the newest sequence, its lag metrics, and the file chain a
  reader needs.  A reader never observes a half-written snapshot.

* **Delta-encoded where profitable** (Arafa et al.'s redundancy
  suppression, applied to snapshots): only the ``(routine, thread)``
  blocks whose stats changed since the previous checkpoint are written,
  under a ``repro-profile-delta 1`` header naming the base sequence.
  When the delta would not be smaller — early in a run nearly every
  block changes — a full ``repro-profile 1`` dump is written instead,
  and at least every ``full_every`` checkpoints regardless, to bound
  reader chain length.

* **Byte-compatible.**  Block text is produced by exactly the
  :func:`repro.farm.merge.save_profile` formatting rules, so
  :func:`checkpoint_dump_bytes` (base + deltas reassembled) is the very
  byte string ``save_profile`` would emit for the same database —
  that's what the streaming differential suite compares against batch
  ``repro analyze --metric trms`` output.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.profile_data import ProfileDatabase
from ..core.tracefile import escape_name, unescape_name
from ..farm.merge import PROFILE_MAGIC, ProfileDumpError, load_profile

__all__ = [
    "MANIFEST_NAME",
    "STREAM_SCHEMA",
    "DELTA_MAGIC",
    "CheckpointInfo",
    "SnapshotWriter",
    "load_manifest",
    "checkpoint_dump_bytes",
    "load_checkpoint",
]

MANIFEST_NAME = "CURRENT.json"
STREAM_SCHEMA = "repro-stream/1"
DELTA_MAGIC = "repro-profile-delta 1"

_BlockKey = Tuple[str, int]


class CheckpointInfo(NamedTuple):
    """What :meth:`SnapshotWriter.emit` just wrote."""

    seq: int
    path: str
    delta: bool            #: True when the file is a delta, not a full dump
    bytes_written: int
    blocks_changed: int


def _profile_blocks(db: ProfileDatabase) -> Tuple[str, Dict[_BlockKey, str]]:
    """Split a database into save_profile-formatted text pieces.

    Returns ``(header, blocks)``: the ``F``/``G`` lines and one text
    block per ``(routine, thread)`` profile.  Concatenating
    ``PROFILE_MAGIC``, header and the blocks in sorted key order is
    byte-for-byte :func:`repro.farm.merge.save_profile` output — keep
    the formatting here in lockstep with that function.
    """
    header = (
        f"F lower_bound={int(db.sizes_lower_bound)}\n"
        f"G {db.global_induced_thread} {db.global_induced_external}\n"
    )
    blocks: Dict[_BlockKey, str] = {}
    for key, profile in db._profiles.items():
        lines = [
            f"P {escape_name(profile.routine)}\t{profile.thread}\t"
            f"{profile.induced_thread_sum}\t{profile.induced_external_sum}\n"
        ]
        for size in sorted(profile.points):
            stats = profile.points[size]
            lines.append(
                f"S {size} {stats.calls} {stats.cost_min} {stats.cost_max} "
                f"{stats.cost_sum} {stats.cost_sumsq}\n"
            )
        blocks[key] = "".join(lines)
    return header, blocks


def _assemble(header: str, blocks: Dict[_BlockKey, str]) -> str:
    """Full ``repro-profile 1`` text from header + blocks."""
    parts = [PROFILE_MAGIC + "\n", header]
    for key in sorted(blocks):
        parts.append(blocks[key])
    return "".join(parts)


def _atomic_write(path: str, text: str) -> int:
    tmp = path + ".tmp"
    data = text.encode("utf-8")
    with open(tmp, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    return len(data)


class SnapshotWriter:
    """Emit sequence-numbered partial-profile checkpoints into a directory."""

    def __init__(self, directory: str, stream_id: str, full_every: int = 8):
        if full_every <= 0:
            raise ValueError("full_every must be positive")
        self.directory = directory
        self.stream_id = stream_id
        self.full_every = full_every
        self.seq = 0
        self._prev_header: Optional[str] = None
        self._prev_blocks: Dict[_BlockKey, str] = {}
        self._since_full = 0
        self._chain: List[str] = []   # files from the last full to the newest
        os.makedirs(directory, exist_ok=True)

    def emit(
        self,
        db: ProfileDatabase,
        events_analyzed: int,
        events_behind: int = 0,
        lag_ms: float = 0.0,
        events_per_s: float = 0.0,
        closed: bool = False,
        timestamp: str = "",
        extra: Optional[Dict] = None,
    ) -> CheckpointInfo:
        """Write checkpoint ``seq+1`` of ``db`` and repoint the manifest."""
        self.seq += 1
        header, blocks = _profile_blocks(db)
        changed = {
            key: text for key, text in blocks.items()
            if self._prev_blocks.get(key) != text
        }
        full_text = _assemble(header, blocks)
        delta_lines = [DELTA_MAGIC + "\n", f"B {self.seq - 1}\n", header]
        for key in sorted(changed):
            delta_lines.append(changed[key])
        delta_text = "".join(delta_lines)
        use_delta = (
            self._prev_header is not None
            and self._since_full < self.full_every
            and len(delta_text) < len(full_text)
        )
        name = f"checkpoint-{self.seq:06d}." + ("delta" if use_delta else "profile")
        path = os.path.join(self.directory, name)
        size = _atomic_write(path, delta_text if use_delta else full_text)
        if use_delta:
            self._since_full += 1
            self._chain.append(name)
        else:
            self._since_full = 0
            self._chain = [name]
        self._prev_header = header
        self._prev_blocks = blocks
        manifest = {
            "schema": STREAM_SCHEMA,
            "stream_id": self.stream_id,
            "seq": self.seq,
            "file": name,
            "chain": list(self._chain),
            "closed": bool(closed),
            "events_analyzed": int(events_analyzed),
            "events_behind": int(events_behind),
            "lag_ms": round(float(lag_ms), 3),
            "events_per_s": round(float(events_per_s), 1),
            "timestamp": timestamp,
        }
        if extra:
            manifest.update(extra)
        _atomic_write(os.path.join(self.directory, MANIFEST_NAME),
                      json.dumps(manifest, sort_keys=True) + "\n")
        return CheckpointInfo(self.seq, path, use_delta, size, len(changed))


# -- reading ------------------------------------------------------------------


def load_manifest(directory: str) -> Dict:
    """Read and validate ``CURRENT.json`` of a checkpoint directory."""
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as stream:
        manifest = json.load(stream)
    if manifest.get("schema") != STREAM_SCHEMA:
        raise ProfileDumpError(
            f"{path}: not a {STREAM_SCHEMA} manifest "
            f"(schema {manifest.get('schema')!r})")
    return manifest


def _parse_blocks(lines: List[str], what: str) -> Tuple[str, Dict[_BlockKey, str]]:
    """Split dump body lines back into header text + keyed blocks."""
    header_lines: List[str] = []
    blocks: Dict[_BlockKey, str] = {}
    key: Optional[_BlockKey] = None
    for line in lines:
        if not line.strip():
            continue
        tag = line[:1]
        if tag in ("F", "G"):
            header_lines.append(line)
        elif tag == "P":
            name_text, thread_text = line[2:].split("\t")[:2]
            key = (unescape_name(name_text), int(thread_text))
            blocks[key] = line
        elif tag == "S":
            if key is None:
                raise ProfileDumpError(f"{what}: size point before any profile")
            blocks[key] += line
        else:
            raise ProfileDumpError(f"{what}: unknown record tag {tag!r}")
    return "".join(header_lines), blocks


def checkpoint_dump_bytes(directory: str, manifest: Optional[Dict] = None) -> bytes:
    """Reassemble the newest checkpoint as full ``repro-profile 1`` bytes.

    Reads the manifest's chain (one full dump plus any deltas layered on
    it) and returns exactly the bytes :func:`~repro.farm.merge.save_profile`
    would produce for the checkpointed database.
    """
    if manifest is None:
        manifest = load_manifest(directory)
    chain = manifest.get("chain") or [manifest["file"]]
    header: Optional[str] = None
    blocks: Dict[_BlockKey, str] = {}
    for index, name in enumerate(chain):
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as stream:
            first = stream.readline().rstrip("\n")
            lines = stream.readlines()
        if index == 0:
            if first != PROFILE_MAGIC:
                raise ProfileDumpError(
                    f"{path}: chain base is not a profile dump ({first!r})")
            header, blocks = _parse_blocks(lines, path)
        else:
            if first != DELTA_MAGIC:
                raise ProfileDumpError(f"{path}: not a profile delta ({first!r})")
            if not lines or not lines[0].startswith("B "):
                raise ProfileDumpError(f"{path}: delta missing base line")
            delta_header, changed = _parse_blocks(lines[1:], path)
            header = delta_header
            blocks.update(changed)
    if header is None:
        raise ProfileDumpError(f"{directory}: empty checkpoint chain")
    return _assemble(header, blocks).encode("utf-8")


def load_checkpoint(directory: str) -> Tuple[Dict, ProfileDatabase]:
    """Load the newest checkpoint: ``(manifest, partial ProfileDatabase)``."""
    import io

    manifest = load_manifest(directory)
    dump = checkpoint_dump_bytes(directory, manifest)
    db = load_profile(io.StringIO(dump.decode("utf-8")))
    return manifest, db
