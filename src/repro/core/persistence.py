"""Durable index snapshots and write-ahead recovery (DESIGN.md section 7).

Every engine so far lives only in process memory: a restart rebuilds the
SDIndex from the raw dataset and silently forgets every update applied since
build.  This module adds the standard database pairing of *checkpoints* plus a
*logical write-ahead log* (cf. the recovery machinery surveyed in the Cambridge
Report and ProvSQL's persistence of derived state alongside base data,
PAPERS.md):

* **Snapshots.**  :func:`save_engine` serializes an engine into a directory
  holding one packed data file (``arrays.bin``) and a JSON manifest that
  carries the format version, the engine's parameters and bookkeeping, and
  every array's 64-byte-aligned offset, dtype, shape and CRC32.  Format v2
  stores only what a load cannot rebuild: per LSM level the row ids, the
  matrix and the live mask, and per dimension pair the x-order permutation,
  the leaf sizes and the per-angle leaf bounds (the expensive part); plus
  the delta, the retired ids and, for
  :class:`~repro.core.sharding.ShardedIndex`, the router rule and one
  sub-snapshot per shard.  :func:`load_engine` reads the file once (or
  ``mmap=True`` maps it), rebuilds every other kernel array with gathers,
  scatters and ``reduceat`` and restores the engine.  No projection tree is
  built: the vectorized serving path, updates, WAL replay, flushes and
  merges run straight off the restored arrays, and only a legacy query or
  ``stats()`` builds the trees.  Format v1 snapshots (one ``.npy`` file per
  array) still load; nothing writes them.
* **Write-ahead log.**  :class:`WriteAheadLog` journals ``insert`` /
  ``delete`` / ``bulk_insert`` / ``bulk_delete`` / ``rebalance`` records,
  length-prefixed and CRC-checksummed, with an fsync-on-commit policy knob.
  A torn final record (the normal crash shape) is truncated and ignored —
  it was never acknowledged; a checksum failure *before* the tail raises
  :class:`SnapshotFormatError` instead of silently serving corrupt data.
* **Durability wrapper.**  :class:`DurableIndex` pairs an engine with a
  snapshot directory and a WAL: mutations append to the log before they are
  acknowledged, :meth:`DurableIndex.checkpoint` streams a new snapshot while
  writers keep running (the capture pins one epoch through the PR 4
  :class:`~repro.core.epoch.EpochManager` and copies only the small
  bookkeeping under the writer lock), and :meth:`DurableIndex.recover`
  replays the WAL tail onto the loaded snapshot so the recovered engine
  answers bit-identically to the pre-crash one.

The recovery invariant (stated in DESIGN.md section 7 and enforced by
``tests/integration/test_crash_recovery.py``): after a crash at *any* point,
``recover()`` either yields an engine whose top-k answers are bit-identical to
an uncrashed engine that applied exactly the acknowledged prefix of the op
stream, or raises :class:`SnapshotFormatError` — never a silently wrong
answer.
"""

from __future__ import annotations

import gc
import json
import math
import mmap as _mmap
import os
import shutil
import struct
import threading
import weakref
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.core.aggregate import RetiredIds, SubproblemAggregator
from repro.core.angles import AngleGrid, refine_angles
from repro.core.batch import _BOUND_GRID_REFINE, SessionState, _FlatTree
from repro.core.epoch import EpochManager
from repro.core.geometry import Angle
from repro.core.isoline import Envelope, EnvelopeSide
from repro.core.lsm import DeltaState, Level, LsmSession, LsmWorld, _FANOUT, _FLUSH_ROWS
from repro.core.pairing import DimensionPairing
from repro.core.sdindex import SDIndex
from repro.core.sharding import ShardedIndex, ShardRouter, _ShardTopology
from repro.core.top1 import Top1Index, _RunningTopKRegions
from repro.core.topk import TopKIndex

__all__ = [
    "FORMAT_VERSION",
    "SnapshotFormatError",
    "MmapGuard",
    "WriteAheadLog",
    "DurableIndex",
    "save_engine",
    "load_engine",
    "recover",
]

#: Snapshot format version written by this build; readers accept exactly the
#: versions they know (:data:`_READABLE_VERSIONS`).  Bump on any incompatible
#: layout change and keep the golden fixture of every shipped version loading
#: (tests/golden).
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

MANIFEST_NAME = "MANIFEST.json"
#: The one data file of a format-v2 snapshot directory.
DATA_NAME = "arrays.bin"
CURRENT_NAME = "CURRENT"
WAL_NAME = "wal.log"

#: Every array of a data file starts at a multiple of this many bytes.
_ALIGN = 64
_CHUNK = 1 << 20


class SnapshotFormatError(RuntimeError):
    """A snapshot or WAL failed validation: unknown version, bad checksum,
    truncated payload, missing manifest, or mid-file log corruption.

    Raised instead of ever serving state that cannot be proven intact."""


# ---------------------------------------------------------------- fault points
#: Durability-boundary fault points of the :mod:`repro.faults` plane, fired
#: between two specific writes.  A raise here simulates a torn write, and
#: recovery — not a retry — is the mitigation; crash tests install a plane
#: that kills the process at the nth hit of one point.
for _point, _about in (
    ("snapshot.array.written", "one array appended to the data file, before its one fsync"),
    ("snapshot.manifest.before", "data file durable, manifest not yet written"),
    ("snapshot.manifest.written", "manifest renamed into place and its directory fsynced"),
    ("wal.append.written", "WAL record appended, before the WAL fsync"),
    ("wal.append.synced", "WAL record fsynced, before the caller resumes"),
    ("wal.rotate.written", "rotated WAL written to its temp file"),
    ("wal.rotate.replaced", "rotated WAL renamed over the live log"),
    ("wal.rotate.synced", "rotated WAL and its directory fsynced"),
    ("checkpoint.current.before", "snapshot durable, CURRENT not yet updated"),
    ("checkpoint.current.written", "CURRENT written, before its fsync"),
):
    faults.declare_fault_point(_point, _about)


# -------------------------------------------------------------- small helpers
def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: Path) -> None:
    """Persist a directory entry (rename/create durability on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX or permission oddity
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _crc_of_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_CHUNK)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _angle_exact(cos: float, sin: float) -> Angle:
    """Rebuild an :class:`Angle` with bit-identical components.

    The public constructor re-normalizes ``(cos, sin)``, which can perturb the
    last ulp; scores computed through a restored angle must match the
    pre-checkpoint engine bit for bit, so restore bypasses the normalization.
    ``radians`` is ``math.atan2`` of the stored components, as the constructor
    computes it (``np.arctan2`` can differ from it in the last ulp), so a
    bound grid refined from a restored partition grid equals the one the
    checkpointed leaf bounds were computed on.
    """
    angle = Angle.__new__(Angle)
    object.__setattr__(angle, "cos", float(cos))
    object.__setattr__(angle, "sin", float(sin))
    object.__setattr__(angle, "_radians", math.atan2(float(sin), float(cos)))
    return angle


def _grid_payload(grid: AngleGrid) -> List[List[float]]:
    return [[angle.cos, angle.sin] for angle in grid]


def _grid_from_payload(payload: Sequence[Sequence[float]]) -> AngleGrid:
    return AngleGrid(tuple(_angle_exact(c, s) for c, s in payload))


class Deferred:
    """A lazily built stand-in that materializes the real object on first use.

    A restored :class:`~repro.core.topk.TopKIndex` serves from its restored
    flat view alone, but its projection tree is still *owed*: the first
    update, reflatten or streams query needs it.  The restored index holds
    one of these as its tree, carrying a builder closure over the
    checkpointed live rows.  Attribute access materializes exactly once
    (under a lock) and then forwards forever.  (Aggregators need no proxy:
    their pair trees are built on first use by the aggregator itself.)
    """

    def __init__(self, builder: Callable[[], Any], spec: Optional[Dict[str, Any]] = None) -> None:
        self._builder = builder
        self._real: Any = None
        self._lock = threading.Lock()
        #: Checkpoint-visible parameters of the not-yet-built object, so a
        #: save of a freshly loaded engine can re-serialize them without
        #: forcing the build it exists to avoid.
        self.spec = spec

    @property
    def materialized(self) -> bool:
        return self._real is not None

    def _materialize(self) -> Any:
        if self._real is None:
            with self._lock:
                if self._real is None:
                    self._real = self._builder()
                    # Release the builder: its closure pins the checkpoint-era
                    # arrays, which must not outlive their only consumer.
                    self._builder = None
        return self._real

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_") and name in ("_builder", "_real", "_lock"):
            raise AttributeError(name)  # pragma: no cover - guard only
        return getattr(self._materialize(), name)

    def __len__(self) -> int:
        return len(self._materialize())


# -------------------------------------------------------------- snapshot I/O
class _Capture:
    """A consistent cut of one engine, pinned while it streams to disk.

    ``meta`` is the JSON payload, ``arrays`` maps array names to (immutable)
    numpy arrays, ``children`` holds nested captures (one per shard).
    ``pins`` are release callables (epoch unpins): the pinned states are
    immutable, so writers keep running while the capture streams.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.meta: Dict[str, Any] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.children: Dict[str, "_Capture"] = {}
        self.pins: List[Callable[[], None]] = []

    def close(self) -> None:
        for child in self.children.values():
            child.close()
        for release in self.pins:
            release()
        self.pins = []


def _write_capture(capture: _Capture, path: Path, extra: Optional[Dict] = None) -> None:
    """Stream a capture into ``path``: one packed data file, the manifest last.

    Every array is appended to :data:`DATA_NAME` at a 64-byte-aligned offset
    and checksummed on that one write pass; the file is fsynced once.  The
    manifest lists each array's extent, dtype, shape and CRC32 and is the
    commit point — a crash mid-stream leaves a directory without a (valid)
    manifest, which every loader rejects loudly.  The directory fsync after
    the manifest's rename also makes the data file's entry durable, so a
    committed manifest never names a data file a power failure can lose.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    extents: Dict[str, Dict[str, Any]] = {}
    end = 0
    with open(path / DATA_NAME, "wb") as handle:
        for name, array in capture.arrays.items():
            array = np.ascontiguousarray(array)
            offset = -(-end // _ALIGN) * _ALIGN
            handle.write(bytes(offset - end))
            handle.write(array)
            end = offset + array.nbytes
            extents[name] = {
                "offset": offset,
                "bytes": array.nbytes,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "crc32": zlib.crc32(array),
            }
            faults.fire("snapshot.array.written")
        _fsync_file(handle)
    children: Dict[str, str] = {}
    for name, child in capture.children.items():
        _write_capture(child, path / name)
        children[name] = name
    manifest = {
        "format_version": FORMAT_VERSION,
        "engine": capture.kind,
        "payload": capture.meta,
        "data_bytes": end,
        "arrays": extents,
        "children": children,
        "extra": dict(extra or {}),
    }
    faults.fire("snapshot.manifest.before")
    tmp = path / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
        _fsync_file(handle)
    os.replace(tmp, path / MANIFEST_NAME)
    _fsync_dir(path)
    _fsync_dir(path.parent)
    faults.fire("snapshot.manifest.written")


def _read_manifest(path: Path) -> Dict[str, Any]:
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotFormatError(f"missing snapshot manifest: {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotFormatError(f"unreadable snapshot manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise SnapshotFormatError(
            f"unsupported snapshot format version {version!r} "
            f"(this build reads versions {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    return manifest


class MmapGuard:
    """Tracks the ``mmap.mmap`` handles behind one ``load_engine(mmap=True)``.

    A format-v2 load maps each data file once and every restored array of
    that file is a view of one root array over the map; a format-v1 load
    (``np.load(mmap_mode="r")``) maps every array file on its own.  Closing a
    map under a live view must never happen: a later read through the view
    would be a dangling-pointer crash, not an exception.  The guard therefore
    holds a *weak* reference to each map's root array next to the raw map:
    :meth:`close` only unmaps regions whose root is provably dead (after a
    ``gc.collect()`` to break the epoch/session reference cycles; every view
    keeps its root alive) and counts every still-referenced mapping as
    *leaked* instead of pulling the pages out from under a live reader.

    Engines loaded with ``mmap=True`` carry their guard as ``_mmap_guard``
    and close it from their own ``close()``; calling :meth:`close` twice is
    a no-op.
    """

    def __init__(self) -> None:
        self._maps: List[Tuple[Any, Any]] = []  # (weakref-to-root, mmap.mmap)
        self._closed = False
        self._registered = 0
        self.leaked = 0

    def register(self, array: np.ndarray, handle: Any = None) -> None:
        """Track one mapped root array and its map (a v1 ``np.memmap``
        carries its own; a no-op for arrays that map nothing)."""
        if handle is None:
            handle = getattr(array, "_mmap", None)
        if handle is not None:
            self._maps.append((weakref.ref(array), handle))
            self._registered += 1

    @property
    def num_maps(self) -> int:
        """Mappings registered over the guard's lifetime (stable after close)."""
        return self._registered

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> int:
        """Drop every mapping whose array is dead; returns the leak count.

        Callers must first release their own references to the mapped arrays
        (dispose sessions, clear caches): anything still reachable keeps its
        mapping open — reported via ``leaked`` — because unmapping under a
        live array would turn the next read into undefined behavior.
        """
        if self._closed:
            return self.leaked
        self._closed = True
        # The session/epoch graph is cyclic (EpochManager <-> Epoch), so the
        # final references to mapped arrays often die only on a cycle sweep.
        gc.collect()
        leaked = 0
        for ref, handle in self._maps:
            if ref() is not None:
                leaked += 1
                continue
            try:
                handle.close()
            except (BufferError, ValueError):
                leaked += 1
        self.leaked = leaked
        self._maps = []
        return leaked


#: Guard collecting the maps of the ``load_engine`` call running on this
#: thread; ``_restore_sharded`` loads its per-shard children through nested
#: ``_load_arrays`` calls, which register into the same (outermost) guard.
_ACTIVE_GUARD = threading.local()


def _load_arrays(
    path: Path, manifest: Dict[str, Any], mmap: bool, verify: Optional[bool]
) -> Dict[str, np.ndarray]:
    """Load every manifest-listed array, read-only, validating sizes (always)
    and checksums (by default only for full loads — an mmap load exists to
    avoid touching every page; pass ``verify=True`` to force the full check)."""
    if verify is None:
        verify = not mmap
    if manifest["format_version"] == 1:
        return _load_npy_files(path, manifest, mmap, verify)
    return _load_packed(path, manifest, mmap, verify)


def _extents(
    entries: Dict[str, Any], size: int
) -> Dict[str, Tuple[int, int, np.dtype, Tuple[int, ...], int]]:
    """``(offset, bytes, dtype, shape, crc32)`` of every array of a data file.

    Raises :class:`SnapshotFormatError` for an entry whose dtype and shape
    disagree with its byte count, an extent that is misaligned or runs past
    the end of the ``size``-byte file, and extents that overlap: no view is
    ever made over bytes the manifest does not vouch for.
    """
    extents = {}
    for name, entry in entries.items():
        try:
            offset = int(entry["offset"])
            nbytes = int(entry["bytes"])
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(n) for n in entry["shape"])
            crc = int(entry["crc32"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"snapshot array {name} has a malformed manifest entry: {exc!r}"
            ) from exc
        if (
            dtype.kind not in "biuf"
            or any(n < 0 for n in shape)
            or math.prod(shape) * dtype.itemsize != nbytes
        ):
            raise SnapshotFormatError(
                f"snapshot array {name}: dtype {dtype.str} and shape {shape} "
                f"disagree with its {nbytes} bytes"
            )
        if offset < 0 or offset % _ALIGN or offset + nbytes > size:
            raise SnapshotFormatError(
                f"snapshot array {name} extent [{offset}, {offset + nbytes}) is "
                f"misaligned or runs past the end of the {size}-byte data file"
            )
        extents[name] = (offset, nbytes, dtype, shape, crc)
    spans = sorted(
        (offset, offset + nbytes, name) for name, (offset, nbytes, *_) in extents.items()
    )
    for (_start, end, first), (start, _end, second) in zip(spans, spans[1:]):
        if start < end:
            raise SnapshotFormatError(
                f"snapshot arrays {first} and {second} overlap in the data file"
            )
    return extents


def _load_packed(
    path: Path, manifest: Dict[str, Any], mmap: bool, verify: bool
) -> Dict[str, np.ndarray]:
    """Every array of a format-v2 snapshot's one data file, read-only.

    A plain load reads the file once, front to back, each extent straight
    into its own array, and checks the CRC32s in memory; arrays a restore
    only derives from are then freed on their own.  ``mmap=True`` maps the
    file read-only instead: every array is a view of one root array over the
    map, which the guard of the running load tracks.
    """
    full = Path(path) / DATA_NAME
    if not full.is_file():
        raise SnapshotFormatError(f"snapshot data file missing: {full}")
    size = os.path.getsize(full)
    if size != manifest.get("data_bytes"):
        raise SnapshotFormatError(
            f"snapshot data file {full} truncated or resized: {size} bytes on "
            f"disk, {manifest.get('data_bytes')} in manifest"
        )
    extents = sorted(_extents(manifest["arrays"], size).items(), key=lambda item: item[1][0])
    arrays: Dict[str, np.ndarray] = {}
    if mmap and size:
        with open(full, "rb") as handle:
            mapping = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
        whole = np.frombuffer(mapping, dtype=np.uint8)
        guard = getattr(_ACTIVE_GUARD, "guard", None)
        if guard is not None:
            guard.register(whole, mapping)
        for name, (offset, nbytes, dtype, shape, _crc) in extents:
            arrays[name] = whole[offset : offset + nbytes].view(dtype).reshape(shape)
    else:
        with open(full, "rb") as handle:
            for name, (offset, nbytes, dtype, shape, _crc) in extents:
                array = np.empty(shape, dtype=dtype)
                handle.seek(offset)
                if handle.readinto(array) != nbytes:
                    raise SnapshotFormatError(
                        f"snapshot data file {full} truncated while reading {name}"
                    )
                arrays[name] = _frozen(array)
    if verify:
        for name, (_offset, _nbytes, _dtype, _shape, crc) in extents:
            if zlib.crc32(arrays[name]) != crc:
                raise SnapshotFormatError(f"snapshot array {name} failed its checksum")
    return arrays


def _load_npy_files(
    path: Path, manifest: Dict[str, Any], mmap: bool, verify: bool
) -> Dict[str, np.ndarray]:
    """The format-v1 reader: one ``.npy`` file per manifest-listed array."""
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in manifest["arrays"].items():
        full = Path(path) / entry["file"]
        if not full.is_file():
            raise SnapshotFormatError(f"snapshot array missing: {full}")
        size = os.path.getsize(full)
        if size != entry["bytes"]:
            raise SnapshotFormatError(
                f"snapshot array {entry['file']} truncated or resized: "
                f"{size} bytes on disk, {entry['bytes']} in manifest"
            )
        if verify and _crc_of_file(full) != entry["crc32"]:
            raise SnapshotFormatError(
                f"snapshot array {entry['file']} failed its checksum"
            )
        try:
            array = np.load(full, mmap_mode="r" if mmap else None)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"snapshot array {entry['file']} is not a valid .npy payload: {exc}"
            ) from exc
        if not mmap:
            # Restored states are published as immutable epochs; freezing the
            # arrays makes an accidental in-place patch fail loudly and routes
            # maintenance through the copy-on-write path — exactly the same
            # contract a memory-mapped (read-only) load has.
            array.setflags(write=False)
        else:
            guard = getattr(_ACTIVE_GUARD, "guard", None)
            if guard is not None:
                guard.register(array)
        arrays[name] = array
    return arrays


# ---------------------------------------------------------------- WAL format
OP_INSERT = 1
OP_DELETE = 2
OP_BULK_INSERT = 3
OP_BULK_DELETE = 4
OP_REBALANCE = 5
OP_REBUILD = 6
#: LSM structure ops (DESIGN.md section 11).  A flush carries no payload; a
#: compact carries the merged level seqs in the row-id field.  Journaling them
#: lets ``recover()`` rebuild the exact delta+levels layout, not just the
#: logical row set — the level seq space is deterministic given the snapshot's
#: ``next_seq`` and the replayed op order.
OP_FLUSH = 7
OP_COMPACT = 8
#: A reflatten of the serving session (``refresh_session``): it re-lays the
#: world as one level under a fresh seq, so replay must perform it at the
#: same point for later compact records to name the seqs replay creates.
OP_REFRESH = 9

_OP_NAMES = {
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_BULK_INSERT: "bulk_insert",
    OP_BULK_DELETE: "bulk_delete",
    OP_REBALANCE: "rebalance",
    OP_REBUILD: "rebuild",
    OP_FLUSH: "lsm_flush",
    OP_COMPACT: "lsm_compact",
    OP_REFRESH: "refresh_session",
}

_WAL_MAGIC = b"SDWAL001"
_WAL_BASE = struct.Struct("<Q")  # base lsn after the magic
#: Record header: lsn, payload length, payload crc32, header crc32.  The
#: header carries its own checksum so a corrupted *length* field is provably
#: corruption (raise) rather than being misread as a torn tail — without it,
#: an inflated length would swallow the following acknowledged records.
_RECORD = struct.Struct("<QIII")
_PAYLOAD = struct.Struct("<BII")  # op, row count, dim count


def _record_header(lsn: int, length: int, payload_crc: int) -> bytes:
    head = _RECORD.pack(lsn, length, payload_crc, 0)[:-4]
    return head + struct.pack("<I", zlib.crc32(head))


def _encode_record(op: int, row_ids: np.ndarray, matrix: Optional[np.ndarray]) -> bytes:
    ids = np.ascontiguousarray(row_ids, dtype=np.int64)
    if matrix is None:
        coords = b""
        dims = 0
    else:
        block = np.ascontiguousarray(matrix, dtype=np.float64)
        if block.ndim != 2 or len(block) != len(ids):
            raise ValueError("WAL matrix must be (n, d) aligned with row_ids")
        coords = block.tobytes()
        dims = block.shape[1]
    return _PAYLOAD.pack(op, len(ids), dims) + ids.tobytes() + coords


def _decode_record(payload: bytes) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
    if len(payload) < _PAYLOAD.size:
        raise SnapshotFormatError("WAL payload shorter than its header")
    op, count, dims = _PAYLOAD.unpack_from(payload)
    expected = _PAYLOAD.size + 8 * count + 8 * count * dims
    if op not in _OP_NAMES or len(payload) != expected:
        raise SnapshotFormatError(
            f"malformed WAL payload (op={op}, n={count}, d={dims}, "
            f"{len(payload)} bytes, expected {expected})"
        )
    ids = np.frombuffer(payload, dtype=np.int64, count=count, offset=_PAYLOAD.size)
    matrix = None
    if dims:
        matrix = np.frombuffer(
            payload,
            dtype=np.float64,
            count=count * dims,
            offset=_PAYLOAD.size + 8 * count,
        ).reshape(count, dims)
    return op, ids, matrix


class WriteAheadLog:
    """An append-only, checksummed journal of logical index mutations.

    Records are length-prefixed (``lsn, length, crc32`` header) so the tail
    torn by a crash is detected exactly: an *incomplete* final record — or a
    complete-length final record whose checksum fails, the shape a partially
    flushed page leaves — is truncated on open (it was never acknowledged).
    A checksum or continuity failure anywhere *before* the tail is corruption
    and raises :class:`SnapshotFormatError`.

    ``fsync`` selects the commit policy: ``"commit"`` (default) fsyncs every
    append before acknowledging it — the no-acknowledged-write-lost
    guarantee; ``"os"`` leaves flushing to the OS page cache — faster, and
    bounded loss on power failure (process crashes still lose nothing).
    """

    FSYNC_POLICIES = ("commit", "os")

    def __init__(self, path, fsync: str = "commit") -> None:
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; use one of {self.FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.Lock()
        self._closed = False
        # A crash mid-rotation may leave the written-aside file behind; it was
        # never the live log (os.replace is the commit point), so drop it.
        stale = self.path.with_suffix(".log.tmp")
        if stale.exists():
            stale.unlink()
        if self.path.exists():
            self.base_lsn, self._lsn, end = self._scan()
            self._file = open(self.path, "r+b")
            # Drop any torn tail so new appends continue from the last intact
            # record instead of landing after garbage.
            self._file.truncate(end)
            self._file.seek(end)
        else:
            self.base_lsn = 0
            self._lsn = 0
            self._file = open(self.path, "w+b")
            self._file.write(_WAL_MAGIC + _WAL_BASE.pack(0))
            _fsync_file(self._file)
            # The file's *directory entry* must be durable too, on every
            # policy: under ``fsync="os"`` nothing later syncs the directory
            # on the append path, so a crash could otherwise lose the whole
            # log file while the engine had acknowledged its writes.
            _fsync_dir(self.path.parent)

    # ------------------------------------------------------------------ state
    @property
    def end_lsn(self) -> int:
        """LSN of the last intact record (== total mutations journaled)."""
        return self._lsn

    @property
    def closed(self) -> bool:
        """True once closed, by :meth:`close` or by a failed rotation."""
        return self._closed

    def _header_size(self) -> int:
        return len(_WAL_MAGIC) + _WAL_BASE.size

    @staticmethod
    def _valid_record_follows(handle, after: int, min_lsn: int) -> bool:
        """True if any later offset parses as a checksum-valid record header.

        The tear-vs-corruption discriminator: storage may persist a torn
        final append's pages out of order (payload sectors before the header
        sector), so a bad record with only garbage after it must be treated
        as an unacknowledged tail.  But if a valid record *follows* the bad
        one, acknowledged data sits past the damage — that is corruption and
        must be loud, never silently truncated away.  A random 20-byte window
        passes the header CRC with probability 2^-32 per offset; requiring a
        later LSN as well makes a false positive (which would only turn a
        truncate into a loud error) negligible.  Only runs once per open, on
        the first invalid record, over the remainder of the file.
        """
        handle.seek(after)
        remainder = handle.read()
        for position in range(len(remainder) - _RECORD.size + 1):
            window = remainder[position : position + _RECORD.size]
            rec_lsn, _length, _crc, head_crc = _RECORD.unpack(window)
            if zlib.crc32(window[:-4]) == head_crc and rec_lsn > min_lsn:
                return True
        return False

    def _scan(self) -> Tuple[int, int, int]:
        """Validate the file; returns (base_lsn, last_lsn, end_offset).

        Streams record by record (one record in memory at a time — recovery
        of a large un-checkpointed tail must not materialize the whole log);
        on the first invalid record it either truncates (torn,
        never-acknowledged tail: nothing valid follows) or raises
        (corruption: a valid record follows the damage).
        """
        with open(self.path, "rb") as handle:
            head = handle.read(self._header_size())
            if len(head) < self._header_size() or head[: len(_WAL_MAGIC)] != _WAL_MAGIC:
                raise SnapshotFormatError(f"not a WAL file: {self.path}")
            (base,) = _WAL_BASE.unpack(head[len(_WAL_MAGIC) :])
            lsn = base
            offset = self._header_size()
            while True:
                start = offset
                header = handle.read(_RECORD.size)
                if not header:
                    return base, lsn, offset
                if len(header) < _RECORD.size:
                    return base, lsn, offset  # torn header
                rec_lsn, length, crc, head_crc = _RECORD.unpack(header)
                bad = zlib.crc32(header[:-4]) != head_crc or rec_lsn != lsn + 1
                end = start + _RECORD.size + length
                if not bad:
                    payload = handle.read(length)
                    if len(payload) < length:
                        return base, lsn, offset  # torn payload (header intact)
                    bad = zlib.crc32(payload) != crc
                    resync_from = end
                else:
                    # The length field is untrusted: resync past the header.
                    resync_from = start + 1
                if bad:
                    if self._valid_record_follows(handle, resync_from, lsn):
                        raise SnapshotFormatError(
                            f"WAL corruption at offset {start} (record after "
                            f"lsn {lsn}, with intact records beyond it)"
                        )
                    return base, lsn, offset
                lsn = rec_lsn
                offset = end

    # ------------------------------------------------------------------ write
    def append(self, op: int, row_ids, matrix=None) -> int:
        """Journal one mutation; returns its LSN once durable per policy."""
        if self._closed:
            raise RuntimeError("WAL is closed")
        payload = _encode_record(op, np.asarray(row_ids, dtype=np.int64), matrix)
        with self._lock:
            lsn = self._lsn + 1
            start = self._file.tell()
            try:
                self._file.write(_record_header(lsn, len(payload), zlib.crc32(payload)))
                self._file.write(payload)
                faults.fire("wal.append.written")
                self._file.flush()
                if self.fsync == "commit":
                    os.fsync(self._file.fileno())
            except BaseException:
                # Roll the stranded bytes back so the log stays appendable: a
                # failed (unacknowledged) append must not leave a record that
                # a retry would duplicate at the same LSN — which the next
                # open would rightly reject as mid-file corruption.
                try:
                    self._file.truncate(start)
                    self._file.seek(start)
                except OSError:
                    pass  # disk truly gone; the open-time scan will judge it
                raise
            faults.fire("wal.append.synced")
            self._lsn = lsn
            return lsn

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._lock:
            if not self._closed:
                _fsync_file(self._file)

    def rotate(self, base_lsn: int) -> None:
        """Atomically restart the log at ``base_lsn``, keeping any newer tail.

        Called after a checkpoint whose snapshot covers everything up to
        ``base_lsn``: the superseded prefix is dropped and records past it
        (mutations that raced the checkpoint stream) are copied verbatim into
        the fresh file, so the log stays bounded by the checkpoint cadence
        under sustained write load.  Written aside and swapped in with
        ``os.replace``, so a crash mid-rotation leaves either the old intact
        log or the new complete one — never a half-truncated header.

        A failure before the rename leaves the old log live and appendable.
        After it, the handle moves to the new file at once; should anything
        later fail (the directory fsync that makes the rename durable, say),
        the log closes itself, since an append acknowledged now could vanish
        with an undone rename.  Only ``recover()`` can tell which log survived.
        """
        with self._lock:
            if not self.base_lsn <= base_lsn <= self._lsn:
                raise ValueError(
                    f"cannot rotate WAL to base {base_lsn}: log covers "
                    f"({self.base_lsn}, {self._lsn}]"
                )
            _fsync_file(self._file)
            tmp = self.path.with_suffix(".log.tmp")
            with open(tmp, "wb") as out:
                out.write(_WAL_MAGIC + _WAL_BASE.pack(base_lsn))
                with open(self.path, "rb") as source:
                    source.seek(self._header_size())
                    while True:
                        header = source.read(_RECORD.size)
                        if len(header) < _RECORD.size:
                            break
                        rec_lsn, length, _crc, _hcrc = _RECORD.unpack(header)
                        payload = source.read(length)
                        if rec_lsn > base_lsn:
                            out.write(header)
                            out.write(payload)
                _fsync_file(out)
            faults.fire("wal.rotate.written")
            os.replace(tmp, self.path)
            try:
                # The old handle now writes into an unlinked file that no
                # recovery reads: switch before anything else can fail.
                self._file.close()
                self._file = open(self.path, "r+b")
                self._file.seek(0, os.SEEK_END)
                self.base_lsn = base_lsn
                faults.fire("wal.rotate.replaced")
                # Persist the rename on every fsync policy: without the
                # directory fsync a crash right after rotation can resurrect
                # the old log tail (records the checkpoint already superseded).
                _fsync_dir(self.path.parent)
                faults.fire("wal.rotate.synced")
            except BaseException:
                self._closed = True
                self._file.close()
                raise

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------- read
    def replay(self, after_lsn: int = 0):
        """Yield ``(lsn, op, row_ids, matrix)`` for every record past ``after_lsn``.

        Reads from disk (the open handle's appends are flushed first), so it
        reflects exactly what recovery would see.
        """
        self.sync()
        with open(self.path, "rb") as handle:
            handle.seek(self._header_size())
            lsn = self.base_lsn
            while lsn < self._lsn:
                header = handle.read(_RECORD.size)
                rec_lsn, length, _crc, _head_crc = _RECORD.unpack(header)
                payload = handle.read(length)
                lsn = rec_lsn
                if lsn > after_lsn:
                    op, ids, matrix = _decode_record(payload)
                    yield lsn, op, ids, matrix


# ------------------------------------------------------- aggregator snapshots
def _capture_aggregator(agg: SubproblemAggregator) -> _Capture:
    """Pin a consistent cut of one aggregator plus its serving session.

    The writer lock is held only long enough to pin the session epoch and copy
    the small bookkeeping (deleted ids, high-water mark, counters); the big
    arrays belong to the pinned immutable :class:`LsmWorld` and stream out
    after the lock drops.
    """
    capture = _Capture("aggregator")
    agg.write_lock.acquire()
    try:
        session = agg.serving_session()
        view = session.snapshot()  # pins the epoch
        capture.pins.append(view.close)
        state = view.state
        capture.meta = {
            "repulsive": list(agg.repulsive),
            "attractive": list(agg.attractive),
            "num_dims": int(agg._num_dims),
            "branching": int(agg.branching),
            "leaf_capacity": int(agg.leaf_capacity),
            "pairing_strategy": agg.pairing_strategy,
            "pairs": [list(pair) for pair in agg.pairing.pairs],
            "leftover_repulsive": list(agg.pairing.leftover_repulsive),
            "leftover_attractive": list(agg.pairing.leftover_attractive),
            "angles": _grid_payload(agg.angle_grid),
            "max_row_id": int(agg._max_row_id),
            "mutations": int(agg._mutations),
            "session": {
                "reflattens": int(session.reflattens),
                "patched_inserts": int(session.patched_inserts),
                "patched_deletes": int(session.patched_deletes),
                "kind": "lsm",
                "flush_rows": int(session.flush_rows),
                "fanout": int(session.fanout),
                "background": bool(session.background),
                "flushes": int(session.flushes),
                "compactions": int(session.compactions),
                "delta_absorbed_deletes": int(session.delta_absorbed_deletes),
                "next_seq": int(session._next_seq),
            },
        }
        # A layered world: per-level execution states plus the delta.
        # Everything below the meta is immutable once pinned, so the
        # array assembly streams after the lock drops.
        capture.meta["levels"] = [{"seq": int(level.seq)} for level in state.levels]
        capture.meta["bound_grid_refine"] = _BOUND_GRID_REFINE
        deleted = agg._retired.array()
    except BaseException:
        capture.close()
        agg.write_lock.release()
        raise
    agg.write_lock.release()
    capture.arrays["deleted"] = deleted
    try:
        _capture_lsm_arrays(state, capture.arrays)
    except BaseException:
        capture.close()
        raise
    return capture


def _x_order(state: SessionState, flat: _FlatTree, width) -> np.ndarray:
    """The level position of each of ``flat``'s x-ordered rows: the
    permutation the pair was laid out with.

    Sorting ``flat.rows`` lines them up with ``state.sorted_rows``, whose
    positions ``state.row_order`` names.  A level's row ids are unique, so
    any argsort (the default one is the fastest) gives the same order.
    """
    order = np.empty(len(flat.rows), dtype=width)
    order[np.argsort(flat.rows)] = state.row_order
    return order


def _capture_lsm_arrays(world: LsmWorld, arrays: Dict[str, np.ndarray]) -> None:
    """The arrays of one pinned :class:`LsmWorld` that a load cannot rebuild.

    Per level: the row ids, the matrix and the live mask; per pair: the
    x-order permutation (int32 while positions fit), the leaf sizes and the
    per-angle leaf bounds.  Every other kernel array is rebuilt at load by
    :func:`_rebuild_level`.  That relies on a level's pairs being laid out in
    bulk and never patched (only a ``TopKIndex`` appends to or tombstones a
    flat view), which is checked here rather than stored.  The delta is
    stored verbatim: the prefix views it publishes, never the spare capacity
    of its append buffers.
    """
    for i, level in enumerate(world.levels):
        state = level.state
        arrays[f"lvl{i}_rows"] = state.rows
        arrays[f"lvl{i}_matrix"] = state.matrix
        arrays[f"lvl{i}_live"] = state.live
        width = np.int32 if len(state.rows) <= np.iinfo(np.int32).max else np.int64
        for p, (_rep, _att, flat) in enumerate(state.pairs):
            if flat.appended or flat.dead or not flat.live.all():
                raise RuntimeError(
                    f"level {level.seq} pair {p} was patched in place; a level's "
                    "pairs are laid out in bulk and never patched"
                )
            arrays[f"lvl{i}_pair{p}_order"] = _x_order(state, flat, width)
            arrays[f"lvl{i}_pair{p}_sizes"] = np.bincount(
                flat.leaf_of_pos, minlength=flat.num_leaves
            )
            arrays[f"lvl{i}_pair{p}_leaf_bounds"] = flat.leaf_bounds
    arrays["delta_rows"] = world.delta.rows
    arrays["delta_matrix"] = world.delta.matrix
    arrays["delta_live"] = world.delta.live


def _restore_flat_tree(
    arrays: Dict[str, np.ndarray],
    prefix: str,
    meta: Dict[str, Any],
) -> _FlatTree:
    flat = _FlatTree.__new__(_FlatTree)
    flat.rows = arrays[f"{prefix}_rows"]
    flat.x = arrays[f"{prefix}_x"]
    flat.y = arrays[f"{prefix}_y"]
    flat.live = arrays[f"{prefix}_live"]
    flat.leaf_bounds = arrays[f"{prefix}_leaf_bounds"]
    flat.leaf_min_x = arrays[f"{prefix}_leaf_min_x"]
    flat.leaf_max_x = arrays[f"{prefix}_leaf_max_x"]
    flat.leaf_of_pos = arrays[f"{prefix}_leaf_of_pos"]
    flat.num_leaves = int(meta["num_leaves"])
    flat.appended = int(meta["appended"])
    flat.dead = int(meta["dead"])
    flat.grid_cos = arrays[f"{prefix}_grid_cos"]
    flat.grid_sin = arrays[f"{prefix}_grid_sin"]
    flat.grid_rad = arrays[f"{prefix}_grid_rad"]
    # The bound grid rides in the snapshot itself (it may be finer than the
    # aggregator's partition grid since PR 10); rebuild the angle tuple from
    # the stored components so maintenance loops stay aligned with the bounds.
    flat.angles = tuple(
        Angle(cos=float(c), sin=float(s))
        for c, s in zip(flat.grid_cos, flat.grid_sin)
    )
    # Pre-PR-10 snapshots carry no per-leaf y extrema; substitute the inert
    # infinite box so the second-pass box bound degrades to a no-op instead of
    # mispruning — format v1 stays fully readable.
    min_y = arrays.get(f"{prefix}_leaf_min_y")
    max_y = arrays.get(f"{prefix}_leaf_max_y")
    flat.leaf_min_y = (
        min_y if min_y is not None else np.full(flat.num_leaves, -np.inf)
    )
    flat.leaf_max_y = (
        max_y if max_y is not None else np.full(flat.num_leaves, np.inf)
    )
    flat._pos_of_row = None
    return flat


def _restore_aggregator(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> SubproblemAggregator:
    """Rebuild an aggregator plus its serving session from checkpoint arrays.

    The serving session's world is restored with every kernel input
    byte-for-byte as checkpointed (format v2 rebuilds the derivable ones
    from the stored ones, format v1 stored them all) and published as the
    session's first epoch; it is the aggregator's row store, so no per-row
    bookkeeping is rebuilt.  The aggregator's pair trees and sorted columns
    stay unbuilt, as on a freshly built engine: updates, WAL replay, flushes
    and merges never need them, and the first legacy query or ``stats()``
    builds them from the live rows, so a v1 snapshot's top-level arrays are
    not read.  Payload keys of retired engine modes (``concurrency``,
    ``compaction``) are ignored.
    """
    payload = manifest["payload"]
    agg = SubproblemAggregator.__new__(SubproblemAggregator)
    agg._write_lock = threading.RLock()
    agg._num_dims = int(payload["num_dims"])
    agg.repulsive = tuple(int(d) for d in payload["repulsive"])
    agg.attractive = tuple(int(d) for d in payload["attractive"])
    agg.angle_grid = _grid_from_payload(payload["angles"])
    agg.branching = int(payload["branching"])
    agg.leaf_capacity = int(payload["leaf_capacity"])
    agg.pairing_strategy = payload["pairing_strategy"]
    agg.pairing = DimensionPairing(
        pairs=tuple((int(r), int(a)) for r, a in payload["pairs"]),
        leftover_repulsive=tuple(int(d) for d in payload["leftover_repulsive"]),
        leftover_attractive=tuple(int(d) for d in payload["leftover_attractive"]),
    )

    # The restored world is the row store; only the retired ids and the
    # high-water mark ride beside it.
    agg._retired = RetiredIds(arrays["deleted"])
    agg._max_row_id = int(payload["max_row_id"])
    agg._mutations = int(payload["mutations"])

    agg._column_dims = list(agg.pairing.leftover_repulsive) + list(
        agg.pairing.leftover_attractive
    )
    # The legacy structures are built from the live rows by the first legacy
    # query or stats(), exactly as on a freshly built engine.
    agg._pair_indexes = None
    agg._columns = None
    agg._legacy_points = None
    agg._closed = False
    agg._serving_session = _restore_lsm_session(
        agg, manifest["format_version"], payload, arrays
    )
    return agg


def _bound_grid(agg: SubproblemAggregator, refine: int):
    """The bound grid of every pair of ``agg``: its angles and frozen
    ``(cos, sin, radians)`` arrays, derived from the partition grid exactly
    as :meth:`~repro.core.batch._FlatTree._index_leaves` derives them."""
    angles = refine_angles(tuple(agg.angle_grid), refine)
    return angles, tuple(
        _frozen(np.array([getattr(angle, part) for angle in angles]))
        for part in ("cos", "sin", "radians")
    )


def _rebuild_level(
    agg: SubproblemAggregator, arrays: Dict[str, np.ndarray], prefix: str, grid
) -> SessionState:
    """One level's execution state from the arrays format v2 stores.

    The file holds the level's rows, matrix and live mask and, per pair, the
    x-order permutation, the leaf sizes and the leaf bounds.  Every other
    kernel array is a gather, scatter, ``np.repeat``, ``reduceat`` or
    argsort over those, the same operations
    :meth:`~repro.core.batch.QuerySession._state_from_rows` builds them with,
    so each equals the checkpointed array byte for byte; all are frozen like
    the stored ones.
    """
    angles, (grid_cos, grid_sin, grid_rad) = grid
    rows = arrays[f"{prefix}rows"]
    matrix = arrays[f"{prefix}matrix"]
    live = arrays[f"{prefix}live"]
    count = len(rows)
    if matrix.shape != (count, agg._num_dims) or live.shape != (count,):
        raise SnapshotFormatError(f"snapshot level {prefix!r} arrays disagree in shape")
    # The ids are unique, so the default argsort gives the stable one's order.
    row_order = _frozen(np.argsort(rows))
    all_live = _frozen(np.ones(count, dtype=bool))
    pairs: List[Tuple[int, int, _FlatTree]] = []
    leaf_of_position: List[np.ndarray] = []
    for p, (rep_dim, att_dim) in enumerate(agg.pairing.pairs):
        by_x = arrays[f"{prefix}pair{p}_order"].astype(np.intp)
        sizes = arrays[f"{prefix}pair{p}_sizes"]
        bounds = arrays[f"{prefix}pair{p}_leaf_bounds"]
        if (
            by_x.shape != (count,)
            or sizes.sum() != count
            or bounds.shape != (len(sizes), len(angles), 4)
        ):
            raise SnapshotFormatError(
                f"snapshot level {prefix!r} pair {p} arrays disagree in shape"
            )
        flat = _FlatTree.__new__(_FlatTree)
        flat.angles = angles
        flat.grid_cos, flat.grid_sin, flat.grid_rad = grid_cos, grid_sin, grid_rad
        flat.rows = _frozen(rows[by_x])
        flat.x = _frozen(matrix[by_x, att_dim])
        flat.y = _frozen(matrix[by_x, rep_dim])
        flat.live = all_live
        flat.num_leaves = len(sizes)
        flat.leaf_of_pos = _frozen(np.repeat(np.arange(len(sizes), dtype=np.int64), sizes))
        flat.leaf_bounds = bounds
        starts = np.cumsum(sizes) - sizes
        flat.leaf_min_x, flat.leaf_max_x, flat.leaf_min_y, flat.leaf_max_y = (
            _frozen(extreme.reduceat(values, starts))
            for extreme, values in (
                (np.minimum, flat.x),
                (np.maximum, flat.x),
                (np.minimum, flat.y),
                (np.maximum, flat.y),
            )
        )
        flat.appended = 0
        flat.dead = 0
        flat._pos_of_row = None
        position_leaf = np.empty(count, dtype=np.int64)
        position_leaf[by_x] = flat.leaf_of_pos
        pairs.append((rep_dim, att_dim, flat))
        leaf_of_position.append(_frozen(position_leaf))
    col_values: Dict[int, np.ndarray] = {}
    col_positions: Dict[int, np.ndarray] = {}
    for dim in agg._column_dims:
        order = np.argsort(matrix[:, dim], kind="stable")
        col_values[dim] = _frozen(matrix[order, dim])
        col_positions[dim] = _frozen(order.astype(np.int64))
    num_live = int(np.count_nonzero(live))
    return SessionState(
        rows=rows,
        matrix=matrix,
        live=live,
        num_live=num_live,
        row_order=row_order,
        sorted_rows=_frozen(rows[row_order]),
        columns_by_dim={
            dim: matrix[:, dim] for dim in set(agg.repulsive) | set(agg.attractive)
        },
        pairs=pairs,
        pair_leaf_of_position=leaf_of_position,
        col_values=col_values,
        col_positions=col_positions,
        tombstoned=count - num_live,
    )


def _relaid_level(
    session: LsmSession, arrays: Dict[str, np.ndarray], prefix: str, seq: int
) -> Level:
    """A format-v1 level laid out afresh from its rows, matrix and live mask.

    Format v1 stored every kernel array, and a pre-LSM snapshot's pairs were
    patched in place, which no level's pairs ever are; laying the level out
    as a flush does keeps that invariant (format v2 relies on it) and gives
    bit-identical answers.
    """
    state = session._state_from_rows(arrays[f"{prefix}rows"], arrays[f"{prefix}matrix"])
    dead = np.flatnonzero(~np.asarray(arrays[f"{prefix}live"], dtype=bool))
    level = Level(seq, state)
    return level.with_tombstones(dead) if len(dead) else level


def _restore_lsm_session(
    agg: SubproblemAggregator,
    version: int,
    payload: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
) -> LsmSession:
    """Rebuild the :class:`LsmSession` publishing the checkpointed world.

    Format v2 levels are rebuilt from their stored arrays, byte-for-byte as
    checkpointed (:func:`_rebuild_level`); format v1 levels are laid out
    afresh (:func:`_relaid_level`).  The delta's row-id lookup structures are
    recomputed from its arrays (cheap — the delta is bounded by the flush
    threshold).  It owns no append buffer, so its first insert copies it
    out and never writes the loaded (possibly read-only ``mmap``) arrays.
    A pre-LSM ("flat", format v1) snapshot holds one execution
    state: it restores as level 1 of a world with an empty delta, under the
    options its payload's ``lsm_options`` names (by default the stock
    ones).  Every other snapshot reads them from ``session``; the
    ``lsm_options`` copy that older LSM captures also wrote is ignored, as
    are older manifests' ``seed_pool`` and ``reflatten_threshold`` (both
    module constants now).
    """
    meta = payload["session"]
    scored = set(agg.repulsive) | set(agg.attractive)
    session = LsmSession.__new__(LsmSession)
    session._aggregator = agg
    session.epochs = EpochManager()
    session.reflattens = int(meta["reflattens"])
    session.patched_inserts = int(meta["patched_inserts"])
    session.patched_deletes = int(meta["patched_deletes"])
    session.auto_compaction = True
    session._maintain_lock = threading.Lock()
    session._compactor = None
    session._maintenance_error = None

    if meta.get("kind") != "lsm":
        # Only these snapshots' payloads carry the options of the session
        # they restore into; captures write them once, in ``session``.
        options = payload.get("lsm_options", {})
        session.flush_rows = int(options.get("flush_rows", _FLUSH_ROWS))
        session.fanout = int(options.get("fanout", _FANOUT))
        session.background = bool(options.get("background", True))
        session.flushes = 0
        session.compactions = 0
        session.delta_absorbed_deletes = 0
        session._next_seq = 2
        level = _relaid_level(session, arrays, "", 1)
        session.epochs.publish(
            LsmWorld((level,), DeltaState.empty(agg._num_dims, scored))
        )
        return session

    session.flush_rows = int(meta["flush_rows"])
    session.fanout = int(meta["fanout"])
    session.background = bool(meta["background"])
    session.flushes = int(meta["flushes"])
    session.compactions = int(meta["compactions"])
    session.delta_absorbed_deletes = int(meta["delta_absorbed_deletes"])
    session._next_seq = int(meta["next_seq"])
    if version == 1:
        levels = [
            _relaid_level(session, arrays, f"lvl{i}_", int(level_meta["seq"]))
            for i, level_meta in enumerate(payload["levels"])
        ]
    else:
        grid = _bound_grid(agg, int(payload["bound_grid_refine"]))
        levels = [
            Level(int(level_meta["seq"]), _rebuild_level(agg, arrays, f"lvl{i}_", grid))
            for i, level_meta in enumerate(payload["levels"])
        ]

    delta_rows = np.asarray(arrays["delta_rows"], dtype=np.int64)
    delta_matrix = np.asarray(arrays["delta_matrix"], dtype=float)
    delta_live = np.asarray(arrays["delta_live"], dtype=bool)
    order = np.argsort(delta_rows, kind="stable").astype(np.int64)
    delta = DeltaState(
        rows=delta_rows,
        matrix=delta_matrix,
        live=delta_live,
        num_live=int(delta_live.sum()),
        sorted_rows=delta_rows[order],
        row_order=order,
        columns_by_dim={
            dim: np.ascontiguousarray(delta_matrix[:, dim]) for dim in scored
        },
    )
    session.epochs.publish(LsmWorld(tuple(levels), delta))
    return session


# ----------------------------------------------------------- engine captures
def _capture_sdindex(index: SDIndex) -> _Capture:
    capture = _capture_aggregator(index._aggregator)
    capture.kind = "sdindex"
    return capture


def _restore_sdindex(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray], _path, _mmap, _verify
) -> SDIndex:
    index = SDIndex.__new__(SDIndex)
    index._aggregator = _restore_aggregator(manifest, arrays)
    index.repulsive = index._aggregator.repulsive
    index.attractive = index._aggregator.attractive
    index.num_dims = index._aggregator._num_dims
    return index


def _encode_index_options(options: Dict[str, Any]) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for key, value in options.items():
        if isinstance(value, AngleGrid):
            encoded[key] = {"__angle_grid__": _grid_payload(value)}
        elif isinstance(value, (type(None), bool, int, float, str)):
            encoded[key] = value
        elif isinstance(value, (list, tuple)):
            encoded[key] = list(value)
        else:
            raise ValueError(
                f"index option {key!r}={value!r} is not snapshot-serializable"
            )
    return encoded


def _decode_index_options(options: Dict[str, Any]) -> Dict[str, Any]:
    decoded: Dict[str, Any] = {}
    for key, value in options.items():
        if isinstance(value, dict) and "__angle_grid__" in value:
            decoded[key] = _grid_from_payload(value["__angle_grid__"])
        else:
            decoded[key] = value
    return decoded


def _capture_sharded(engine: ShardedIndex) -> _Capture:
    """One consistent cut of the whole sharded engine.

    Holding the engine writer lock excludes every mutation path (updates and
    rebalances all serialize on it), so the topology, the router rule, the
    engine bookkeeping and each shard's pinned session epoch are captured at
    one point in time; the per-shard array streams run after the lock drops.
    No row->shard map is stored: each shard's world says which rows it holds.
    """
    if engine.closed:
        raise RuntimeError("ShardedIndex is closed")
    capture = _Capture("sharded")
    engine._write_lock.acquire()
    try:
        topology = engine._topology.current_state()
        router = topology.router
        capture.meta = {
            "repulsive": list(engine.repulsive),
            "attractive": list(engine.attractive),
            "num_dims": int(engine.num_dims),
            "num_shards": int(router.num_shards),
            "partitioner": router.partitioner,
            "range_dim": router.range_dim,
            "boundaries": None
            if router.boundaries is None
            else [float(b) for b in router.boundaries],
            "salt": int(router.salt),
            "rebalance_threshold": float(engine.rebalance_threshold),
            "index_options": _encode_index_options(engine._index_options),
            "max_row_id": int(engine._max_row_id),
            "rebalances": int(engine.rebalances),
        }
        capture.arrays["deleted"] = engine._retired.array()
        for s, shard in enumerate(topology.shards):
            capture.children[f"shard-{s}"] = _capture_aggregator(shard)
    except BaseException:
        capture.close()
        engine._write_lock.release()
        raise
    engine._write_lock.release()
    return capture


def _restore_sharded(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray], path, mmap, verify
) -> ShardedIndex:
    """Rebuild a sharded engine; older manifests' ``max_workers`` and
    ``parallel`` are ignored (neither is an option any more)."""
    payload = manifest["payload"]
    engine = ShardedIndex.__new__(ShardedIndex)
    engine.repulsive = tuple(int(d) for d in payload["repulsive"])
    engine.attractive = tuple(int(d) for d in payload["attractive"])
    engine.num_dims = int(payload["num_dims"])
    engine.rebalance_threshold = float(payload["rebalance_threshold"])
    engine._index_options = _decode_index_options(payload["index_options"])
    engine._executor = None
    engine._closed = False
    engine._write_lock = threading.RLock()
    engine._retired = RetiredIds(arrays["deleted"])
    engine._max_row_id = int(payload["max_row_id"])
    engine.rebalances = int(payload["rebalances"])
    engine.serve_stats = {
        "probes": 0,
        "pruned": 0,
        "rounds": 0,
        "skipped": 0,
        "retries": 0,
    }
    # Resilience policy is runtime serving configuration, not index state:
    # a restored engine starts in the legacy fail-fast mode until the owner
    # attaches a policy, exactly like a freshly constructed one.
    engine.resilience = None
    engine._breakers = None

    router = ShardRouter(
        int(payload["num_shards"]),
        payload["partitioner"],
        payload["range_dim"],
        boundaries=None
        if payload["boundaries"] is None
        else np.asarray(payload["boundaries"], dtype=float),
    )
    router.salt = int(payload["salt"])
    # Each shard's restored world says which rows it holds (a v1 snapshot's
    # ``router_rows``/``router_shards`` are not read).
    shards = []
    for s in range(router.num_shards):
        child_dir = Path(path) / f"shard-{s}"
        child_manifest = _read_manifest(child_dir)
        if child_manifest["engine"] != "aggregator":
            raise SnapshotFormatError(
                f"shard snapshot {child_dir} holds a "
                f"{child_manifest['engine']!r} payload, expected an aggregator"
            )
        child_arrays = _load_arrays(child_dir, child_manifest, mmap, verify)
        shards.append(_restore_aggregator(child_manifest, child_arrays))
    engine._topology = EpochManager()
    engine._topology.publish(_ShardTopology(router, tuple(shards)))
    return engine


def _capture_topk(index: TopKIndex) -> _Capture:
    capture = _Capture("topk")
    index._write_lock.acquire()
    try:
        flat = index.flat_session()
        epoch = index.flat_epochs.pin()
        capture.pins.append(epoch.release)
        tree = index.tree
        if isinstance(tree, Deferred) and not tree.materialized:
            # Saving a freshly loaded index: the tree parameters live on the
            # Deferred's spec — reading them through the proxy would force the
            # very build the warm start deferred.
            spec = tree.spec
            branching = spec["branching"]
            leaf_capacity = spec["leaf_capacity"]
            rebuild_threshold = spec["rebuild_threshold"]
            tombstones = np.asarray(spec["tombstones"], dtype=np.int64)
        else:
            branching = tree.branching
            leaf_capacity = tree.leaf_capacity
            rebuild_threshold = tree.rebuild_threshold
            tombstones = np.fromiter(
                sorted(tree._tombstones), dtype=np.int64, count=len(tree._tombstones)
            )
        capture.meta = {
            "angles": _grid_payload(index.angle_grid),
            "branching": int(branching),
            "leaf_capacity": int(leaf_capacity),
            "rebuild_threshold": float(rebuild_threshold),
            "flat_threshold": float(index._flat_threshold),
            "session_reflattens": int(index.session_reflattens),
            "flat": {
                "num_leaves": int(flat.num_leaves),
                "appended": int(flat.appended),
                "dead": int(flat.dead),
            },
        }
        capture.arrays = {
            # The tree's tombstone set rides along so the restored index keeps
            # the exact id-reuse guard and auto-id assignment until the next
            # rebuild clears them — the same contract as the live tree.
            "tombstones": tombstones,
            "flat_rows": flat.rows,
            "flat_x": flat.x,
            "flat_y": flat.y,
            "flat_live": flat.live,
            "flat_leaf_bounds": flat.leaf_bounds,
            "flat_leaf_min_x": flat.leaf_min_x,
            "flat_leaf_max_x": flat.leaf_max_x,
            "flat_leaf_min_y": flat.leaf_min_y,
            "flat_leaf_max_y": flat.leaf_max_y,
            "flat_leaf_of_pos": flat.leaf_of_pos,
            "flat_grid_cos": flat.grid_cos,
            "flat_grid_sin": flat.grid_sin,
            "flat_grid_rad": flat.grid_rad,
        }
    except BaseException:
        capture.close()
        index._write_lock.release()
        raise
    index._write_lock.release()
    return capture


def _restore_topk(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray], _path, _mmap, _verify
) -> TopKIndex:
    payload = manifest["payload"]
    index = TopKIndex.__new__(TopKIndex)
    index.angle_grid = _grid_from_payload(payload["angles"])
    flat = _restore_flat_tree(arrays, "flat", payload["flat"])
    rows, x, y, live = flat.rows, flat.x, flat.y, flat.live
    branching = int(payload["branching"])
    leaf_capacity = int(payload["leaf_capacity"])
    rebuild_threshold = float(payload["rebuild_threshold"])

    tombstones = arrays["tombstones"]

    def build_tree():
        from repro.core.projection_tree import ProjectionTree

        keep = np.asarray(live, dtype=bool)
        tree = ProjectionTree(
            np.asarray(x)[keep],
            np.asarray(y)[keep],
            angles=tuple(index.angle_grid),
            branching=branching,
            leaf_capacity=leaf_capacity,
            row_ids=[int(r) for r in rows[keep]],
            rebuild_threshold=rebuild_threshold,
        )
        # Re-seed the checkpointed tombstones: their ids stay unusable (and
        # count toward the rebuild garbage) until a rebuild clears them,
        # exactly as on the pre-checkpoint tree.
        tree._tombstones.update(int(r) for r in tombstones)
        return tree

    index.tree = Deferred(
        build_tree,
        spec={
            "branching": branching,
            "leaf_capacity": leaf_capacity,
            "rebuild_threshold": rebuild_threshold,
            "tombstones": tombstones,
        },
    )
    index._flat = flat
    index._flat_dirty = False
    index._flat_threshold = float(payload["flat_threshold"])
    index._write_lock = threading.RLock()
    index.flat_epochs = EpochManager()
    index.flat_epochs.publish(flat)
    index.session_reflattens = int(payload["session_reflattens"])
    return index


def _capture_top1(index: Top1Index) -> _Capture:
    capture = _Capture("top1")
    with index._write_lock:
        points = sorted(index._points.items())
        pending = sorted(index._pending.items())
        capture.meta = {
            "k": int(index.k),
            "cos": index.angle.cos,
            "sin": index.angle.sin,
            "score_scale": index.score_scale,
            "mutations": int(index._mutations),
            "build_seconds": float(index._build_seconds),
            "lower_layers": len(index._lower_layers),
            "upper_layers": len(index._upper_layers),
            "klists": sorted(index._klists),
        }
        capture.arrays["points_rows"] = np.asarray(
            [row for row, _ in points], dtype=np.int64
        )
        capture.arrays["points_xy"] = np.asarray(
            [xy for _, xy in points], dtype=float
        ).reshape(len(points), 2)
        capture.arrays["pending_rows"] = np.asarray(
            [row for row, _ in pending], dtype=np.int64
        )
        capture.arrays["pending_xy"] = np.asarray(
            [xy for _, xy in pending], dtype=float
        ).reshape(len(pending), 2)
        for side, layers in (
            ("lower", index._lower_layers),
            ("upper", index._upper_layers),
        ):
            for i, envelope in enumerate(layers):
                capture.arrays[f"{side}{i}_owners"] = np.asarray(
                    envelope.owners, dtype=np.int64
                )
                capture.arrays[f"{side}{i}_breaks"] = np.asarray(
                    envelope.breakpoints, dtype=float
                )
        for name, structure in index._klists.items():
            sets = structure.candidate_sets
            offsets = np.zeros(len(sets) + 1, dtype=np.int64)
            np.cumsum([len(members) for members in sets], out=offsets[1:])
            members = np.asarray(
                [row for group in sets for row in group], dtype=np.int64
            )
            capture.arrays[f"klist_{name}_breaks"] = np.asarray(
                structure.breakpoints, dtype=float
            )
            capture.arrays[f"klist_{name}_offsets"] = offsets
            capture.arrays[f"klist_{name}_members"] = members
    return capture


def _restore_top1(
    manifest: Dict[str, Any], arrays: Dict[str, np.ndarray], _path, _mmap, _verify
) -> Top1Index:
    payload = manifest["payload"]
    index = Top1Index.__new__(Top1Index)
    index.angle = _angle_exact(payload["cos"], payload["sin"])
    index.k = int(payload["k"])
    index.score_scale = float(payload["score_scale"])
    index._points = {
        int(row): (float(x), float(y))
        for row, (x, y) in zip(arrays["points_rows"], arrays["points_xy"])
    }
    index._pending = {
        int(row): (float(x), float(y))
        for row, (x, y) in zip(arrays["pending_rows"], arrays["pending_xy"])
    }
    index._build_seconds = float(payload["build_seconds"])
    index._region_cache = None
    index._mutations = int(payload["mutations"])
    index._write_lock = threading.RLock()
    index.view_epochs = EpochManager()
    index._view_built_at = -1
    index._owner_rows = set()
    index._lower_layers = []
    index._upper_layers = []
    index._klists = {}
    for side, count, target in (
        ("lower", payload["lower_layers"], index._lower_layers),
        ("upper", payload["upper_layers"], index._upper_layers),
    ):
        enum_side = (
            EnvelopeSide.LOWER_PROJECTIONS
            if side == "lower"
            else EnvelopeSide.UPPER_PROJECTIONS
        )
        for i in range(count):
            envelope = Envelope(
                enum_side,
                [int(r) for r in arrays[f"{side}{i}_owners"]],
                [float(b) for b in arrays[f"{side}{i}_breaks"]],
            )
            target.append(envelope)
            index._owner_rows.update(envelope.owners)
    for name in payload["klists"]:
        structure = _RunningTopKRegions.__new__(_RunningTopKRegions)
        structure.breakpoints = [float(b) for b in arrays[f"klist_{name}_breaks"]]
        offsets = arrays[f"klist_{name}_offsets"]
        members = arrays[f"klist_{name}_members"]
        structure.candidate_sets = [
            tuple(int(r) for r in members[offsets[i] : offsets[i + 1]])
            for i in range(len(offsets) - 1)
        ]
        index._klists[name] = structure
        index._owner_rows.update(structure.indexed_rows())
    return index


_CAPTURE_BY_TYPE: List[Tuple[type, Callable]] = [
    (SDIndex, _capture_sdindex),
    (ShardedIndex, _capture_sharded),
    (TopKIndex, _capture_topk),
    (Top1Index, _capture_top1),
]

_RESTORE_BY_KIND: Dict[str, Callable] = {
    "sdindex": _restore_sdindex,
    "sharded": _restore_sharded,
    "topk": _restore_topk,
    "top1": _restore_top1,
}


def capture_engine(engine) -> _Capture:
    """Pin a consistent, streamable cut of any supported engine."""
    for engine_type, capture in _CAPTURE_BY_TYPE:
        if isinstance(engine, engine_type):
            return capture(engine)
    raise TypeError(f"no snapshot support for {type(engine).__name__}")


def save_engine(engine, path, extra: Optional[Dict] = None) -> Path:
    """Write a standalone snapshot of ``engine`` at ``path`` (a directory).

    Writers keep running while the snapshot streams: the capture pins
    immutable epochs and holds no lock past its bookkeeping copy.
    """
    capture = capture_engine(engine)
    try:
        _write_capture(capture, Path(path), extra=extra)
    finally:
        capture.close()
    return Path(path)


def load_engine(path, mmap: bool = False, verify: Optional[bool] = None, expect: Optional[str] = None):
    """Load an engine snapshot written by :func:`save_engine`.

    A plain load reads each data file once; ``mmap=True`` memory-maps it
    (read-only) instead, and updates then route through the copy-on-write
    patch path.  ``verify`` forces (or skips) the per-array checksum pass —
    the default checks on full loads and trusts sizes and extents alone
    under mmap.  ``expect`` pins the engine kind
    (the facade ``load`` classmethods use it) and raises
    :class:`SnapshotFormatError` on a mismatch.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    kind = manifest["engine"]
    if expect is not None and kind != expect:
        raise SnapshotFormatError(
            f"snapshot at {path} holds a {kind!r} engine, expected {expect!r}"
        )
    try:
        restore = _RESTORE_BY_KIND[kind]
    except KeyError:
        raise SnapshotFormatError(f"unknown engine kind {kind!r} in {path}") from None
    if not mmap:
        arrays = _load_arrays(path, manifest, mmap, verify)
        return restore(manifest, arrays, path, mmap, verify)
    # Collect every mapping (including nested per-shard loads) into one guard
    # so the engine's close() can release the file handles afterwards.
    guard = MmapGuard()
    previous = getattr(_ACTIVE_GUARD, "guard", None)
    _ACTIVE_GUARD.guard = guard
    try:
        arrays = _load_arrays(path, manifest, mmap, verify)
        engine = restore(manifest, arrays, path, mmap, verify)
    finally:
        _ACTIVE_GUARD.guard = previous
    engine._mmap_guard = guard
    return engine


# ------------------------------------------------------------ durable engine
_KIND_2D = ("topk", "top1")


def _take_over_maintenance(engine) -> None:
    """Claim LSM maintenance scheduling from an engine that self-schedules.

    Joins any in-flight background compaction first, so no unjournaled
    structure flip races the takeover; no-op for engines that keep their own
    scheduling (2D indexes, sharded engines).
    """
    if isinstance(engine, SDIndex):
        engine.set_auto_compaction(False)
        engine.quiesce_maintenance()


def _engine_kind(engine) -> str:
    if isinstance(engine, SDIndex):
        return "sdindex"
    if isinstance(engine, ShardedIndex):
        return "sharded"
    if isinstance(engine, TopKIndex):
        return "topk"
    if isinstance(engine, Top1Index):
        return "top1"
    raise TypeError(f"no durability support for {type(engine).__name__}")


def _apply_record(engine, kind: str, op: int, ids: np.ndarray, matrix) -> None:
    """Replay one WAL record onto a restored engine (exact ids, exact order)."""
    if op == OP_INSERT:
        if kind in _KIND_2D:
            engine.insert(float(matrix[0, 0]), float(matrix[0, 1]), row_id=int(ids[0]))
        else:
            engine.insert(matrix[0], row_id=int(ids[0]))
    elif op == OP_DELETE:
        engine.delete(int(ids[0]))
    elif op == OP_BULK_INSERT:
        if kind in _KIND_2D:
            for row, point in zip(ids, matrix):
                engine.insert(float(point[0]), float(point[1]), row_id=int(row))
        else:
            engine.bulk_insert(matrix, row_ids=ids)
    elif op == OP_BULK_DELETE:
        if kind in _KIND_2D:
            for row in ids:
                engine.delete(int(row))
        else:
            engine.bulk_delete(ids)
    elif op == OP_REBALANCE:
        engine.rebalance()
    elif op == OP_REBUILD:
        engine.rebuild()
    elif op == OP_FLUSH:
        engine.flush()
    elif op == OP_COMPACT:
        engine.compact([int(s) for s in ids])
    elif op == OP_REFRESH:
        engine.refresh_session()
    else:  # pragma: no cover - decode already validated the op byte
        raise SnapshotFormatError(f"unknown WAL op {op}")


class DurableIndex:
    """An engine paired with a snapshot directory and a write-ahead log.

    Layout of ``path``::

        CURRENT           -> name of the active snapshot directory
        snapshot-000001/  -> MANIFEST.json + arrays.bin (+ shard-*/)
        wal.log           -> length-prefixed, checksummed mutation journal

    Mutations apply to the engine and append to the WAL before they are
    acknowledged; :meth:`checkpoint` streams a fresh snapshot (writers keep
    running — the capture pins an epoch and copies only small bookkeeping
    under the lock), flips ``CURRENT`` atomically, prunes superseded snapshot
    directories and rotates the log when it safely can.  :meth:`recover`
    loads the ``CURRENT`` snapshot and replays the WAL tail past the
    snapshot's recorded LSN, yielding an engine bit-identical (in its
    answers) to the pre-crash one.
    """

    def __init__(self, engine, path, wal: WriteAheadLog, kind: str, snapshot_seq: int,
                 last_recovery: Optional[Dict[str, Any]] = None) -> None:
        self._engine = engine
        self.path = Path(path)
        self._wal = wal
        self.kind = kind
        self._snapshot_seq = snapshot_seq
        self._lock = threading.RLock()
        #: Serializes whole checkpoints against each other (mutations only
        #: contend on ``_lock``, and only for a checkpoint's brief capture
        #: phase): two concurrent checkpoints must never share a sequence
        #: number or interleave writes into one snapshot directory.
        self._checkpoint_lock = threading.Lock()
        #: Set when an op applied to the engine but its journal append failed:
        #: live state is ahead of the log, so further mutations or checkpoints
        #: would make the divergence durable.  Reads stay allowed.
        self._poisoned: Optional[str] = None
        self.last_recovery = dict(last_recovery or {})
        # LSM engines: the wrapper takes over maintenance scheduling so every
        # flush/compact lands in the journal, in apply order — recover() then
        # rebuilds the exact delta+levels structure, not just the row set.
        # (Sharded engines keep their own per-shard auto compaction: structure
        # ops never change answers, so replay stays exact either way.)
        _take_over_maintenance(engine)

    # ------------------------------------------------------------ construction
    @classmethod
    def create(cls, engine, path, fsync: str = "commit", extra: Optional[Dict] = None) -> "DurableIndex":
        """Make ``engine`` durable at ``path`` (must not already hold one)."""
        path = Path(path)
        kind = _engine_kind(engine)
        if (path / CURRENT_NAME).exists():
            raise FileExistsError(f"a durable index already lives at {path}")
        path.mkdir(parents=True, exist_ok=True)
        wal = WriteAheadLog(path / WAL_NAME, fsync=fsync)
        durable = cls(engine, path, wal, kind, snapshot_seq=0)
        durable.checkpoint(extra=extra)
        return durable

    @classmethod
    def recover(
        cls,
        path,
        mmap: bool = False,
        fsync: str = "commit",
        verify: Optional[bool] = None,
    ) -> "DurableIndex":
        """Load the ``CURRENT`` snapshot and replay the WAL tail onto it.

        ``last_recovery`` on the returned wrapper reports the cut: the
        snapshot's LSN, how many records were replayed, the replay wall time
        and the checkpoint's ``extra`` payload (used by the workload runner to
        resume scripts mid-way).  Raises :class:`SnapshotFormatError` on any
        detected corruption rather than serving doubtful state.
        """
        import time

        path = Path(path)
        current_path = path / CURRENT_NAME
        if not current_path.is_file():
            raise SnapshotFormatError(f"no durable index at {path} (missing CURRENT)")
        snapshot_name = current_path.read_text(encoding="utf-8").strip()
        snapshot_dir = path / snapshot_name
        manifest = _read_manifest(snapshot_dir)
        engine = load_engine(snapshot_dir, mmap=mmap, verify=verify)
        kind = manifest["engine"]
        extra = dict(manifest.get("extra", {}))
        snapshot_lsn = int(extra.pop("wal_lsn", 0))
        wal_path = path / WAL_NAME
        if not wal_path.exists():
            raise SnapshotFormatError(f"missing write-ahead log: {wal_path}")
        wal = WriteAheadLog(wal_path, fsync=fsync)
        # Claim maintenance before replaying: a replayed insert must not let
        # the engine self-schedule a flush the journal knows nothing about —
        # the journaled OP_FLUSH/OP_COMPACT records alone drive structure, so
        # the recovered delta+levels layout is exactly the pre-crash one.
        _take_over_maintenance(engine)
        replayed = 0
        started = time.perf_counter()
        for _lsn, op, ids, matrix in wal.replay(after_lsn=snapshot_lsn):
            _apply_record(engine, kind, op, ids, matrix)
            replayed += 1
        replay_seconds = time.perf_counter() - started
        try:
            seq = int(snapshot_name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            seq = 0
        return cls(
            engine,
            path,
            wal,
            kind,
            snapshot_seq=seq,
            last_recovery={
                "snapshot": snapshot_name,
                "snapshot_lsn": snapshot_lsn,
                "replayed": replayed,
                "recovered_lsn": snapshot_lsn + replayed,
                "replay_seconds": replay_seconds,
                "extra": extra,
            },
        )

    # ----------------------------------------------------------------- basics
    @property
    def engine(self):
        """The wrapped engine (reads may go straight to it)."""
        return self._engine

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def end_lsn(self) -> int:
        return self._wal.end_lsn

    def __len__(self) -> int:
        return len(self._engine)

    #: The engine's read surface, forwarded as is.  Every other engine
    #: method stays behind :attr:`engine`: a mutator needs a journaling
    #: method below, or an acknowledged op sequence could become
    #: unreplayable — or replay a different level layout.
    _FORWARDED = frozenset(
        ("query", "batch_query", "snapshot", "point", "query_session", "shard_sizes")
    )

    def __getattr__(self, name: str):
        if name in DurableIndex._FORWARDED:
            return getattr(self._engine, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r} "
            "(only the read surface is forwarded; the engine is .engine)"
        )

    def close(self) -> None:
        self._wal.close()
        if hasattr(self._engine, "close"):
            self._engine.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -------------------------------------------------------------- mutations
    # Apply first (so auto-assigned row ids are known), then journal, then
    # acknowledge: an op is recoverable iff its append returned, which is
    # exactly the acknowledged-write guarantee (a crash in between loses an
    # op the caller never saw succeed).
    def _check_poison(self) -> None:
        if self._poisoned is not None:
            raise RuntimeError(
                f"durable index is poisoned ({self._poisoned}); the engine "
                "holds an op its journal does not — recover() from disk for "
                "a consistent state"
            )

    def _journal(self, op: int, row_ids, matrix=None) -> None:
        """Append one record for an op already applied to the engine.

        If the append fails, the live engine is ahead of the journal: the op
        was applied but is not recoverable.  The wrapper poisons itself —
        further mutations and checkpoints would make the divergence durable,
        so they refuse; reads stay available and recover() restores the
        consistent (journal-covered) state.
        """
        try:
            self._wal.append(op, row_ids, matrix)
        except BaseException as exc:
            self._poisoned = (
                f"{_OP_NAMES.get(op, op)} applied but not journaled: {exc}"
            )
            raise

    def _maintain_engine(self) -> None:
        """Run due LSM maintenance and journal each structure op it applied.

        Called after every journaled mutation (the engine's own post-write
        trigger is disabled by the wrapper): apply-then-journal per op, the
        same acknowledged-write contract as the mutations themselves — a
        crash between the two loses an op recovery simply re-plans.
        """
        maintain = getattr(self._engine, "lsm_maintain", None)
        if maintain is None:
            return
        for op in maintain():
            if op[0] == "flush":
                self._journal(OP_FLUSH, [])
            else:
                self._journal(OP_COMPACT, [int(seq) for seq in op[1]])

    def insert(self, *point, row_id: Optional[int] = None) -> int:
        # Mirror the wrapped engines' signatures exactly, including the
        # positional row_id they all accept: (point[, row_id]) for the n-dim
        # engines, (x, y[, row_id]) for the 2D ones.
        width = 2 if self.kind in _KIND_2D else 1
        if len(point) == width + 1 and row_id is None:
            point, row_id = point[:width], point[width]
        elif len(point) != width:
            raise TypeError(
                f"insert() takes {width} positional coordinate argument(s) "
                f"plus an optional row_id, got {len(point)}"
            )
        with self._lock:
            self._check_poison()
            if self.kind in _KIND_2D:
                x, y = point
                row = self._engine.insert(x, y, row_id=row_id)
                vector = np.asarray([[float(x), float(y)]], dtype=float)
            else:
                (vector_in,) = point
                row = self._engine.insert(vector_in, row_id=row_id)
                vector = np.asarray(vector_in, dtype=float)[None, :]
            self._journal(OP_INSERT, [row], vector)
            self._maintain_engine()
            return row

    def delete(self, row_id: int) -> None:
        with self._lock:
            self._check_poison()
            self._engine.delete(row_id)
            self._journal(OP_DELETE, [int(row_id)])
            self._maintain_engine()

    def bulk_insert(self, points, row_ids: Optional[Sequence[int]] = None) -> List[int]:
        with self._lock:
            self._check_poison()
            ids = self._engine.bulk_insert(points, row_ids=row_ids)
            if ids:
                self._journal(OP_BULK_INSERT, ids, np.asarray(points, dtype=float))
                self._maintain_engine()
            return ids

    def bulk_delete(self, row_ids: Sequence[int]) -> None:
        with self._lock:
            self._check_poison()
            self._engine.bulk_delete(row_ids)
            if len(row_ids):
                self._journal(OP_BULK_DELETE, [int(r) for r in row_ids])
                self._maintain_engine()

    def rebalance(self) -> bool:
        with self._lock:
            self._check_poison()
            moved = self._engine.rebalance()
            self._journal(OP_REBALANCE, [])
            return moved

    def rebuild(self) -> None:
        """Journaled engine rebuild (e.g. ``TopKIndex.rebuild``).

        A rebuild clears the tree's tombstone set, which changes what a later
        ``insert(row_id=...)`` accepts — so replay must perform it at the
        same point in the op stream or an acknowledged sequence could become
        unreplayable.
        """
        with self._lock:
            self._check_poison()
            self._engine.rebuild()
            self._journal(OP_REBUILD, [])

    def refresh_session(self) -> None:
        """Journaled reflatten of the serving session (``SDIndex`` only)."""
        with self._lock:
            self._check_poison()
            self._engine.refresh_session()
            self._journal(OP_REFRESH, [])

    def lsm_maintain(self) -> List[Tuple]:
        """Journaled explicit LSM maintenance; returns the ops applied."""
        with self._lock:
            self._check_poison()
            ops = self._engine.lsm_maintain()
            for op in ops:
                if op[0] == "flush":
                    self._journal(OP_FLUSH, [])
                else:
                    self._journal(OP_COMPACT, [int(seq) for seq in op[1]])
            return ops

    def flush(self) -> bool:
        """Journaled explicit delta flush (False when the delta was empty)."""
        with self._lock:
            self._check_poison()
            flushed = self._engine.flush()
            if flushed:
                self._journal(OP_FLUSH, [])
            return flushed

    def compact(self, seqs: Optional[Sequence[int]] = None):
        """Journaled explicit level merge; returns the seqs actually merged."""
        with self._lock:
            self._check_poison()
            merged = self._engine.compact(seqs)
            if merged is not None:
                self._journal(OP_COMPACT, [int(seq) for seq in merged])
            return merged

    def maybe_rebalance(self) -> bool:
        # Delegate the trigger policy to the engine (never duplicate it); the
        # rebalances counter tells us whether one actually ran — the boolean
        # alone cannot, since a rebalance that moved no rows still bumps the
        # hash salt / refits boundaries and must be journaled for replay.
        with self._lock:
            self._check_poison()
            before = self._engine.rebalances
            moved = self._engine.maybe_rebalance()
            if self._engine.rebalances != before:
                self._journal(OP_REBALANCE, [])
            return moved

    # ------------------------------------------------------------- checkpoint
    def checkpoint(self, extra: Optional[Dict] = None) -> Path:
        """Stream a fresh snapshot and atomically make it the recovery root.

        The brief locked phase syncs the WAL, notes its LSN and pins the
        engine capture; mutations resume while the arrays stream out.  The
        ``CURRENT`` flip is the commit point — a crash anywhere before it
        recovers from the previous snapshot plus the (complete) WAL, a crash
        after it from the new one.  Superseded snapshot directories are
        pruned afterwards, and the WAL is rotated whenever no mutation raced
        the checkpoint.
        """
        with self._checkpoint_lock:
            with self._lock:
                self._check_poison()
                self._wal.sync()
                lsn = self._wal.end_lsn
                capture = capture_engine(self._engine)
            self._snapshot_seq += 1
            name = f"snapshot-{self._snapshot_seq:06d}"
            try:
                _write_capture(
                    capture,
                    self.path / name,
                    extra={**(extra or {}), "wal_lsn": lsn},
                )
            finally:
                capture.close()
            faults.fire("checkpoint.current.before")
            tmp = self.path / (CURRENT_NAME + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(name + "\n")
                _fsync_file(handle)
            os.replace(tmp, self.path / CURRENT_NAME)
            _fsync_dir(self.path)
            faults.fire("checkpoint.current.written")
            for stale in self.path.glob("snapshot-*"):
                if stale.is_dir() and stale.name != name:
                    shutil.rmtree(stale, ignore_errors=True)
            # Drop the journal prefix the new snapshot covers; mutations that
            # raced the stream survive as the copied tail (appends hold
            # ``_lock``, which rotate's caller-side lock below excludes).
            with self._lock:
                try:
                    self._wal.rotate(lsn)
                except BaseException as exc:
                    if self._wal.closed:
                        # Failed after its rename: which log is durable is
                        # unknown until recover() reads the directory.
                        self._poisoned = f"WAL rotation failed after its rename: {exc}"
                    raise
            return self.path / name


def recover(path, mmap: bool = False, fsync: str = "commit", verify: Optional[bool] = None) -> DurableIndex:
    """Module-level convenience for :meth:`DurableIndex.recover`."""
    return DurableIndex.recover(path, mmap=mmap, fsync=fsync, verify=verify)
