"""Content-addressed, persistent caching of reports and traces.

Every simulation cell — one (workload, policy, system config, scale,
fault schedule) combination — is deterministic, and so is every
generated workload trace, so both can be reused by any later process
that asks for the same inputs.  This module provides:

* :func:`content_key` — a stable SHA-256 digest over the canonical JSON
  of the *values* that determine a result plus a code stamp;
  :func:`cell_key` names one simulation cell with it.
* :class:`Store` — one directory per key holding payload files and a
  ``meta.json`` with the schema and every file's size and sha256.
  Entries are published atomically and verified on every read; a
  damaged entry is quarantined, never served.
* Two codecs on that store: :data:`REPORT` (one ``report.json`` of
  ``SimulationReport.to_json()``, behind :class:`ReportCache`) and
  :data:`TRACE` (a workload's four trace arrays as ``.npy`` files,
  loaded with ``mmap_mode="r"``, plus its stream and phase metadata).

The code stamp (:func:`code_stamp`) hashes the source of every package
whose behaviour feeds a report (``sim``, ``core``, ``baselines``,
``workloads``, ``faults``) — any edit to simulator semantics silently
invalidates the whole cache, which is exactly what a reproduction
harness wants: stale results are worse than slow ones.

Environment knobs (see README):

* ``REPRO_CACHE_DIR`` — cache directory (default:
  ``$XDG_CACHE_HOME/repro-ndpext`` or ``~/.cache/repro-ndpext``).
* ``REPRO_DISK_CACHE=0`` — disable the persistent layer entirely (the
  in-process caches still apply).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import inspect
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from repro.core.stream import StreamConfig, StreamKind, StreamTable
from repro.obs.tracing import current
from repro.sim.metrics import SimulationReport
from repro.workloads.trace import Trace, Workload

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_DISK_CACHE"

# Bump when the on-disk entry layout (not the simulated values) changes.
# An entry with an older integer schema is a stale miss that the next
# ``put`` replaces; any other schema is corrupt.  Schema 3 is the first
# shared by reports and traces (both were at 2 in separate layouts).
SCHEMA = 3

# Packages whose source determines simulation results; their content
# hash is part of every key.
_BEHAVIOR_PACKAGES = ("sim", "core", "baselines", "workloads", "faults")

_code_stamp_cache: str | None = None


@contextlib.contextmanager
def throwaway_cache_dir(prefix: str = "repro-throwaway-"):
    """Redirect ``REPRO_CACHE_DIR`` to a temp dir for the enclosed block.

    Used by the ``profile`` verb, which needs runs that *actually
    execute* rather than hit the user's warm cache.  The
    environment variable is restored and the directory removed no
    matter how the block exits — a crashing profiled run cannot leak a
    directory or leave the redirect in place — and cleanup errors are
    swallowed (``ignore_cleanup_errors``): a worker killed mid-write may
    hold a file open briefly, and a leaked *empty* temp dir is better
    than masking the original exception.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    with tempfile.TemporaryDirectory(
        prefix=prefix, ignore_cleanup_errors=True
    ) as tmp:
        try:
            os.environ[CACHE_DIR_ENV] = tmp
            yield Path(tmp)
        finally:
            if previous is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous


def cache_enabled() -> bool:
    """Whether the persistent cache layer is on (default: yes)."""
    return os.environ.get(CACHE_DISABLE_ENV, "1").lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


def cache_root() -> Path:
    """The cache directory, honouring ``REPRO_CACHE_DIR`` / XDG."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-ndpext"


def code_stamp() -> str:
    """SHA-256 over the simulator's behaviour-determining source files.

    Computed once per process; any change to the hashed packages yields
    a different stamp and therefore a disjoint key space.
    """
    global _code_stamp_cache
    if _code_stamp_cache is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for package in _BEHAVIOR_PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _code_stamp_cache = digest.hexdigest()
    return _code_stamp_cache


def _canonical(value):
    """Recursively reduce a value to JSON-able primitives, keeping type
    names for dataclasses so e.g. two fault-event kinds with identical
    fields can never collide."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **body}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def content_key(*, stamp: str | None = None, **parts) -> str:
    """sha256 over the canonical JSON (sorted keys, fixed separators) of
    ``parts`` plus the code stamp: the one key of every store entry.
    A workload trace is keyed ``content_key(workload=name, scale=scale)``.
    """
    payload = {"stamp": stamp if stamp is not None else code_stamp(), **parts}
    blob = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_key(
    workload: str,
    policy: Callable,
    config,
    scale,
    options: dict | None = None,
    faults=None,
    stamp: str | None = None,
) -> str:
    """Content hash identifying one simulation cell: what the engine runs.

    ``policy`` is a policy class or a ``functools.partial`` of one;
    ``options`` are further keyword arguments.  The key hashes the class
    name and every constructor argument, defaults applied, so a
    spelled-out default or an alias shares the plain call's key, and an
    option the constructor does not take raises ``TypeError``.
    ``SystemConfig.name`` is a label no simulation reads, so it is left
    out.
    """
    bound = inspect.signature(policy).bind(**(options or {}))
    bound.apply_defaults()
    system = _canonical(config)
    del system["name"]
    return content_key(
        stamp=stamp,
        workload=workload,
        policy=getattr(policy, "func", policy).__name__,
        config=system,
        scale=scale,
        options=bound.arguments,
        faults=faults,
    )


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists renames within it)."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_synced(path: Path, data) -> None:
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


def _file_sha256(f) -> str:
    digest = hashlib.sha256()
    for chunk in iter(lambda: f.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _file_lock(path: Path):
    """Blocking exclusive flock on ``path``; yields whether it was taken.

    Platforms without ``fcntl`` (or unwritable cache roots) degrade to
    lockless behaviour — callers must still be correct, just without the
    build-once guarantee.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield False
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    except OSError:
        yield False
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield True
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
    finally:
        os.close(fd)


class Codec(NamedTuple):
    """How one kind of value is laid out as an entry's payload files.

    ``kind`` names the entries' directory (``<root>/<kind>s/``) and the
    store's spans (``cache.<kind>_load`` / ``_write`` / ``_build``).
    ``encode`` yields ``(file name, bytes)`` pairs one at a time, so
    only one payload is held in memory; ``decode`` reads a verified
    entry directory back into a value.
    """

    kind: str
    encode: Callable[[Any], Iterable[tuple[str, Any]]]
    decode: Callable[[Path], Any]


class Store:
    """Content-addressed entries, one directory per key.

    An entry is ``<root>/<kind>s/<key[:2]>/<key>/``: the codec's payload
    files plus a ``meta.json`` holding the schema and each file's byte
    size and sha256.  The rules are the same for every codec:

    * **Publish** — each payload file is written and fsync'd, then
      ``meta.json``, then the temp directory is renamed into place and
      the parent directory fsync'd, so a crash can never publish a torn
      entry.  An entry already in place (stale, or a concurrent
      writer's) is replaced.
    * **Read** — ``load`` checks that ``meta.json`` lists exactly the
      entry's files and verifies every size and checksum before
      decoding.  Any failure moves the entry to ``<root>/quarantine/``
      (counted on ``quarantined``) and reads as a miss, so a cache
      problem never fails a run and operators can inspect the damage.
    * **Build once** — ``get_or_build`` serializes builders of one key
      on an exclusive per-key ``flock``.

    ``hits``, ``misses`` and ``quarantined`` count ``load`` outcomes.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _dir(self, key: str, codec: Codec) -> Path:
        return self.root / f"{codec.kind}s" / key[:2] / key

    def _quarantine(self, entry: Path) -> None:
        target = self.root / "quarantine" / entry.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(target, ignore_errors=True)
            os.replace(entry, target)
        except OSError:
            return
        self.quarantined += 1

    def load(self, key: str, codec: Codec):
        """The verified value stored under ``key``, or None on a miss."""
        with current().span(f"cache.{codec.kind}_load", cat="io"):
            entry = self._dir(key, codec)
            try:
                raw = (entry / "meta.json").read_bytes()
            except OSError:
                self.misses += 1
                return None
            try:
                if not self._verify(entry, raw):
                    self.misses += 1
                    return None
                value = codec.decode(entry)
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(entry)
                self.misses += 1
                return None
            self.hits += 1
            return value

    @staticmethod
    def _verify(entry: Path, raw: bytes) -> bool:
        """False for a stale entry; raises ValueError for a corrupt one."""
        meta = json.loads(raw)
        if not isinstance(meta, dict):
            raise ValueError("metadata is not an object")
        schema = meta.get("schema")
        if schema != SCHEMA:
            if type(schema) is int and schema < SCHEMA:
                return False
            raise ValueError(f"unrecognizable schema {schema!r}")
        files = meta["files"]
        if not isinstance(files, dict) or not files:
            raise ValueError("no payload files listed")
        if set(os.listdir(entry)) != {*files, "meta.json"}:
            raise ValueError("entry files differ from its metadata")
        for name, (size, sha256) in files.items():
            with open(entry / name, "rb") as f:
                if os.fstat(f.fileno()).st_size != size:
                    raise ValueError(f"{name} truncated or oversized")
                if _file_sha256(f) != sha256:
                    raise ValueError(f"{name} checksum mismatch")
        return True

    def save(self, key: str, value, codec: Codec) -> bool:
        """Publish ``value`` under ``key``; never fails the caller.
        Returns whether the entry was published."""
        with current().span(f"cache.{codec.kind}_write", cat="io"):
            entry = self._dir(key, codec)
            tmp = entry.parent / f".tmp-{key[:16]}-{os.getpid()}"
            try:
                tmp.mkdir(parents=True, exist_ok=True)
                files = {}
                for name, data in codec.encode(value):
                    _write_synced(tmp / name, data)
                    files[name] = [len(data), hashlib.sha256(data).hexdigest()]
                meta = {"schema": SCHEMA, "files": files}
                _write_synced(tmp / "meta.json", json.dumps(meta).encode())
                self._publish(tmp, entry)
                return True
            except (OSError, TypeError, ValueError):
                # Unwritable root, or a value the codec cannot encode
                # (e.g. a test double): skip caching, keep the run.
                return False
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

    @staticmethod
    def _publish(tmp: Path, entry: Path) -> None:
        try:
            os.rename(tmp, entry)
        except OSError:
            # An entry is in the way (stale, or a concurrent writer's
            # equivalent one): move it aside and take its place.
            # Readers that mapped its files keep them until they close.
            aside = entry.with_name(f".old-{entry.name[:16]}-{os.getpid()}")
            os.rename(entry, aside)
            try:
                os.rename(tmp, entry)
            finally:
                shutil.rmtree(aside, ignore_errors=True)
        fsync_dir(entry.parent)

    def get_or_build(self, key: str, codec: Codec, build: Callable[[], Any]):
        """Fetch ``key``, or build it exactly once across processes.

        The fast path is lock-free.  On a miss, an exclusive per-key
        ``flock`` serializes builders: the winner builds and publishes,
        everyone else blocks on the lock and then reads the winner's
        entry.  The builder decodes the entry it just published, so it
        too ends up on the shared (for traces, mmapped) copy; those
        bytes were checksummed on the way out and are not verified
        again.
        """
        found = self.load(key, codec)
        if found is not None:
            return found
        tracer = current()
        with contextlib.ExitStack() as stack:
            with tracer.span("cache.lock_wait", cat="io"):
                locked = stack.enter_context(
                    _file_lock(self.root / "locks" / f"{key}.lock")
                )
            if locked:
                found = self.load(key, codec)
                if found is not None:
                    return found
            with tracer.span(f"cache.{codec.kind}_build", cat="io"):
                value = build()
            if self.save(key, value, codec):
                with contextlib.suppress(OSError, ValueError):
                    value = codec.decode(self._dir(key, codec))
        return value


def _encode_report(report: SimulationReport):
    yield "report.json", json.dumps(report.to_json()).encode()


def _decode_report(entry: Path) -> SimulationReport:
    return SimulationReport.from_json(
        json.loads((entry / "report.json").read_bytes())
    )


REPORT = Codec("report", _encode_report, _decode_report)

_ARRAYS = ("core", "addr", "write", "sid")


def _encode_trace(workload: Workload):
    for name in _ARRAYS:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(getattr(workload.trace, name)))
        yield f"{name}.npy", buffer.getbuffer()
    meta = {
        "name": workload.name,
        "streams": [
            {**dataclasses.asdict(s), "kind": s.kind.value}
            for s in workload.streams
        ],
        "compute_cycles_per_access": workload.compute_cycles_per_access,
        "description": workload.description,
        "phases": workload.phases,
    }
    yield "workload.json", json.dumps(meta).encode()


def _decode_trace(entry: Path) -> Workload:
    meta = json.loads((entry / "workload.json").read_bytes())
    arrays = {
        name: np.load(entry / f"{name}.npy", mmap_mode="r", allow_pickle=False)
        for name in _ARRAYS
    }
    streams = StreamTable()
    for m in meta["streams"]:
        streams.configure(
            StreamConfig(
                **{**m, "kind": StreamKind(m["kind"]), "dims": tuple(m["dims"])}
            )
        )
    return Workload(
        name=meta["name"],
        streams=streams,
        trace=Trace(**arrays),
        compute_cycles_per_access=meta["compute_cycles_per_access"],
        description=meta["description"],
        phases=[(pos, label) for pos, label in meta["phases"]],
    )


TRACE = Codec("trace", _encode_trace, _decode_trace)


class ReportCache(Store):
    """The report codec on a :class:`Store`: one ``report.json`` of
    ``SimulationReport.to_json()`` per simulation cell.

    Opening one unlinks the report files of the layout before
    :class:`Store` (``reports/<xx>/<key>.json``): no read reaches them,
    and the current layout writes only directories there.
    """

    def __init__(self, root: Path | str) -> None:
        super().__init__(root)
        for path in (self.root / "reports").glob("*/*.json"):
            if path.is_file():
                with contextlib.suppress(OSError):
                    path.unlink()

    def get(self, key: str) -> SimulationReport | None:
        return self.load(key, REPORT)

    def put(self, key: str, report: SimulationReport) -> None:
        self.save(key, report, REPORT)
