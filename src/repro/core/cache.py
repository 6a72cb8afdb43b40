"""Content-addressed on-disk cache of golden-run artifacts.

Every :class:`~repro.core.campaign.CampaignSpec` rebuilds its engine
from scratch — in each process-pool worker, each ``--resume``, and each
repeated CLI invocation — which without a cache means re-simulating the
entire golden run.  The golden artifacts are pure functions of the
spec's :meth:`~repro.core.campaign.CampaignSpec.fingerprint` (program
image + entry, electrical parameters, calibration, defect library, bus),
so this module stores them on disk keyed by exactly that.

Entry layout (one file per key, ``<sha256>.rgc`` under the cache root):

* line 1 — a JSON header: magic, format version, key, fingerprint,
  human-readable stats, and a section table ``{name: {offset, length,
  raw_length, codec, sha256}}`` with offsets relative to the byte after
  the header newline;
* body — the concatenated sections, each packed with :mod:`struct` and
  optionally zlib-compressed:

  - ``golden``   — cycle/instruction counts + final memory image,
  - ``trace``    — the golden bus-transaction stream,
  - ``verdicts`` — the screen verdict of every defect of the campaign,
    so warm runs skip the screen too.

  Sections are read by name, so entries written with an extra section
  (older ones carry golden-run ``checkpoints``) still load.

Each entry is written whole, in one store, by the screened engine build
that missed it (:meth:`~repro.core.campaign.CampaignSpec.build_engine`);
entries are never merged or patched.  Integrity: every section carries a SHA-256 over
its stored bytes and is verified on load; any mismatch, truncation,
undecodable structure, or verdict that does not point into the trace
evicts the entry (``corrupt_evicted`` counter) and
reports a miss, and so does an entry path that cannot be read — a
damaged cache can cost time, never correctness.  Writes go through a
temp file + :func:`os.replace`, so readers never observe a partial
entry.  Invalidation is purely key-based: any input change moves the
fingerprint, and :data:`FORMAT_VERSION` is folded into the key so
layout changes orphan (rather than misread) old entries.

The cache is always on and the directory is disposable: deleting it only
costs the next runs their golden capture and screen.  ``REPRO_CACHE_DIR``
overrides the default ``.repro-cache`` root.  All operations count into
``coverage.engine.golden_cache.*`` when an observability session is
active.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.engine import GoldenCapture
from repro.core.signature import GoldenReference
from repro.obs import runtime as obs_runtime
from repro.soc.bus import BusDirection, BusTransaction, TransactionKind
from repro.xtalk.screen import ScreenVerdict

__all__ = [
    "CacheError",
    "CachedCampaign",
    "DEFAULT_CACHE_DIR",
    "FORMAT_VERSION",
    "GoldenRunCache",
    "cache_root",
    "default_cache",
]

logger = logging.getLogger(__name__)

MAGIC = "repro-golden-cache"
FORMAT_VERSION = 1
DEFAULT_CACHE_DIR = ".repro-cache"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_SUFFIX = ".rgc"
_COUNTER_PREFIX = "coverage.engine.golden_cache"

_KINDS: Tuple[TransactionKind, ...] = tuple(TransactionKind)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}
_DIRECTIONS: Tuple[BusDirection, ...] = tuple(BusDirection)
_DIRECTION_INDEX = {direction: index for index, direction in enumerate(_DIRECTIONS)}

# Packed record layouts (little-endian, no padding).
_TXN = struct.Struct("<IBBHHH")  # cycle, kind, direction, previous, driven, received
_VERDICT = struct.Struct("<IBqq")  # defect_index, clean, first_index, first_cycle
_GOLDEN_HEAD = struct.Struct("<II")  # cycles, instructions


class CacheError(Exception):
    """A cache entry could not be encoded or decoded."""


def cache_root() -> Path:
    """The cache directory (``REPRO_CACHE_DIR`` or ``.repro-cache``)."""
    return Path(os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR)


def default_cache() -> "GoldenRunCache":
    """The cache at :func:`cache_root`.

    Reads the environment at call time so tests and workers can point
    ``REPRO_CACHE_DIR`` somewhere hermetic.
    """
    return GoldenRunCache(cache_root())


def _count(name: str, amount: int = 1) -> None:
    obs_runtime.registry().counter(f"{_COUNTER_PREFIX}.{name}").inc(amount)


# ---------------------------------------------------------------------------
# Section codecs
# ---------------------------------------------------------------------------


def _pack_trace(trace: List[BusTransaction]) -> bytes:
    out = bytearray()
    pack = _TXN.pack
    for txn in trace:
        out += pack(
            txn.cycle,
            _KIND_INDEX[txn.kind],
            _DIRECTION_INDEX[txn.direction],
            txn.previous,
            txn.driven,
            txn.received,
        )
    return bytes(out)


def _unpack_trace(blob: bytes, bus: str) -> List[BusTransaction]:
    if len(blob) % _TXN.size:
        raise CacheError("trace section is not a whole number of records")
    trace = []
    for cycle, kind, direction, previous, driven, received in _TXN.iter_unpack(blob):
        if kind >= len(_KINDS) or direction >= len(_DIRECTIONS):
            raise CacheError("trace record has an out-of-range enum index")
        trace.append(
            BusTransaction(
                cycle=cycle,
                bus=bus,
                kind=_KINDS[kind],
                direction=_DIRECTIONS[direction],
                previous=previous,
                driven=driven,
                received=received,
            )
        )
    return trace


def _pack_verdicts(verdicts: Mapping[int, ScreenVerdict]) -> bytes:
    out = bytearray()
    for index in sorted(verdicts):
        verdict = verdicts[index]
        out += _VERDICT.pack(
            verdict.defect_index,
            1 if verdict.clean else 0,
            -1 if verdict.first_index is None else verdict.first_index,
            -1 if verdict.first_cycle is None else verdict.first_cycle,
        )
    return bytes(out)


def _unpack_verdicts(
    blob: bytes, trace: List[BusTransaction]
) -> Dict[int, ScreenVerdict]:
    """Decode the verdicts, each checked against ``trace``.

    A replay steps the fault-free prefix up to its verdict's first
    cycle, so a corrupting verdict must name a transaction of the trace
    and carry its cycle: a hash-valid entry with any other cycle would
    replay past the golden run, or never finish.
    """
    if len(blob) % _VERDICT.size:
        raise CacheError("verdict section is not a whole number of records")
    verdicts = {}
    for index, clean, first_index, first_cycle in _VERDICT.iter_unpack(blob):
        if clean:
            valid = first_index < 0 and first_cycle < 0
        else:
            valid = (
                0 <= first_index < len(trace)
                and first_cycle == trace[first_index].cycle
            )
        if not valid:
            raise CacheError(f"verdict of defect {index} does not fit the trace")
        verdicts[index] = ScreenVerdict(
            defect_index=index,
            clean=bool(clean),
            first_index=None if clean else first_index,
            first_cycle=None if clean else first_cycle,
        )
    return verdicts


# ---------------------------------------------------------------------------
# Entry file format
# ---------------------------------------------------------------------------


def _encode_entry(header: dict, sections: Dict[str, Tuple[bytes, str]]) -> bytes:
    body = bytearray()
    section_table = {}
    for name, (payload, codec) in sections.items():
        stored = zlib.compress(payload, 1) if codec == "zlib" else payload
        section_table[name] = {
            "offset": len(body),
            "length": len(stored),
            "raw_length": len(payload),
            "codec": codec,
            "sha256": hashlib.sha256(stored).hexdigest(),
        }
        body += stored
    header = {**header, "sections": section_table}
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n" + bytes(body)


def _decode_header(data: bytes) -> Tuple[dict, bytes]:
    newline = data.find(b"\n")
    if newline < 0:
        raise CacheError("missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CacheError(f"undecodable header: {error}") from None
    if not isinstance(header, dict):
        raise CacheError("header is not a JSON object")
    if header.get("magic") != MAGIC:
        raise CacheError("bad magic")
    if header.get("version") != FORMAT_VERSION:
        raise CacheError(f"format version {header.get('version')!r} != {FORMAT_VERSION}")
    return header, data[newline + 1 :]


def _read_section(header: dict, body: bytes, name: str) -> bytes:
    sections = header.get("sections")
    if not isinstance(sections, dict) or name not in sections:
        raise CacheError(f"missing section {name!r}")
    meta = sections[name]
    try:
        offset, length = int(meta["offset"]), int(meta["length"])
        codec, digest = meta["codec"], meta["sha256"]
        raw_length = int(meta["raw_length"])
    except (KeyError, TypeError, ValueError) as error:
        raise CacheError(f"malformed section table for {name!r}: {error}") from None
    if offset < 0 or length < 0 or offset + length > len(body):
        raise CacheError(f"section {name!r} exceeds the entry body")
    stored = body[offset : offset + length]
    if hashlib.sha256(stored).hexdigest() != digest:
        raise CacheError(f"section {name!r} failed its integrity hash")
    if codec == "raw":
        payload = stored
    elif codec == "zlib":
        try:
            payload = zlib.decompress(stored)
        except zlib.error as error:
            raise CacheError(f"section {name!r} failed to decompress: {error}") from None
    else:
        raise CacheError(f"section {name!r} has unknown codec {codec!r}")
    if len(payload) != raw_length:
        raise CacheError(f"section {name!r} has the wrong decoded length")
    return payload


@dataclass(frozen=True)
class CachedCampaign:
    """A warm cache entry: everything ``build_engine`` would recompute."""

    capture: GoldenCapture
    verdicts: Dict[int, ScreenVerdict]
    bus: str


class GoldenRunCache:
    """Content-addressed store of golden captures and screen verdicts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- keys ---------------------------------------------------------

    def key_for(self, fingerprint: str) -> str:
        """The entry key for a campaign fingerprint.

        The format version is folded in so layout changes miss cleanly.
        The trailing ``auto`` once named a golden checkpoint spacing; it
        keeps the key bytes of older entries, so those entries still
        load.
        """
        payload = f"{MAGIC}:v{FORMAT_VERSION}:{fingerprint}:auto"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    # -- load / store -------------------------------------------------

    def load(self, fingerprint: str) -> Optional[CachedCampaign]:
        """Return the warm entry for ``fingerprint``, or ``None``.

        Counts a hit or a miss; corrupt entries are unlinked (counted
        as ``corrupt_evicted``) and reported as misses, and so are entry
        paths that cannot be read.
        """
        path = self._path(self.key_for(fingerprint))
        entry = self._load_quiet(path)
        if entry is None:
            _count("misses")
            return None
        _count("hits")
        return entry

    def _load_quiet(self, path: Path) -> Optional[CachedCampaign]:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            logger.warning("cannot read cache entry %s: %s", path, error)
            return None
        try:
            header, body = _decode_header(data)
            memory_size = int(header["memory_size"])
            golden_blob = _read_section(header, body, "golden")
            if len(golden_blob) < _GOLDEN_HEAD.size:
                raise CacheError("golden section is truncated")
            cycles, instructions = _GOLDEN_HEAD.unpack_from(golden_blob, 0)
            memory = golden_blob[_GOLDEN_HEAD.size :]
            if len(memory) != memory_size:
                raise CacheError("golden memory image has the wrong size")
            bus = header["bus"]
            if bus not in ("addr", "data"):
                raise CacheError(f"unknown bus {bus!r}")
            capture = GoldenCapture(
                golden=GoldenReference(
                    snapshot=memory, cycles=cycles, instructions=instructions
                ),
                trace=_unpack_trace(_read_section(header, body, "trace"), bus),
            )
            verdicts = _unpack_verdicts(
                _read_section(header, body, "verdicts"), capture.trace
            )
        except (CacheError, KeyError, TypeError, ValueError, struct.error) as error:
            logger.warning("evicting corrupt cache entry %s: %s", path, error)
            try:
                path.unlink()
            except OSError:
                pass
            _count("corrupt_evicted")
            return None
        return CachedCampaign(capture=capture, verdicts=verdicts, bus=bus)

    def store(
        self,
        fingerprint: str,
        bus: str,
        capture: GoldenCapture,
        verdicts: Optional[Mapping[int, ScreenVerdict]] = None,
    ) -> Path:
        """Write (or overwrite) the entry for ``fingerprint`` atomically."""
        verdicts = dict(verdicts or {})
        key = self.key_for(fingerprint)
        try:
            data = _encode_entry(
                {
                    "magic": MAGIC,
                    "version": FORMAT_VERSION,
                    "key": key,
                    "fingerprint": fingerprint,
                    "bus": bus,
                    "memory_size": len(capture.golden.snapshot),
                    "cycles": capture.golden.cycles,
                    "instructions": capture.golden.instructions,
                    "trace_length": len(capture.trace),
                    "verdict_count": len(verdicts),
                    "created": time.time(),
                },
                {
                    "golden": (
                        _GOLDEN_HEAD.pack(
                            capture.golden.cycles, capture.golden.instructions
                        )
                        + capture.golden.snapshot,
                        "zlib",
                    ),
                    "trace": (_pack_trace(capture.trace), "zlib"),
                    "verdicts": (_pack_verdicts(verdicts), "raw"),
                },
            )
        except struct.error as error:
            raise CacheError(f"entry not representable in cache format: {error}")
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        _count("stores")
        return path
