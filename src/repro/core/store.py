"""Persistent result store: durable, resumable campaign records.

A :class:`ResultStore` is a directory holding

* ``manifest.json`` -- one JSON document describing the run that produced
  the records: seed, systems, plugin configurations, keyboard layout and
  executor settings.  The manifest is what makes a store *resumable*: a
  later invocation can verify it is about to continue the same experiment
  (same seed and plugin configuration) before skipping work.
* ``<system>.jsonl`` -- one append-only JSON-Lines file per system.  Each
  line is ``{"campaign": <name>, "record": <InjectionRecord.to_dict()>}``;
  records are appended (and flushed) as they land.
* ``systems.json`` -- the system-key -> file-name index, written before the
  first record of each system.  ``filename_for`` sanitisation is lossy
  (``mysql/full`` becomes ``mysql_full.jsonl``), so without the index a
  store whose manifest is missing could not map its files back to keys.

Durability guarantee, precisely: the engine releases records to the store
in scenario order as the in-order front of the sequence completes, under
*every* executor strategy.  A killed run therefore leaves the contiguous
prefix of already-released records on disk and loses only the in-flight
tail -- the experiments still running plus any that finished out of order
ahead of a still-running earlier scenario (on the order of ``jobs x
block_size`` records, exactly one for a serial run).  Resuming replays
only the scenarios whose records are missing.

The append-only layout is deliberate: injection campaigns are long, every
record is immutable once classified, and a crashed or killed run must leave
a readable prefix behind.  Trailing partial lines (the one write a crash can
tear) are ignored on load.  One append-mode handle is cached per system (a
record write is a single buffered write + flush, not an open/close); call
:meth:`close` -- or use the store as a context manager -- to release the
handles deterministically.  ``close`` is idempotent.

Concurrency contract, precisely:

* **One writer per store directory.**  The first write (manifest or record
  append) takes an advisory ``store.lock`` file naming the writing process;
  a second writer on the same directory fails fast with a pointed
  :class:`StoreError` instead of silently interleaving appends.  The lock
  is released by :meth:`close` and broken automatically when its holder is
  a dead process on this host (a ``kill -9`` must not brick the store).
* **Any number of concurrent readers.**  Readers (``iter_records``,
  ``load_profiles`` and every ``--from-store`` renderer) take no lock and
  never block the writer.  Because a record append is a single buffered
  ``write()`` of one complete line followed by a flush, a reader streaming
  the file mid-append sees only complete records plus at most one torn
  trailing line -- which :meth:`iter_records` already tolerates.  Live
  progress endpoints poll exactly this way.
"""

from __future__ import annotations

import json
import os
import re
import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.profile import InjectionRecord, ResilienceProfile
from repro.errors import StoreError

__all__ = [
    "ResultStore",
    "MANIFEST_VERSION",
    "QUARANTINE_NAME",
    "LOCK_NAME",
    "filename_for",
    "FileCheck",
    "StoreReport",
    "diff_stores",
]

#: Bump when the on-disk layout changes incompatibly.
MANIFEST_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_SYSTEMS_INDEX_NAME = "systems.json"
#: Advisory writer-lock file: holds ``{"pid", "host", "argv"}`` of the one
#: process allowed to append to this store directory.
LOCK_NAME = "store.lock"
#: Manifest of scenarios the fault-tolerance layer gave up on, kept next to
#: -- never inside -- the per-system record files: the main stream stays a
#: clean record of real experiment outcomes, and a resumed run can decide to
#: re-attempt or keep skipping the quarantined ones.
QUARANTINE_NAME = "quarantine.jsonl"
#: Suffix :meth:`ResultStore.repair` moves unreadable lines under; chosen so
#: ``*.jsonl`` globs (and therefore :meth:`ResultStore.systems`) skip it.
_CORRUPT_SUFFIX = ".corrupt"
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def filename_for(system: str) -> str:
    """Map a system key to a safe JSONL file name.

    Public because spec validation must refuse two system labels whose
    sanitized filenames collide (their records would interleave in one file).
    """
    safe = _UNSAFE.sub("_", system)
    return f"{safe}.jsonl"


@dataclass
class FileCheck:
    """Verification result for one JSONL file in a store."""

    system: str
    path: str
    records: int = 0
    corrupt_lines: list[int] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt_lines and not self.torn_tail


@dataclass
class StoreReport:
    """Outcome of :meth:`ResultStore.verify` or :meth:`ResultStore.repair`."""

    root: str
    files: list[FileCheck] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: True when produced by :meth:`ResultStore.repair` (files were rewritten).
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.problems and all(check.clean for check in self.files)

    def summary(self) -> str:
        """Human-readable multi-line report."""
        action = "repaired" if self.repaired else "verified"
        lines = [f"store {self.root}: {action}, {'clean' if self.clean else 'problems found'}"]
        for check in self.files:
            status = []
            if check.corrupt_lines:
                status.append(
                    f"{len(check.corrupt_lines)} corrupt line(s) at "
                    + ", ".join(str(n) for n in check.corrupt_lines[:5])
                    + ("..." if len(check.corrupt_lines) > 5 else "")
                )
            if check.torn_tail:
                status.append("torn trailing line")
            detail = "; ".join(status) if status else "clean"
            lines.append(f"  {check.path}: {check.records} record(s), {detail}")
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        return "\n".join(lines)


class ResultStore:
    """Append-only, per-system JSONL storage for injection records."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._manifest_cache: dict[str, Any] | None = None
        #: One cached append-mode handle per system; opening implies the
        #: file's torn tail (if any) has been repaired.
        self._handles: dict[str, Any] = {}
        #: Cached append handle for ``quarantine.jsonl`` (shared by systems).
        self._quarantine_handle: Any = None
        #: Cached system-key -> file-name index (``systems.json``).
        self._systems_index: dict[str, str] | None = None
        #: Whether this instance holds the advisory ``store.lock``.
        self._lock_owned = False

    def close(self) -> None:
        """Close cached append handles and release the writer lock.

        Idempotent: closing an already-closed (or never-written) store is a
        no-op, and appending after a close simply reopens the handles and
        re-acquires the lock.
        """
        handles, self._handles = self._handles, {}
        quarantine, self._quarantine_handle = self._quarantine_handle, None
        if quarantine is not None:
            handles["\x00quarantine"] = quarantine
        for handle in handles.values():
            try:
                handle.close()
            except OSError:  # pragma: no cover - close() on flushed appends
                pass
        self._release_writer_lock()

    # -------------------------------------------------------------- writer lock
    @property
    def lock_path(self) -> Path:
        return self.root / LOCK_NAME

    def _acquire_writer_lock(self) -> None:
        """Take the advisory one-writer-per-directory lock (idempotent).

        A live competing writer is a hard error: two appenders would
        interleave records in the same JSONL files.  A lock held by a dead
        process on this host (crash, ``kill -9``) is broken and re-taken; a
        lock from another host cannot be verified and is honoured.
        """
        if self._lock_owned:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname()}, sort_keys=True
        )
        for _attempt in range(16):  # bounded: stale-lock breaking can race
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock_holder()
                if holder is not None and not self._holder_is_dead(holder):
                    raise StoreError(
                        f"result store {self.root} is locked by another writer "
                        f"(pid {holder.get('pid')} on {holder.get('host')}, "
                        f"{self.lock_path}); a store accepts one concurrent "
                        "writer -- wait for it to finish, or remove the lock "
                        "file if that process is truly gone"
                    )
                try:  # stale (dead holder) or unreadable: break it and retry
                    self.lock_path.unlink()
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            self._lock_owned = True
            return
        raise StoreError(  # pragma: no cover - needs a pathological unlink race
            f"could not acquire {self.lock_path} after repeated attempts"
        )

    def _read_lock_holder(self) -> dict[str, Any] | None:
        """The lock file's ``{"pid", "host"}`` payload, or None when unreadable."""
        try:
            raw = json.loads(self.lock_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return raw if isinstance(raw, dict) else None

    @staticmethod
    def _holder_is_dead(holder: Mapping[str, Any]) -> bool:
        """Whether the lock's holder is verifiably gone (same host, dead pid)."""
        if holder.get("host") != socket.gethostname():
            return False  # another host: cannot verify, assume alive
        pid = holder.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return True  # malformed payload: nobody to honour
        if pid == os.getpid():
            return False  # another ResultStore instance in this very process
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # pragma: no cover - other user's live process
            return False
        return False

    def _release_writer_lock(self) -> None:
        if not self._lock_owned:
            return
        self._lock_owned = False
        try:
            self.lock_path.unlink()
        except OSError:  # pragma: no cover - lock dir removed underneath us
            pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def exists(self) -> bool:
        """Whether this store has been initialised (has a manifest)."""
        return self.manifest_path.is_file()

    def write_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Initialise the store directory and persist the run manifest."""
        self._acquire_writer_lock()
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"version": MANIFEST_VERSION, **manifest}
        self.manifest_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        self._manifest_cache = payload

    def read_manifest(self) -> dict[str, Any]:
        """Load the manifest; raises :class:`StoreError` when absent or corrupt.

        The parsed manifest is cached on the instance: the manifest is
        written once per run, while loading a store reads it many times.
        """
        if self._manifest_cache is not None:
            return self._manifest_cache
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise StoreError(f"no result store at {self.root} (missing {_MANIFEST_NAME})") from None
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt manifest in {self.root}: {exc}") from exc
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"result store {self.root} has manifest version {version!r}; "
                f"this build reads version {MANIFEST_VERSION}"
            )
        self._manifest_cache = manifest
        return manifest

    def require_kind(self, *kinds: str) -> dict[str, Any]:
        """Check the store was produced by one of the given run kinds.

        Guards the ``--from-store`` readers: rendering Table 1 from, say, a
        table3 store would produce a plausible-looking but wrong artefact.
        Returns the manifest on success.
        """
        manifest = self.read_manifest()
        kind = manifest.get("kind")
        if kind not in kinds:
            raise StoreError(
                f"result store {self.root} holds a {kind!r} run; "
                f"this reader needs one of: {', '.join(kinds)}"
            )
        return manifest

    def check_compatible(self, manifest: Mapping[str, Any]) -> None:
        """Verify a resume continues the experiment described by ``manifest``.

        When both the stored and the offered manifest embed a serialized
        :class:`~repro.core.spec.ExperimentSpec`, compatibility is a
        structured spec diff that reports the exact offending paths (worker
        settings and the store location are ignored -- profiles are
        executor-invariant).  Otherwise the legacy field-by-field comparison
        applies: any difference in seed, systems or plugin configuration
        means the stored scenario ids cannot be trusted to match, so the
        resume is refused with a pointed message.
        """
        stored = self.read_manifest()
        # the run kind guards the spec path too: a table1 store and a suite
        # spec may serialize identically but derive per-campaign seeds
        # differently, so resuming across kinds would double-populate records
        if stored.get("kind") != manifest.get("kind"):
            raise StoreError(
                f"store {self.root} was produced by a different run: "
                f"kind is {stored.get('kind')!r} on disk "
                f"but {manifest.get('kind')!r} now"
            )
        stored_spec, offered_spec = stored.get("spec"), manifest.get("spec")
        if isinstance(stored_spec, Mapping) and isinstance(offered_spec, Mapping):
            from repro.core.spec import diff_spec_dicts

            diffs = diff_spec_dicts(stored_spec, offered_spec)
            if diffs:
                raise StoreError(
                    f"store {self.root} was produced by a different experiment: "
                    + "; ".join(diffs[:5])
                    + ("; ..." if len(diffs) > 5 else "")
                )
            return
        # "kind" is already handled by the early guard above
        for field in ("seed", "systems", "plugins", "layout"):
            if stored.get(field) != manifest.get(field):
                raise StoreError(
                    f"store {self.root} was produced by a different run: "
                    f"{field} is {stored.get(field)!r} on disk "
                    f"but {manifest.get(field)!r} now"
                )

    # ------------------------------------------------------------------ records
    def path_for(self, system: str) -> Path:
        return self.root / filename_for(system)

    def append(self, system: str, campaign: str, record: InjectionRecord) -> None:
        """Append one record; flushed immediately so interrupts lose at most one.

        The append-mode handle is opened once per system and cached (a
        campaign appends thousands of records; open/close per record costs
        more than the write).  First open also repairs a torn tail and
        registers the system key in ``systems.json``.

        Records stamped ``metadata["quarantined"]`` by the fault-tolerance
        layer are routed to ``quarantine.jsonl`` instead of the system's
        record file: they describe harness faults, not experiment outcomes,
        and the main stream must stay byte-comparable to a fault-free run.
        """
        if record.metadata.get("quarantined"):
            self._append_quarantined(system, campaign, record)
            return
        handle = self._handles.get(system)
        if handle is None:
            self._acquire_writer_lock()
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path_for(system)
            # A prior crash may have torn the final line mid-write; appending
            # straight after it would weld this record onto the garbage and
            # turn it into an unreadable *interior* line.  Drop the torn tail
            # instead: its record was never counted as completed (iter_records
            # skips it), so the scenario simply runs again and re-appends.
            self._truncate_torn_tail(path)
            self._register_system(system)
            handle = open(path, "ab")
            self._handles[system] = handle
        line = json.dumps({"campaign": campaign, "record": record.to_dict()})
        handle.write(line.encode("utf-8") + b"\n")
        handle.flush()

    @staticmethod
    def _truncate_torn_tail(path: Path) -> None:
        """Truncate ``path`` back to the end of its last complete line."""
        try:
            handle = open(path, "rb+")
        except FileNotFoundError:
            return
        with handle:
            size = handle.seek(0, 2)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            position, last_newline, chunk = size, -1, 4096
            while position > 0 and last_newline < 0:
                start = max(0, position - chunk)
                handle.seek(start)
                data = handle.read(position - start)
                index = data.rfind(b"\n")
                if index >= 0:
                    last_newline = start + index
                position = start
            handle.truncate(last_newline + 1 if last_newline >= 0 else 0)

    def iter_records(self, system: str) -> Iterator[tuple[str, InjectionRecord]]:
        """Yield ``(campaign, record)`` pairs for one system, in append order.

        The file is streamed line by line (a long campaign's JSONL can dwarf
        memory; loading a store must not slurp it whole).  A torn trailing
        line (crash mid-write) is skipped silently; a corrupt line elsewhere
        raises :class:`StoreError` since silently dropping interior records
        would fake completed work on resume -- whether a corrupt line is the
        tail is only known once the next line (any line, even a blank one)
        proves it interior, so the error is raised one line late.
        """
        path = self.path_for(system)
        if not path.is_file():
            return
        pending: tuple[int, Exception] | None = None  # corrupt line awaiting a tail verdict
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                if pending is not None:
                    corrupt_number, exc = pending
                    raise StoreError(
                        f"corrupt record at {path}:{corrupt_number}: {exc}"
                    ) from exc
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    record = InjectionRecord.from_dict(entry["record"])
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    pending = (number, exc)  # torn final write, unless more follows
                    continue
                yield str(entry.get("campaign", "")), record

    def completed_ids(self, system: str) -> set[tuple[str, str]]:
        """``(campaign, scenario_id)`` pairs already on disk for one system."""
        return {(campaign, record.scenario_id) for campaign, record in self.iter_records(system)}

    # --------------------------------------------------------------- quarantine
    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_NAME

    def _append_quarantined(self, system: str, campaign: str, record: InjectionRecord) -> None:
        if self._quarantine_handle is None:
            self._acquire_writer_lock()
            self.root.mkdir(parents=True, exist_ok=True)
            self._truncate_torn_tail(self.quarantine_path)
            self._quarantine_handle = open(self.quarantine_path, "ab")
        line = json.dumps({"system": system, "campaign": campaign, "record": record.to_dict()})
        self._quarantine_handle.write(line.encode("utf-8") + b"\n")
        self._quarantine_handle.flush()

    def iter_quarantined(
        self, system: str | None = None
    ) -> Iterator[tuple[str, str, InjectionRecord]]:
        """Yield ``(system, campaign, record)`` from the quarantine manifest.

        Same torn-tail tolerance as :meth:`iter_records`: a torn final line
        is skipped, a corrupt interior line raises.
        """
        path = self.quarantine_path
        if not path.is_file():
            return
        pending: tuple[int, Exception] | None = None
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                if pending is not None:
                    corrupt_number, exc = pending
                    raise StoreError(
                        f"corrupt record at {path}:{corrupt_number}: {exc}"
                    ) from exc
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    record = InjectionRecord.from_dict(entry["record"])
                    entry_system = str(entry["system"])
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    pending = (number, exc)
                    continue
                if system is None or entry_system == system:
                    yield entry_system, str(entry.get("campaign", "")), record

    def quarantined_ids(self, system: str) -> set[tuple[str, str]]:
        """``(campaign, scenario_id)`` pairs quarantined for one system."""
        return {
            (campaign, record.scenario_id)
            for _, campaign, record in self.iter_quarantined(system)
        }

    def clear_quarantine(self, system: str | None = None) -> int:
        """Drop quarantine entries (all, or one system's) so a resume retries them.

        Returns the number of entries removed.  The manifest is compacted
        in place via an atomic replace; an empty result removes the file.
        """
        if self._quarantine_handle is not None:
            self._quarantine_handle.close()
            self._quarantine_handle = None
        path = self.quarantine_path
        if not path.is_file():
            return 0
        # compacting the manifest is a write: the resuming run that calls
        # this is about to append anyway, so take (and keep) the writer lock
        self._acquire_writer_lock()
        kept: list[str] = []
        dropped = 0
        for entry_system, campaign, record in self.iter_quarantined():
            if system is not None and entry_system != system:
                kept.append(
                    json.dumps(
                        {"system": entry_system, "campaign": campaign, "record": record.to_dict()}
                    )
                )
            else:
                dropped += 1
        if kept:
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text("\n".join(kept) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        else:
            path.unlink()
        return dropped

    # ------------------------------------------------------------- systems index
    def _load_systems_index(self) -> dict[str, str]:
        """The ``systems.json`` key -> file-name index (cached; {} when absent).

        A corrupt index (crash mid-rewrite) degrades to {} rather than
        raising: the index is recovery metadata, and the next append rewrites
        it whole.
        """
        if self._systems_index is None:
            try:
                raw = json.loads((self.root / _SYSTEMS_INDEX_NAME).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                raw = {}
            self._systems_index = {
                key: value
                for key, value in (raw.items() if isinstance(raw, dict) else ())
                if isinstance(key, str) and isinstance(value, str)
            }
        return self._systems_index

    def _register_system(self, system: str) -> None:
        """Record ``system``'s key -> file-name mapping before its first append.

        ``filename_for`` sanitisation is lossy (``mysql/full`` and
        ``mysql_full`` share a file name), so the original key must be
        stored where :meth:`systems` can recover it even without a manifest.
        """
        index = self._load_systems_index()
        filename = filename_for(system)
        if index.get(system) == filename:
            return
        index[system] = filename
        path = self.root / _SYSTEMS_INDEX_NAME
        path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # ------------------------------------------------------------------ loading
    def systems(self) -> list[str]:
        """System keys, in manifest order (falling back to the on-disk index).

        Without a manifest the keys come from ``systems.json`` -- the inverse
        of :func:`filename_for`'s lossy sanitisation -- plus, sorted after
        them, the bare stems of any ``*.jsonl`` files the index does not
        cover (stores written before the index existed).
        """
        if self.exists():
            manifest = self.read_manifest()
            recorded = manifest.get("systems")
            if isinstance(recorded, Mapping):
                return list(recorded)
        index = self._load_systems_index()
        indexed_files = set(index.values())
        legacy = sorted(
            path.stem
            for path in self.root.glob("*.jsonl")
            if path.name not in indexed_files and path.name != QUARANTINE_NAME
        )
        return sorted(index) + legacy

    def system_display_name(self, system: str) -> str:
        """Human-readable name for a system key (from the manifest)."""
        if self.exists():
            recorded = self.read_manifest().get("systems")
            if isinstance(recorded, Mapping):
                name = recorded.get(system)
                if isinstance(name, str):
                    return name
        return system

    def load_profiles(self) -> dict[str, dict[str, ResilienceProfile]]:
        """Rebuild per-system, per-campaign profiles from disk.

        Returns ``{system_key: {campaign: profile}}``; record order within a
        campaign is append order, which for a completed run is scenario order.
        """
        result: dict[str, dict[str, ResilienceProfile]] = {}
        for system in self.systems():
            display = self.system_display_name(system)
            per_campaign: dict[str, ResilienceProfile] = {}
            for campaign, record in self.iter_records(system):
                per_campaign.setdefault(campaign, ResilienceProfile(display)).add(record)
            result[system] = per_campaign
        return result

    def merged_profiles(self) -> dict[str, ResilienceProfile]:
        """One merged profile per system (all campaigns), keyed by display name.

        Two system keys sharing a display name merge into one profile rather
        than one silently shadowing the other.
        """
        merged: dict[str, ResilienceProfile] = {}
        for system, per_campaign in self.load_profiles().items():
            display = self.system_display_name(system)
            profile = merged.setdefault(display, ResilienceProfile(display))
            for campaign_profile in per_campaign.values():
                profile.extend(campaign_profile.records)
        return merged

    # ------------------------------------------------------------ verify/repair
    def _record_files(self) -> list[tuple[str, Path]]:
        """Every JSONL file worth checking: per-system files + quarantine."""
        files: list[tuple[str, Path]] = []
        seen: set[str] = set()
        for system in self.systems():
            path = self.path_for(system)
            if path.is_file() and path.name not in seen:
                seen.add(path.name)
                files.append((system, path))
        for path in sorted(self.root.glob("*.jsonl")):
            if path.name not in seen and path.name != QUARANTINE_NAME:
                seen.add(path.name)
                files.append((path.stem, path))
        if self.quarantine_path.is_file():
            files.append(("<quarantine>", self.quarantine_path))
        return files

    @staticmethod
    def _classify_lines(path: Path, quarantine: bool) -> tuple[int, list[int], bool]:
        """Scan one JSONL file: ``(records, corrupt interior lines, torn tail)``.

        Mirrors :meth:`iter_records`'s verdict rule: an unreadable line is a
        *torn tail* only when nothing follows it; any unreadable line with a
        successor is corrupt interior.
        """
        records = 0
        corrupt: list[int] = []
        pending: int | None = None
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                if pending is not None:
                    corrupt.append(pending)
                    pending = None
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    InjectionRecord.from_dict(entry["record"])
                    if quarantine:
                        str(entry["system"])
                except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                    pending = number
                    continue
                records += 1
        return records, corrupt, pending is not None

    def verify(self) -> StoreReport:
        """Scan the whole store without modifying it.

        Classifies, per file, readable records, corrupt interior lines and a
        torn trailing line (the one write a crash can tear), and checks the
        manifest and ``systems.json`` index are loadable.  A clean report
        means every ``--from-store`` reader will load the store without
        error.
        """
        report = StoreReport(root=str(self.root))
        try:
            if self.exists():
                self.read_manifest()
            else:
                report.problems.append(f"no manifest ({_MANIFEST_NAME} missing)")
        except StoreError as exc:
            report.problems.append(str(exc))
        index = self._load_systems_index()
        for system, filename in sorted(index.items()):
            if not (self.root / filename).is_file() and not self._handles.get(system):
                report.problems.append(
                    f"systems.json lists {system!r} -> {filename} but the file is missing"
                )
        for system, path in self._record_files():
            records, corrupt, torn = self._classify_lines(
                path, quarantine=path.name == QUARANTINE_NAME
            )
            report.files.append(
                FileCheck(
                    system=system,
                    path=path.name,
                    records=records,
                    corrupt_lines=corrupt,
                    torn_tail=torn,
                )
            )
        return report

    def repair(self) -> StoreReport:
        """Quarantine unreadable lines so every reader loads what is left.

        Corrupt interior lines and torn tails are moved -- verbatim -- to a
        ``<file>.jsonl.corrupt`` sidecar next to the file (never silently
        deleted: an operator can inspect what was lost), the record file is
        rewritten atomically with only its readable lines, and the
        ``systems.json`` index is rebuilt from the manifest and the files
        that actually exist.  Returns the report of what was moved; a second
        :meth:`verify` afterwards reports clean.
        """
        self.close()
        # repair rewrites record files in place: it is a writer, and must
        # fail fast rather than pull files out from under a live appender
        self._acquire_writer_lock()
        try:
            return self._repair_locked()
        finally:
            self._release_writer_lock()

    def _repair_locked(self) -> StoreReport:
        report = StoreReport(root=str(self.root), repaired=True)
        for system, path in self._record_files():
            records, corrupt, torn = self._classify_lines(
                path, quarantine=path.name == QUARANTINE_NAME
            )
            check = FileCheck(
                system=system,
                path=path.name,
                records=records,
                corrupt_lines=corrupt,
                torn_tail=torn,
            )
            report.files.append(check)
            if check.clean:
                continue
            bad_numbers = set(corrupt)
            sidecar = path.with_name(path.name + _CORRUPT_SUFFIX)
            tmp = path.with_name(path.name + ".tmp")
            with open(path, "r", encoding="utf-8") as source, open(
                tmp, "w", encoding="utf-8"
            ) as good, open(sidecar, "a", encoding="utf-8") as bad:
                lines = source.readlines()
                last_content = max(
                    (i for i, raw in enumerate(lines, start=1) if raw.strip()), default=0
                )
                for number, raw in enumerate(lines, start=1):
                    is_torn = torn and number == last_content
                    if number in bad_numbers or is_torn:
                        bad.write(raw if raw.endswith("\n") else raw + "\n")
                    else:
                        good.write(raw)
            os.replace(tmp, path)
        self._rebuild_systems_index()
        return report

    def _rebuild_systems_index(self) -> None:
        """Regenerate ``systems.json`` from the manifest and the files on disk."""
        index: dict[str, str] = {}
        manifest_systems: list[str] = []
        if self.exists():
            try:
                recorded = self.read_manifest().get("systems")
                if isinstance(recorded, Mapping):
                    manifest_systems = list(recorded)
            except StoreError:
                pass
        stale = self._load_systems_index()
        for system in (*manifest_systems, *sorted(stale)):
            filename = filename_for(system)
            if (self.root / filename).is_file():
                index.setdefault(system, filename)
        covered = set(index.values())
        for path in sorted(self.root.glob("*.jsonl")):
            if path.name not in covered and path.name != QUARANTINE_NAME:
                index.setdefault(path.stem, path.name)
        self._systems_index = index
        (self.root / _SYSTEMS_INDEX_NAME).write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"


def diff_stores(
    left: "ResultStore",
    right: "ResultStore",
    *,
    ignore_quarantined: bool = True,
    ignore_fields: tuple[str, ...] = ("duration_seconds",),
) -> list[str]:
    """Content differences between two stores' record streams.

    The acceptance check behind chaos runs: every record a faulted run
    *did* produce must match the fault-free run's, field for field except
    wall-clock durations.  With ``ignore_quarantined`` (the default),
    scenarios quarantined in either store are exempt -- those are exactly
    the ones the fault layer gave up on.  Returns human-readable
    difference strings; an empty list means the stores agree.
    """
    diffs: list[str] = []
    systems = sorted(set(left.systems()) | set(right.systems()))
    for system in systems:
        exempt: set[tuple[str, str]] = set()
        if ignore_quarantined:
            exempt = left.quarantined_ids(system) | right.quarantined_ids(system)

        def load(store: "ResultStore") -> dict[tuple[str, str], dict]:
            loaded: dict[tuple[str, str], dict] = {}
            for campaign, record in store.iter_records(system):
                key = (campaign, record.scenario_id)
                if key in exempt:
                    continue
                entry = record.to_dict()
                for fieldname in ignore_fields:
                    entry.pop(fieldname, None)
                loaded[key] = entry
            return loaded

        left_records, right_records = load(left), load(right)
        for key in sorted(set(left_records) | set(right_records)):
            campaign, scenario_id = key
            where = f"{system}/{campaign}/{scenario_id}"
            if key not in left_records:
                diffs.append(f"{where}: only in {right.root}")
            elif key not in right_records:
                diffs.append(f"{where}: only in {left.root}")
            elif left_records[key] != right_records[key]:
                changed = sorted(
                    name
                    for name in set(left_records[key]) | set(right_records[key])
                    if left_records[key].get(name) != right_records[key].get(name)
                )
                diffs.append(f"{where}: fields differ: {', '.join(changed)}")
    return diffs
