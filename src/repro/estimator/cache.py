"""Content-addressed, crash-tolerant on-disk cache for sweep results.

One checkpoint directory holds the durable state of one sweep::

    <root>/meta.json         # sweep fingerprint + human-readable summary
    <root>/manifest.jsonl    # one {"key", "sha256"} line per completed cell
    <root>/results/<key>.json  # {"key", "sha256", "payload"} per cell

The unit of storage is a *cell* (see :mod:`repro.estimator.jobs`): its key
is the SHA-256 of the canonical JSON of its parameters, so the same
question always lands on the same file and a repeated query is a file read,
never a simulation.  Durability discipline:

* **Result files are atomic.**  Payloads are written to a temp file in the
  same directory and ``os.replace``-d into place, so a crash leaves either
  the complete record or nothing — never a half-written result.
* **The manifest is append-only and torn-line tolerant.**  Each completed
  cell appends one fsync'd JSON line; a line truncated by a crash fails to
  parse and is skipped (and the cell is simply recomputed).  A key is never
  appended twice — recomputation that changes a payload (``--no-cache``)
  rewrites the manifest atomically instead of appending a duplicate.
* **Reads are hash-verified.**  :meth:`ResultCache.get` recomputes the
  payload's content hash and compares it against both the embedded and the
  manifest copy; any mismatch (bit rot, manual edits, torn writes rescued
  from ``results/``) evicts the entry so the cell is recomputed rather than
  served corrupt.
* **The manifest is an index, not the truth.**  On open, result files that
  a crash left unlisted (killed between result rename and manifest append)
  are rescued back into the index.

:meth:`ResultCache.ensure_meta` pins the sweep's parameter fingerprint into
``meta.json`` on first use and refuses — with a one-line
:class:`CheckpointError` — to serve a directory whose manifest was written
for different cell parameters.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["CheckpointError", "ResultCache", "canonical_json", "content_hash"]


class CheckpointError(ValueError):
    """A checkpoint directory cannot be (re)used as requested.

    Subclasses :class:`ValueError` so CLI front-ends surface it through the
    same one-line-message path as every other input problem.
    """


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """SHA-256 hex digest of an object's canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


class ResultCache:
    """One checkpoint directory of hash-verified cell results."""

    MANIFEST = "manifest.jsonl"
    META = "meta.json"
    RESULTS = "results"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.results_dir = self.root / self.RESULTS
        #: key -> sha256 recorded in the manifest (authoritative when present).
        self._manifest: dict[str, str] = {}
        #: every key believed to have a result file.
        self._known: set[str] = set()
        self.stats = {"hits": 0, "misses": 0, "corrupt": 0, "torn_lines": 0, "rescued": 0}
        try:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            self._load()
        except OSError as err:
            raise CheckpointError(
                f"checkpoint {self.root} is not a usable directory: {err.strerror or err}"
            ) from None

    # -------------------------------------------------------------- loading
    def _load(self) -> None:
        path = self.root / self.MANIFEST
        if path.exists():
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    key, sha = rec["key"], rec["sha256"]
                except (ValueError, KeyError, TypeError):
                    # A crash mid-append tears at most the final line; the
                    # cell it described is recomputed, nothing else is lost.
                    self.stats["torn_lines"] += 1
                    continue
                if not (isinstance(key, str) and isinstance(sha, str)):
                    self.stats["torn_lines"] += 1
                    continue
                self._manifest[key] = sha
                self._known.add(key)
        for f in self.results_dir.glob("*.json"):
            # Rescue results a crash left unlisted (killed between the
            # atomic result rename and the manifest append).
            if f.stem not in self._known:
                self._known.add(f.stem)
                self.stats["rescued"] += 1

    # ------------------------------------------------------------ inventory
    def __len__(self) -> int:
        return len(self._known)

    def __contains__(self, key: str) -> bool:
        return key in self._known

    def keys(self) -> set[str]:
        return set(self._known)

    def result_path(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    # --------------------------------------------------------------- access
    def get(self, key: str) -> dict | None:
        """The hash-verified payload for ``key``, or None.

        Corrupt entries (unreadable file, payload hash disagreeing with the
        embedded or manifest record) are evicted and reported as missing so
        the caller recomputes them.
        """
        if key not in self._known:
            self.stats["misses"] += 1
            return None
        try:
            record = json.loads(self.result_path(key).read_text())
            payload, sha = record["payload"], record["sha256"]
        except (OSError, ValueError, KeyError, TypeError):
            self._evict(key)
            return None
        expected = self._manifest.get(key, sha)
        if sha != expected or content_hash(payload) != sha:
            self._evict(key)
            return None
        self.stats["hits"] += 1
        return payload

    def _evict(self, key: str) -> None:
        self._known.discard(key)
        self._manifest.pop(key, None)
        self.stats["corrupt"] += 1
        try:
            self.result_path(key).unlink()
        except OSError:
            pass

    def put(self, key: str, payload: dict) -> None:
        """Durably record ``payload`` under ``key`` (atomic write + append).

        A result file that cannot be written or moved into place (say, a
        directory squats on its name) raises a one-line
        :class:`CheckpointError` naming the checkpoint and the cell, and
        leaves no temp file behind.
        """
        sha = content_hash(payload)
        record = canonical_json({"key": key, "sha256": sha, "payload": payload})
        path = self.result_path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        try:
            tmp.write_text(record)
            os.replace(tmp, path)  # same directory => atomic on POSIX
        except OSError as err:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CheckpointError(
                f"checkpoint {self.root} cannot record cell {key}: {err.strerror or err}"
            ) from None
        if key not in self._manifest:
            self._append_manifest(key, sha)
        elif self._manifest[key] != sha:
            # Recomputation changed the payload (e.g. --no-cache refresh with
            # new timings): rewrite the whole manifest atomically rather than
            # appending a duplicate key line.
            self._manifest[key] = sha
            self._rewrite_manifest()
        self._known.add(key)
        self._manifest[key] = sha

    def _append_manifest(self, key: str, sha: str) -> None:
        with open(self.root / self.MANIFEST, "a") as fh:
            fh.write(json.dumps({"key": key, "sha256": sha}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _rewrite_manifest(self) -> None:
        tmp = self.root / f".{self.MANIFEST}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            for key, sha in self._manifest.items():
                fh.write(json.dumps({"key": key, "sha256": sha}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.root / self.MANIFEST)

    # ----------------------------------------------------------------- meta
    def ensure_meta(self, fingerprint: str, summary: dict) -> None:
        """Pin (or check) the sweep this checkpoint directory belongs to.

        The first sweep to use the directory writes ``meta.json``; every
        later open must present the same parameter fingerprint or gets a
        one-line :class:`CheckpointError` — a checkpoint written for
        different cell parameters is never silently mixed into a new sweep.
        """
        meta_path = self.root / self.META
        if meta_path.exists():
            try:
                stored = json.loads(meta_path.read_text())
            except (OSError, ValueError):
                stored = None
            if not isinstance(stored, dict):
                raise CheckpointError(
                    f"checkpoint {self.root} has an unreadable meta.json; "
                    "use a fresh --checkpoint directory"
                )
            if stored.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"checkpoint {self.root} was written for a different sweep "
                    f"({stored.get('summary')}); use a fresh --checkpoint directory"
                )
            return
        tmp = meta_path.with_name(f".{self.META}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({"fingerprint": fingerprint, "summary": summary}, indent=2))
        os.replace(tmp, meta_path)
