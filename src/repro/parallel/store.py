"""Content-addressed sweep result store.

Every cached result (one experiment at one scale) is addressed by two
hashes:

- the **config digest**: a canonical form of everything that selects
  the computation — experiment id, effective scale, cluster/workload
  parameters, mode flags — with dict ordering, kwarg ordering,
  default-value elision and float formatting all normalised away, so
  two configs share a digest iff they are *semantically* equal;
- the **code fingerprint**: a comment-blind hash of the ``repro``
  source tree built from the lint cache's semantic-hash machinery
  (:func:`repro.analysis.cache.semantic_source_hash`), so editing a
  comment or docstring keeps every cached result valid while any
  semantic edit — anywhere in the package — invalidates all of them.

Results persist across processes through a file-backed
:class:`~repro.kvstore.HashDB` WAL under ``--cache-dir``; values are
pickled blobs so every :meth:`ResultStore.get` returns a fresh copy
(callers may append notes without poisoning the cache).  The
``repro sweep-cache`` CLI exposes :meth:`ResultStore.stats`,
:meth:`~ResultStore.gc` (drop entries from other code revisions) and
:meth:`~ResultStore.clear`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import typing

from ..errors import ParallelError
from ..kvstore import HashDB

#: Bumped when the stored value shape changes; keyed into the digest
#: namespace so old entries simply never hit.
STORE_VERSION = 1

#: The backing WAL file name inside ``--cache-dir``.
DB_FILENAME = "sweep_cache.db"


# -- canonicalisation ------------------------------------------------------
def canonical(value: typing.Any) -> typing.Any:
    """Reduce ``value`` to a canonical JSON-ready structure.

    - dataclasses become ``{"__type__": name, <non-default fields>}`` —
      eliding fields equal to their declared default, so an explicitly
      spelled-out default collides with an omitted one;
    - objects exposing ``canonical_config()`` use that;
    - other objects (e.g. workload generators) canonicalise as their
      class name plus sorted public attributes;
    - dicts sort by key, sets sort, floats render as ``float.hex`` (two
      configs built from differently *formatted* but equal floats
      collide; unequal floats never do).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, bytes):
        return value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict = {"__type__": type(value).__qualname__}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if _is_default(field, item):
                continue
            out[field.name] = canonical(item)
        return out
    method = getattr(value, "canonical_config", None)
    if callable(method):
        return canonical(method())
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return {"__dict__": sorted(items, key=lambda kv: json.dumps(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonical(item) for item in value]
        return {"__set__": sorted(items, key=json.dumps)}
    if hasattr(value, "__dict__"):
        out = {"__type__": type(value).__qualname__}
        for name in sorted(vars(value)):
            if not name.startswith("_"):
                out[name] = canonical(getattr(value, name))
        return out
    raise ParallelError(
        f"cannot canonicalise {type(value).__qualname__}: {value!r}"
    )


def _is_default(field: dataclasses.Field, value: typing.Any) -> bool:
    """True when a dataclass field carries its declared default."""
    if field.default is not dataclasses.MISSING:
        default = field.default
    elif field.default_factory is not dataclasses.MISSING:
        default = field.default_factory()
    else:
        return False
    try:
        return bool(default == value) and type(default) is type(value)
    except Exception:
        return False


def config_digest(**parts: typing.Any) -> str:
    """SHA-256 over the canonical form of the keyword parts.

    Keyword *order* never matters (the canonical dict sorts); neither
    do parts explicitly set to their canonical-eliding defaults inside
    dataclass values.
    """
    payload = canonical(dict(parts, __store_version__=STORE_VERSION))
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- code fingerprint ------------------------------------------------------
_FINGERPRINTS: dict[str, str] = {}


def code_fingerprint(root: str | os.PathLike | None = None) -> str:
    """Comment-blind fingerprint of the ``repro`` source tree.

    Each module contributes its :func:`semantic_source_hash` (AST minus
    docstrings) keyed by relative path; a module that fails to parse
    contributes its raw content hash instead, so a broken tree still
    invalidates.  Cached per root for the life of the process — the
    tree cannot change under a running sweep without also changing the
    code doing the sweeping.
    """
    from ..analysis.cache import content_hash, semantic_source_hash

    if root is None:
        root = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(root)
    cache_key = str(root)
    cached = _FINGERPRINTS.get(cache_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            continue
        digest = semantic_source_hash(source) or content_hash(source)
        hasher.update(rel.encode("utf-8"))
        hasher.update(b":")
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    fingerprint = hasher.hexdigest()
    _FINGERPRINTS[cache_key] = fingerprint
    return fingerprint


# -- the store -------------------------------------------------------------
class ResultStore:
    """Persistent ``(config digest, code fingerprint) -> result`` cache.

    Keys are ``<code_fp>/<config_digest>`` so a revision's entries
    share a prefix — :meth:`gc` drops every other prefix.  Values are
    pickled on :meth:`put` and unpickled on :meth:`get`, so callers
    always receive a private copy.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        code_fp: str | None = None,
        sync_mode: str = "always",
    ):
        self.cache_dir = pathlib.Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.code_fp = code_fp if code_fp is not None else code_fingerprint()
        self.db = HashDB(
            "sweep-cache", sync_mode=sync_mode,
            path=self.cache_dir / DB_FILENAME,
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- cache protocol ----------------------------------------------------
    def _key(self, config_digest: str) -> str:
        return f"{self.code_fp}/{config_digest}"

    def get(self, config_digest: str) -> typing.Any | None:
        """The cached value for this config at the current code rev."""
        blob = self.db.get(self._key(config_digest))
        if blob is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(blob)
        except Exception:
            # An undecodable value is treated as absent (and replaced
            # by the put that follows the recompute).
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, config_digest: str, value: typing.Any) -> None:
        self.db.put(
            self._key(config_digest), pickle.dumps(value, protocol=4)
        )
        self.stores += 1

    def __contains__(self, config_digest: str) -> bool:
        return self._key(config_digest) in self.db

    # -- maintenance -------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready store summary for ``repro sweep-cache stats``."""
        keys = self.db.keys()
        prefix = f"{self.code_fp}/"
        current = sum(1 for key in keys if key.startswith(prefix))
        try:
            file_bytes = os.path.getsize(self.cache_dir / DB_FILENAME)
        except OSError:
            file_bytes = 0
        return {
            "path": str(self.cache_dir / DB_FILENAME),
            "code_fingerprint": self.code_fp,
            "entries": len(keys),
            "current_revision_entries": current,
            "stale_revision_entries": len(keys) - current,
            "wal_records": self.db.durable_log_length,
            "file_bytes": file_bytes,
            "recovered_truncated_tail": self.db.recovered_truncated_tail,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
            },
        }

    def gc(self) -> int:
        """Drop entries from other code revisions; compact the WAL."""
        prefix = f"{self.code_fp}/"
        stale = [key for key in self.db.keys() if not key.startswith(prefix)]
        for key in stale:
            self.db.delete(key)
        self.db.compact()
        return len(stale)

    def clear(self) -> int:
        """Drop every entry; compact the WAL down to nothing."""
        keys = self.db.keys()
        for key in keys:
            self.db.delete(key)
        self.db.compact()
        return len(keys)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
