"""Content-addressed on-disk result cache.

Key = sha256 of the job's canonical config (:meth:`SimJob.cache_key`)
+ a hash of the ``repro`` package's
source, so a re-run of unchanged code is near-free while any config change
or any edit to a ``.py`` file misses cleanly — nothing is bumped by hand.
Values are the worker's JSON result dicts, stored one file per key under
``<root>/<key[:2]>/<key>.json`` (two-level fanout keeps directories small).

Writes are atomic (tmp file + rename) so concurrent workers — or two
concurrent sweeps sharing a cache — never observe a torn entry; a corrupt
or unreadable entry is treated as a miss and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from repro.parallel.jobs import SimJob


@lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the sorted relative paths and bytes of every ``*.py``
    file in the imported ``repro`` package.

    Computed on the first cache lookup and memoised — never at import, so
    uncached runs (``cache=None``) do not pay for it."""
    import repro

    root = Path(repro.__file__).parent
    files = sorted((p.relative_to(root).as_posix().encode(), p) for p in root.rglob("*.py"))
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        # Length-prefixed, so no two file sets hash the same byte stream.
        for part in (rel, data):
            h.update(b"%d:" % len(part))
            h.update(part)
    return h.hexdigest()


class ResultCache:
    """On-disk job-result store with hit/miss accounting."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- lookup / store ----------------------------------------------------

    def path_for(self, job: SimJob) -> Path:
        blob = f"{job.cache_key()}|src={source_digest()}"
        key = hashlib.sha256(blob.encode()).hexdigest()
        return self.root / key[:2] / f"{key}.json"

    def get(self, job: SimJob) -> Optional[dict]:
        """The cached result dict, or None (counted as a miss)."""
        path = self.path_for(job)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, job: SimJob, result: dict) -> None:
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -------------------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}
