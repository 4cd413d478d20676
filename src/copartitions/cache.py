"""Disk cache for parity series, keyed by (a, b, m, n).

One JSON file per key, carrying a format version, the version of the GF(2)
kernel that computed it and a checksum over both versions, the key and the
packed bits; anything that fails validation is treated as a miss and
recomputed.  Writers go through a temporary file of their own in the cache
directory and an atomic rename, so concurrent writers of one key never
collide.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .params import CpParams
from .series import ParitySeries, copartition_parity

CACHE_VERSION = 1
KERNEL_VERSION = 2          # bump whenever expand_factors_mod2 changes algorithm
CACHE_DIR_ENV = "COPARTITIONS_CACHE_DIR"


def default_cache_dir() -> str | None:
    return os.environ.get(CACHE_DIR_ENV)


def _entry_path(cache_dir, params: CpParams, n: int) -> Path:
    name = f"parity-v{CACHE_VERSION}-k{KERNEL_VERSION}-a{params.a}-b{params.b}-m{params.m}-n{n}.json"
    return Path(cache_dir) / name


def _digest(params: CpParams, n: int, bits_hex: str) -> str:
    import hashlib      # here: a CLI process that never reads the cache would pay 4 ms
    payload = (f"{CACHE_VERSION}:{KERNEL_VERSION}:"
               f"{params.a}:{params.b}:{params.m}:{n}:{bits_hex}")
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def load_parity(cache_dir, params: CpParams, n: int) -> ParitySeries | None:
    path = _entry_path(cache_dir, params, n)
    try:
        entry = json.loads(path.read_text("ascii"))
    except (OSError, ValueError):
        return None
    try:
        if (entry["version"], entry["kernel"]) != (CACHE_VERSION, KERNEL_VERSION):
            return None
        if (entry["a"], entry["b"], entry["m"], entry["n"]) != (params.a, params.b, params.m, n):
            return None
        bits_hex = entry["bits_hex"]
        if entry["sha256"] != _digest(params, n, bits_hex):
            return None
        return ParitySeries(n, int(bits_hex, 16))
    except (KeyError, TypeError, ValueError):
        return None


def store_parity(cache_dir, params: CpParams, n: int, series: ParitySeries):
    if series.trunc != n:
        raise ValueError(f"series truncated at {series.trunc}, expected {n}")
    path = _entry_path(cache_dir, params, n)
    path.parent.mkdir(parents=True, exist_ok=True)
    bits_hex = format(series.bits, "x")
    entry = {
        "version": CACHE_VERSION,
        "kernel": KERNEL_VERSION,
        "a": params.a,
        "b": params.b,
        "m": params.m,
        "n": n,
        "bits_hex": bits_hex,
        "sha256": _digest(params, n, bits_hex),
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as out:
            out.write(json.dumps(entry))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cached_copartition_parity(params: CpParams, n: int, cache_dir=None) -> ParitySeries:
    """Parity series through n, read from the cache when possible."""
    if cache_dir:
        hit = load_parity(cache_dir, params, n)
        if hit is not None:
            return hit
    series = copartition_parity(params, n)
    if cache_dir:
        store_parity(cache_dir, params, n, series)
    return series
