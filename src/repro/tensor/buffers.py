"""A shape/dtype-keyed pool of scratch arrays for the fused kernels.

The pre-acceleration core allocated a fresh full-size array for every
gradient accumulation, every im2col column matrix, and every optimizer
temporary — a profile of a smoke sweep cell attributes a large slice of
wall time to those allocations rather than to the GEMMs.  The pool turns
the steady-state of a training/attack loop (same model, same batch shape,
round after round) into zero-allocation reuse: a buffer released at
``zero_grad()``, at the end of a conv backward, or once the FL engine has
packed a client's update is handed back for the next round's
identically-shaped request.

Rules (see DESIGN.md "The tensor core" for the ownership protocol):

- ``acquire`` returns an *uninitialized* array — callers must overwrite
  every element (``np.copyto``, ``out=`` kernels, or ``fill``).
- Only top-level arrays are pooled: ``release`` silently ignores views
  (``arr.base is not None``) and foreign dtypes, so callers may release
  opportunistically without checking.
- Releasing the same array twice is a no-op (identity-checked), because a
  double-release would hand one buffer to two owners.
- The pool is process-local and unbounded in key count but capped per key
  (:data:`MAX_PER_KEY`), so pathological shape churn degrades to plain
  allocation instead of hoarding memory.
- A defense with a gradient hook never gets its arrays pooled: the FL
  engine pools an update's arrays only when its client's defense
  overrides neither ``process_gradients`` nor ``finalize_update``.
- A secure-aggregation round borrows its large arrays for the whole
  round (``repro.fl.secagg.base.CommittedRound.borrow``) and releases
  them together once its sum is recovered; the field kernels' scratch
  is acquired and released within one call.
"""

from __future__ import annotations

import numpy as np

MAX_PER_KEY = 8

__all__ = ["BufferPool", "acquire", "release", "clear", "stats", "MAX_PER_KEY"]


class BufferPool:
    """Free-list pool of ndarrays keyed by ``(shape, dtype)``."""

    __slots__ = ("_free", "_free_ids", "hits", "misses")

    def __init__(self) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._free_ids: set[int] = set()
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return an uninitialized C-contiguous array of ``shape``/``dtype``."""
        key = (tuple(shape), np.dtype(dtype).str)
        stock = self._free.get(key)
        if stock:
            self.hits += 1
            arr = stock.pop()
            self._free_ids.discard(id(arr))
            return arr
        self.misses += 1
        return np.empty(shape, dtype=dtype)

    def release(self, arr: np.ndarray) -> bool:
        """Return ``arr`` to the pool; True if it was actually pooled.

        Views, non-contiguous arrays, already-free arrays, and overflow
        beyond :data:`MAX_PER_KEY` are silently dropped (garbage-collected as
        before pooling existed) — release is always safe to call.
        """
        if not isinstance(arr, np.ndarray) or arr.base is not None:
            return False
        if not arr.flags.c_contiguous or not arr.flags.writeable:
            return False
        if id(arr) in self._free_ids:
            return False
        key = (arr.shape, arr.dtype.str)
        stock = self._free.setdefault(key, [])
        if len(stock) >= MAX_PER_KEY:
            return False
        stock.append(arr)
        self._free_ids.add(id(arr))
        return True

    def clear(self) -> None:
        self._free.clear()
        self._free_ids.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "free_arrays": sum(len(v) for v in self._free.values()),
            "free_keys": len(self._free),
        }


_POOL = BufferPool()


def acquire(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Take a C-contiguous scratch array from the process pool."""
    return _POOL.acquire(shape, dtype)


def release(arr: np.ndarray) -> bool:
    """Return ``arr`` to the process pool; False if it is unpoolable."""
    return _POOL.release(arr)


def clear() -> None:
    """Drop every pooled array and reset the process pool's counters."""
    _POOL.clear()


def stats() -> dict[str, int]:
    """Hit/miss/free counters for the process pool."""
    return _POOL.stats()
