"""Cap the thread pool of the BLAS library numpy has loaded.

A forked sweep worker inherits its parent's BLAS thread pool, so two
workers on two cores run four BLAS threads and slow each other down.
Setting ``OPENBLAS_NUM_THREADS`` in the child is too late: the library
read it when the parent imported numpy.  This module calls the
library's own thread-count setter through :mod:`ctypes` instead.

Every sweep cell computes under one BLAS thread, serial or parallel:
OpenBLAS splits a GEMM's inner axis across threads past a few hundred
rows, which moves the last bits of a sum, so a store would otherwise
depend on the executor and the host's core count.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path
from typing import Iterator, Optional

# Thread-count setters and getters of the OpenBLAS builds numpy's wheels
# bundle: scipy-openblas from numpy 2.0, the plain 64-bit-integer build
# before.
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


def _bundled_libraries() -> list[Path]:
    """The BLAS shared objects numpy's wheel ships next to the package."""
    import numpy

    package = Path(numpy.__file__).parent
    found = []
    for directory in (package.parent / "numpy.libs", package / ".dylibs"):
        if directory.is_dir():
            found += sorted(directory.glob("*openblas*"))
    return found


def _bundled_function(names: tuple[str, ...]):
    """The first of ``names`` that a bundled BLAS library exports, or None."""
    for path in _bundled_libraries():
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in names:
            function = getattr(library, name, None)
            if function is not None:
                return function
    return None


def blas_threads() -> Optional[int]:
    """numpy's BLAS thread count in this process, or ``None`` when its
    BLAS exposes no known getter."""
    getter = _bundled_function(_GETTERS)
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


@contextlib.contextmanager
def blas_thread_limit(threads: int) -> Iterator[None]:
    """Run the body under :func:`limit_blas_threads` ``(threads)`` and
    restore the thread count it found."""
    before = blas_threads()
    limit_blas_threads(threads)
    try:
        yield
    finally:
        if before is not None:
            limit_blas_threads(before)


def limit_blas_threads(threads: int) -> Optional[str]:
    """Cap numpy's BLAS at ``threads`` threads in this process.

    Returns ``None`` once a known setter has been called.  When numpy's
    BLAS exposes none (a system BLAS, MKL, Accelerate), nothing changes
    and the return value says why.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    libraries = _bundled_libraries()
    if not libraries:
        return "no OpenBLAS bundled with numpy; BLAS threads left as they are"
    setter = _bundled_function(_SETTERS)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(threads)
        return None
    return (
        f"none of {', '.join(_SETTERS)} found in "
        f"{', '.join(path.name for path in libraries)}; "
        "BLAS threads left as they are"
    )
