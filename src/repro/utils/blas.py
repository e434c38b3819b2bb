"""Cap the thread pool of the BLAS library numpy has loaded.

A forked sweep worker inherits its parent's BLAS thread pool, so two
workers on two cores run four BLAS threads and slow each other down.
Setting ``OPENBLAS_NUM_THREADS`` in the child is too late: the library
read it when the parent imported numpy.  This module calls the
library's own thread-count setter through :mod:`ctypes` instead.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

# Thread-count setters of the OpenBLAS builds numpy's wheels bundle:
# scipy-openblas from numpy 2.0, the plain 64-bit-integer build before.
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _bundled_libraries() -> list[Path]:
    """The BLAS shared objects numpy's wheel ships next to the package."""
    import numpy

    package = Path(numpy.__file__).parent
    found = []
    for directory in (package.parent / "numpy.libs", package / ".dylibs"):
        if directory.is_dir():
            found += sorted(directory.glob("*openblas*"))
    return found


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
    for path in libraries:
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
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
