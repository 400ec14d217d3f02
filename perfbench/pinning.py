"""Verified OpenBLAS thread pinning and the environment block.

numpy and scipy each bundle their own OpenBLAS: numpy's ILP64
``libscipy_openblas64_`` runs ``@``, scipy's LP64 ``libscipy_openblas``
runs ``cholesky`` and ``cho_solve``.  Both are pinned through their own
exported set-threads symbol and then read back; a read-back that differs
from the request is an error, so no number is ever reported under a pin
that did not take effect.
"""
from __future__ import annotations

import ctypes
import glob
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy


class BlasPinError(RuntimeError):
    """The OpenBLAS thread count could not be set or verified."""


@dataclass
class OpenBlas:
    """One loaded OpenBLAS build, reached through ctypes."""

    name: str
    path: str
    suffix: str  # symbol suffix: "64_" for the ILP64 build, "" for LP64

    def __post_init__(self):
        lib = ctypes.CDLL(self.path)
        self._set = getattr(lib, f"scipy_openblas_set_num_threads{self.suffix}")
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._get = getattr(lib, f"scipy_openblas_get_num_threads{self.suffix}")
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._config = getattr(lib, f"scipy_openblas_get_config{self.suffix}")
        self._config.argtypes = []
        self._config.restype = ctypes.c_char_p

    def set_threads(self, n: int) -> None:
        self._set(int(n))

    def get_threads(self) -> int:
        return int(self._get())

    def config(self) -> str:
        return self._config().decode(errors="replace").strip()


def _bundled(package, pattern: str) -> str:
    libdir = Path(package.__file__).resolve().parent.parent
    found = sorted(glob.glob(str(libdir / pattern)))
    if len(found) != 1:
        raise BlasPinError(f"expected one {pattern} next to {package.__name__}, found {found}")
    return found[0]


def bundled_openblas() -> list[OpenBlas]:
    """numpy's and scipy's OpenBLAS builds, as loaded by this process."""
    return [
        OpenBlas("numpy", _bundled(numpy, "numpy.libs/libscipy_openblas64_*.so"), "64_"),
        OpenBlas("scipy", _bundled(scipy, "scipy.libs/libscipy_openblas*.so"), ""),
    ]


def pin_threads(libs, n: int) -> list[dict]:
    """Set every library to n threads, read each back, refuse on mismatch."""
    records = []
    for lib in libs:
        lib.set_threads(n)
        got = lib.get_threads()
        records.append({"library": lib.name, "path": lib.path, "config": lib.config(),
                        "requested_threads": n, "readback_threads": got})
        if got != n:
            raise BlasPinError(
                f"{lib.name} OpenBLAS read back {got} threads after a request for {n}"
            )
    return records


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without starting a process; None outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path, blas_records: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "git_commit": git_commit(root),
        "blas": blas_records,
    }
