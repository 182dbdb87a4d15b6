"""OpenBLAS thread control for shard workers, through ctypes.

numpy's wheels bundle an OpenBLAS that starts one thread per core, and
a forked shard worker inherits that pool size: N workers on N cores
would run N² BLAS threads.  Each worker therefore pins the OpenBLAS
numpy already loaded to one thread.  OpenBLAS has no Python API for
this, so the library is found among the process's mapped files
(``/proc/self/maps``) and its exported setter called directly.  On a
host without ``/proc``, or with a BLAS that is not OpenBLAS, both
functions here do nothing.
"""

from __future__ import annotations

import ctypes
import os

#: symbol decorations across OpenBLAS builds: plain, 64-bit-integer
#: interface (``64_``) and the scipy-openblas wheels numpy ships
#: (``scipy_`` prefix)
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


def _libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS already mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        # address perms offset dev inode [pathname]
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5])
    libraries = []
    for path in sorted(paths):
        try:
            # RTLD_NOLOAD: a handle on the copy numpy loaded, never a
            # second instance with its own thread pool
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    return libraries


def _function(library: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(
                library, f"{prefix}openblas_{verb}_num_threads{suffix}",
                None)
            if function is not None:
                return function
    return None


def threads() -> int | None:
    """Thread count of the first loaded OpenBLAS, or None without one."""
    for library in _libraries():
        get = _function(library, "get")
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_int
            return get()
    return None


def pin_one_thread() -> None:
    """Pin every OpenBLAS loaded in this process to one thread."""
    for library in _libraries():
        set_threads = _function(library, "set")
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
