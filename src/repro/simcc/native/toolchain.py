"""C toolchain discovery, compilation and shared-object loading.

:func:`compile_shared` is the one place cc runs: a module of several
translation units compiles its units concurrently (one cc process per
usable core) and links them; a one-unit module is a single cc call.

Discovery honours ``$CC`` first (an *empty* ``CC`` explicitly disables
the toolchain -- the CI fallback leg uses this), then falls back to
``cc``, ``gcc`` and ``clang`` on ``$PATH``.  Loading prefers cffi's
ABI-mode ``dlopen`` and falls back to :mod:`ctypes`; both paths expose
the same ``burst(buf_addr, ok_addr, max_cycles) -> int`` callable over
raw ``array('q')`` buffer addresses, so neither is a hard dependency.

Compiler identity (the first line of ``cc --version``) and the flag
set are part of every artifact's metadata: a cached shared object
built by a different compiler or flag set must miss, never load.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor

#: Flags used for every native artifact build (part of the cache key).
CFLAGS = ("-O2", "-shared", "-fPIC")

_CANDIDATES = ("cc", "gcc", "clang")


class NativeToolchainError(Exception):
    """Compilation or loading of a native artifact failed."""


def find_compiler():
    """Path of a usable C compiler, or ``None``.

    ``$CC`` wins when set; setting it to the empty string explicitly
    disables native compilation (the documented opt-out).
    """
    env = os.environ.get("CC")
    if env is not None:
        if not env.strip():
            return None
        return env if os.sep in env else shutil.which(env)
    for name in _CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_identity(cc):
    """A stable identity string for ``cc`` (first ``--version`` line
    plus the flag set); part of every artifact's cache key."""
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainError(
            "cannot identify compiler %r: %s" % (cc, exc)
        ) from exc
    first = out.splitlines()[0].strip() if out else os.path.basename(cc)
    return "%s | %s" % (first, " ".join(CFLAGS))


def usable_cores():
    """CPUs this process may run on (its affinity mask where the
    platform exposes one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeToolchainError(
            "compiler invocation failed: %s" % exc
        ) from exc
    if proc.returncode != 0:
        raise NativeToolchainError(
            "compilation failed (%s):\n%s"
            % (" ".join(cmd), proc.stderr.strip())
        )


def compile_shared(cc, c_paths, so_path):
    """Compile the translation units ``c_paths`` into the shared object
    ``so_path``.

    One unit builds in a single cc call.  Several compile concurrently
    with ``-c`` to objects beside ``so_path``, one cc process per
    usable core at a time, and then link in one more call.
    """
    if len(c_paths) == 1:
        _run([cc, *CFLAGS, "-o", so_path, c_paths[0]])
        return so_path
    workdir = os.path.dirname(os.path.abspath(so_path))
    objects = [
        os.path.join(workdir, os.path.splitext(os.path.basename(c))[0]
                     + ".o")
        for c in c_paths
    ]
    workers = min(len(c_paths), usable_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(
            lambda pair: _run([cc, *CFLAGS, "-c", "-o", pair[1], pair[0]]),
            zip(c_paths, objects),
        ))
    _run([cc, *CFLAGS, "-o", so_path, *objects])
    return so_path


def load_burst(so_path):
    """Load ``repro_burst`` from ``so_path``.

    Returns ``(burst, loader_name)`` where ``burst`` takes the raw
    buffer addresses (``array('q').buffer_info()[0]``) plus the cycle
    budget and returns the burst exit code.
    """
    try:
        return _load_cffi(so_path), "cffi"
    except ImportError:
        pass
    return _load_ctypes(so_path), "ctypes"


def _load_cffi(so_path):
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(
        "int64_t repro_burst(int64_t *, const int64_t *, int64_t);"
    )
    lib = ffi.dlopen(so_path)
    cast = ffi.cast
    # Resolve the pointer ctypes once: ffi.cast with a type *string*
    # re-parses it through pycparser on every call (~ms), which would
    # dwarf the burst itself.
    buf_t = ffi.typeof("int64_t *")
    ok_t = ffi.typeof("const int64_t *")
    fn = lib.repro_burst

    def burst(buf_addr, ok_addr, max_cycles):
        return fn(cast(buf_t, buf_addr), cast(ok_t, ok_addr), max_cycles)

    return burst


def _load_ctypes(so_path):
    import ctypes

    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        raise NativeToolchainError(
            "cannot load %s: %s" % (so_path, exc)
        ) from exc
    fn = lib.repro_burst
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
    return fn
