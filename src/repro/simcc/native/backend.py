"""Build (or load from cache) the compiled burst module for a table.

:func:`build_native_module` is the one entry point the simulators use.
It never raises on an unusable environment: any failure along the
ladder -- unmappable model, no lowered IR, no C compiler, a compile or
load error -- degrades to ``None`` with a single ``native.fallback``
observability event, and the caller serves the run through the Python
module backend instead.

A module is rendered as several translation units (a driver unit plus
units of deduplicated stage functions, see
:func:`repro.simcc.native.cgen.render_native_source`).  With a cache,
stage-function bodies an earlier module already compiled come from the
cache's :class:`repro.simcc.cache.ObjectStore`: only the driver unit
and units of the bodies the store lacks are written into the build
directory, and :func:`repro.simcc.native.toolchain.compile_shared`
compiles them concurrently and links them with the cached objects into
one shared object; the new objects join the store.  Without a cache
the build is the same against an empty store -- it compiles exactly
the rendered units -- in a private temporary directory that is removed
once the module is loaded.  The store changes only which units are
compiled, never the rendered C or the artifact key.

Artifacts (the generated ``.c`` -- the units concatenated --, the built
``.so`` and a metadata sidecar) persist through
:class:`repro.simcc.cache.SimulationCache` keyed by a digest of the C
source plus the state-layout contract; the compiler identity lives in
the metadata (and in the object store's key) so a shared object or
object file built by a stale compiler misses and is rebuilt rather
than loaded or linked.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

from repro.simcc.native import cgen
from repro.simcc.native import layout as L
from repro.simcc.native import toolchain

#: In-process cache of loaded burst callables, keyed by shared-object
#: path: re-dlopening the same artifact for every simulator is wasted
#: work (and some platforms pin the mapping anyway).
_LOADED = {}


class NativeModule:
    """A loaded burst module plus everything needed to drive it.

    ``telemetry`` is the side-region geometry when the module was built
    instrumented (``build_native_module(..., telemetry=True)``), None
    for the plain byte-identical-to-before module.  ``so_path`` is the
    cached artifact, or None for a module built without a cache (its
    build directory is gone once it is loaded).
    """

    def __init__(self, layout, plan, burst, loader, so_path, source):
        self.layout = layout
        self.plan = plan
        self.burst = burst
        self.loader = loader
        self.so_path = so_path
        self.source = source
        self.telemetry = plan.telemetry
        self.push_set = frozenset(plan.push_names)
        self.pull_set = frozenset(plan.pull_names)


def artifact_key(source, state_layout):
    """Content address of one native artifact: the generated C plus the
    layout contract it was rendered against."""
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\n")
    digest.update(state_layout.digest().encode("ascii"))
    return digest.hexdigest()


def _fallback(observer, reason, **args):
    if observer is not None:
        observer.on_native_fallback(reason, **args)
    return None


def _link(cc, plan, so_path, reused, covered):
    """Compile the driver unit and units of the bodies not in
    ``covered``, packed as :func:`cgen.render_native_source` packs
    them, and link them with the ``reused`` objects.  Returns the new
    objects as ``(path, body names)``."""
    fresh = [item for item in plan.functions if item[0] not in covered]
    groups = cgen.pack_functions(fresh)
    texts = [plan.units[0], *cgen.function_units(plan.prologue, groups)]
    workdir = os.path.dirname(so_path)
    paths = []
    for index, text in enumerate(texts):
        path = os.path.join(workdir, "unit%d.c" % index)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    toolchain.compile_shared(cc, paths, so_path, objects=reused)
    return [
        (toolchain.object_path(path), [name for name, _ in group])
        for path, group in zip(paths[1:], groups)
    ]


def _compile(cc, plan, c_path, so_path, store=None):
    """Build ``so_path`` from the module whose full source is ``c_path``.

    A one-unit module compiles ``c_path`` itself.  Otherwise the units
    are written beside ``so_path`` (a private build directory): the
    driver unit plus units of the bodies ``store`` (a
    :class:`repro.simcc.cache.ObjectStore`) does not hold, linked with
    the objects that hold the rest; the new objects then join the
    store.  No store is the same build against an empty one, which
    compiles exactly ``plan.units``.  Should a link with reused objects
    fail, the module is rebuilt from its own units and those objects
    leave the store.
    """
    if len(plan.units) == 1:
        return toolchain.compile_shared(cc, [c_path], so_path)
    reused, covered = [], frozenset()
    if store is not None:
        reused, covered = store.select(name for name, _ in plan.functions)
    try:
        built = _link(cc, plan, so_path, reused, covered)
    except toolchain.NativeToolchainError:
        if not reused:
            raise
        built = _link(cc, plan, so_path, [], frozenset())
        store.discard(reused)
    if store is not None:
        for obj, names in built:
            store.publish(obj, names)
    return so_path


def _load_uncached(cc, plan, source, stem):
    """Build and load a module with no cache to keep it in.

    The build runs in a private temporary directory that is removed
    once the module is loaded (the mapping outlives its file), so the
    result bypasses the by-path :data:`_LOADED` table.
    """
    with tempfile.TemporaryDirectory(prefix="repro-native-") as workdir:
        c_path = os.path.join(workdir, stem + ".c")
        so_path = os.path.join(workdir, stem + ".so")
        with open(c_path, "w", encoding="utf-8") as handle:
            handle.write(source)
        _compile(cc, plan, c_path, so_path)
        return toolchain.load_burst(so_path)


def _load(so_path):
    key = os.path.realpath(so_path)
    cached = _LOADED.get(key)
    if cached is not None:
        return cached
    burst, loader = toolchain.load_burst(so_path)
    _LOADED[key] = (burst, loader)
    return burst, loader


def build_native_module(model, table, cache=None, observer=None,
                        telemetry=False, admit_pcs=None):
    """The burst module for ``table``, or ``None`` when unavailable.

    ``None`` always means "use the Python path"; the reason is emitted
    as one ``native.fallback`` event when an observer is attached.

    ``telemetry=True`` builds the instrumented variant whose bursts
    count per-packet dispatches and attributed cycles into a side-region
    of the state buffer; it caches under its own artifact key (the
    generated C differs), so plain and instrumented artifacts coexist.

    ``admit_pcs`` restricts native rendering to a set of packet starts
    (window-scoped promotion); the admitted set shapes the generated C,
    so each distinct set has its own artifact key and a repeat run with
    the same promotion loads its artifact without compiling.
    """
    from repro import obs as _obs

    try:
        state_layout = L.StateLayout.build(model)
        source, plan = cgen.render_native_source(
            table, model, state_layout, telemetry=telemetry,
            admit_pcs=admit_pcs,
        )
    except L.NativeUnsupported as exc:
        return _fallback(observer, str(exc), model=model.name)
    if not plan.native_pcs:
        return _fallback(observer, "no packet passed native analysis",
                         model=model.name)

    cc = toolchain.find_compiler()
    if cc is None:
        return _fallback(
            observer, "no C compiler (set $CC or install cc)",
            model=model.name,
        )
    try:
        identity = toolchain.compiler_identity(cc)
        key = artifact_key(source, state_layout)

        so_path = loaded = None
        if cache is not None:
            hit = cache.load_native_artifact(key, identity)
            if hit is not None:
                so_path = hit[1]
                if observer is not None:
                    observer.on_native("hit", key=key[:16])
        if so_path is None:
            with _obs.span(observer, "native.compile", model=model.name,
                           packets=len(plan.native_pcs)):
                if cache is not None:
                    store = cache.object_store(identity, plan.prologue)
                    _, so_path = cache.store_native_artifact(
                        key, identity, source,
                        lambda c, so: _compile(cc, plan, c, so, store),
                    )
                else:
                    loaded = _load_uncached(cc, plan, source, key[:16])
            if observer is not None:
                observer.on_native("compile", key=key[:16],
                                   packets=len(plan.native_pcs))

        burst, loader = loaded or _load(so_path)
    except (OSError, toolchain.NativeToolchainError) as exc:
        return _fallback(observer, "native build failed: %s" % exc,
                         model=model.name)
    return NativeModule(state_layout, plan, burst, loader, so_path, source)
