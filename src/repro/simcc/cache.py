"""Persistent, content-addressed cache for compiled simulations.

The paper's thesis is moving work from simulation run-time to
simulation compile-time; this module moves it further -- out of the
process entirely.  A compiled simulation (as a state-independent
:class:`repro.simcc.portable.PortableTable`) is stored on disk keyed by
a digest of everything that determines its content:

* the LISA model data base (the JSON dump plus a stable rendering of
  every behaviour/guard AST, so editing an operation's arithmetic
  invalidates dependent tables),
* the program bytes (the serialised object file),
* the simulation level.

Any change to model, program or level therefore produces a different
key -- invalidation is automatic and exact, and entries never go stale.

Entry format (versioned): a magic line followed by one :mod:`marshal`
payload holding the table spec, the generated function sources, and
the pre-compiled code object.  Marshal is the same machinery behind
``.pyc`` files: loading is a single fast C pass and the code object
needs no re-parse.  Because marshal bytecode is CPython-version
specific, entries live under a ``v<format>-cp<maj><min>`` namespace;
a different interpreter simply misses and recompiles rather than
misreading.  Corrupt entries (truncation, bit-rot, concurrent writer
crashes) are detected, quarantined (deleted) and treated as misses.

An in-process LRU of rehydrated tables sits in front of the disk
store, so repeated loads of the same program in one process skip even
the ``exec``.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import shutil
import sys
import tempfile
import threading
from collections import OrderedDict

from repro.lisa.database import model_to_json
from repro.simcc.portable import PortableTable

#: Bump when the entry layout or the portable-table payload changes.
#: 2: portable tables carry per-packet ``schedule_safety`` verdicts.
#: 3: portable tables store SimIR payloads instead of source text.
#: 4: native burst artifacts (.c source + shared object + metadata)
#:    ride alongside portable tables; older entries are clean misses.
#: 5: portable tables persist per-packet abstract-interpretation
#:    proofs (:mod:`repro.analysis.absint`); prior-rev entries are
#:    clean misses reported once as ``prior_format``.
#: 6: *partial* (windowed) table payloads for tiered promotion: entries
#:    are additionally keyed by an optional packet-address window and
#:    carry it in the payload, so hot-window promotions warm-start from
#:    cached artifacts; prior-rev entries are clean misses.
FORMAT_VERSION = 6

_MAGIC = b"repro-simtab\n"


def _version_tag():
    return "v%d-cp%d%d" % (
        FORMAT_VERSION, sys.version_info[0], sys.version_info[1]
    )


# -- digests -----------------------------------------------------------------


def _stable_ast_repr(model):
    """A deterministic rendering of every behaviour-relevant AST.

    ``model_to_json`` summarises behaviours structurally (it is a
    description, not an executable image), so two models differing only
    in an operation's arithmetic could dump identically.  Behaviour,
    expression and guard ASTs are frozen dataclasses whose ``repr`` is
    fully value-based, which makes them safe digest material.
    """
    from repro.lisa import model as m

    parts = []
    for op in model.operations.values():
        parts.append(op.name)
        for item in op.items:
            if isinstance(item, (m.IfSections, m.SwitchSections)):
                parts.append(repr(item))
        for items in op.all_section_variants():
            for item in items:
                if isinstance(item, (m.Behavior, m.Expression, m.Activation)):
                    parts.append(repr(item))
    return "\n".join(parts)


def model_digest(model):
    """Hex digest of the model data base (cached on the model)."""
    cached = getattr(model, "_simtab_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(model_to_json(model).encode("utf-8"))
    digest.update(_stable_ast_repr(model).encode("utf-8"))
    digest = digest.hexdigest()
    try:
        model._simtab_digest = digest
    except AttributeError:
        pass
    return digest


def table_digest(model, program, level, window=None):
    """The content address of one compiled simulation.

    ``window`` (an inclusive-exclusive ``(start, limit)`` packet-address
    range) keys a *partial* table holding only the packets starting in
    that range -- the unit of tiered promotion.  A windowed entry never
    aliases the whole-program entry for the same (model, program,
    level).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-simtab:%d\n" % FORMAT_VERSION)
    digest.update(model_digest(model).encode("ascii"))
    digest.update(b"\n")
    digest.update(
        json.dumps(program.to_dict(), sort_keys=True).encode("utf-8")
    )
    digest.update(b"\n")
    digest.update(level.encode("utf-8"))
    if window is not None:
        digest.update(b"\nwindow:%d-%d" % (int(window[0]), int(window[1])))
    return digest.hexdigest()


# -- the cache ---------------------------------------------------------------


class SimulationCache:
    """On-disk simulation-table cache with an in-process LRU in front.

    ``stats`` counts ``memory_hits``, ``disk_hits``, ``misses``,
    ``stores``, ``store_errors``, ``corrupt_entries``, and
    ``format_misses`` (entries written under a different payload
    format, reported as clean misses) for observability; the CLI
    prints them under ``--stats``.
    """

    def __init__(self, root, max_memory_entries=8):
        self.root = os.fspath(root)
        self._max_memory = max(0, int(max_memory_entries))
        self._memory = OrderedDict()
        # Single-flight build deduplication: digest -> lock.  Concurrent
        # get-or-build calls for the same entry (background tier
        # promotions racing) serialise here so the builder runs once.
        self._flights = {}
        self._flights_mutex = threading.Lock()
        self.stats = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "store_errors": 0,
            "corrupt_entries": 0,
            "format_misses": 0,
            "native_hits": 0,
            "native_misses": 0,
            "native_stores": 0,
            "single_flight_waits": 0,
        }

    # -- high-level entry point ---------------------------------------------

    def load_table(self, compiler, program, state, control,
                   level="sequenced", jobs=None, observer=None):
        """Get-or-compile a simulation table bound to ``state``/``control``.

        On a hit the simulation compiler never runs: the portable table
        is rehydrated from memory or disk and bound.  On a miss the
        program is compiled (``jobs`` fans the work out), stored, and
        bound.  ``observer`` records lookup/store/bind spans and one
        ``cache`` event per outcome.
        """
        from repro import obs as _obs

        before = dict(self.stats)
        with _obs.span(observer, "cache.lookup", level=level):
            portable = self.load_portable(compiler.model, program, level)
        if observer is not None:
            for stat, outcome in (("memory_hits", "memory_hit"),
                                  ("disk_hits", "disk_hit"),
                                  ("misses", "miss")):
                if self.stats[stat] > before[stat]:
                    if (outcome == "miss" and self.stats["format_misses"]
                            > before["format_misses"]):
                        # The entry exists but was written under a prior
                        # payload format: one clean miss, flagged so the
                        # event stream explains the recompile.
                        observer.on_cache(outcome, level=level,
                                          prior_format=True)
                    else:
                        observer.on_cache(outcome, level=level)
        if portable is None:
            from repro.simcc.portable import build_portable_table

            portable = build_portable_table(compiler.model, program, level,
                                            jobs=jobs, observer=observer)
            with _obs.span(observer, "cache.store", level=level):
                self.store_portable(compiler.model, program, level, portable)
            if observer is not None:
                observer.on_cache("store", level=level)
        with _obs.span(observer, "cache.bind", level=level):
            return portable.bind(state, control)

    # -- portable-table access ----------------------------------------------

    def load_portable(self, model, program, level, window=None):
        """The cached portable table, or None on a miss."""
        digest = table_digest(model, program, level, window=window)
        portable = self._lookup(digest)
        if portable is None:
            self.stats["misses"] += 1
        return portable

    def _lookup(self, digest):
        """Memory, then disk; counts hits but not misses."""
        portable = self._memory_get(digest)
        if portable is not None:
            self.stats["memory_hits"] += 1
            return portable
        portable = self._disk_get(digest)
        if portable is not None:
            self.stats["disk_hits"] += 1
            self._memory_put(digest, portable)
        return portable

    def store_portable(self, model, program, level, portable, window=None):
        """Persist a portable table under its content address.

        An unwritable store (read-only filesystem, ``root`` pointing at
        a file, disk full) must never break simulation: the entry still
        lands in the in-process LRU and the failure is only counted.
        """
        digest = table_digest(model, program, level, window=window)
        try:
            self._disk_put(digest, portable)
            self.stats["stores"] += 1
        except OSError:
            self.stats["store_errors"] += 1
        self._memory_put(digest, portable)
        return digest

    def load_or_build_portable(self, model, program, level, builder,
                               window=None):
        """Single-flight get-or-build of a (possibly windowed) table.

        Concurrent calls for the same (model, program, level, window)
        run ``builder()`` exactly once: losers block on the winner's
        flight lock (counted as ``single_flight_waits``).  Every flight
        re-checks the cache once it holds the lock -- a flight that
        missed just before the previous winner published and released
        creates a fresh lock, and must pick up the entry rather than
        build again.  Used by the tiered execution manager, whose
        background promotions of the same hot window would otherwise
        compile the same artifact repeatedly.
        """
        digest = table_digest(model, program, level, window=window)
        portable = self.load_portable(model, program, level, window=window)
        if portable is not None:
            return portable
        with self._flight_lock(digest) as won:
            if not won:
                self.stats["single_flight_waits"] += 1
            portable = self._lookup(digest)
            if portable is None:
                portable = builder()
                self.store_portable(model, program, level, portable,
                                    window=window)
        return portable

    def _flight_lock(self, digest):
        """Context manager serialising builders of one entry.

        Yields True for the flight that created the lock (the probable
        builder), False for flights that had to queue behind it.
        """
        cache = self

        class _Flight:
            def __enter__(self):
                with cache._flights_mutex:
                    lock = cache._flights.get(digest)
                    self.won = lock is None
                    if lock is None:
                        lock = cache._flights[digest] = threading.Lock()
                    self.lock = lock
                self.lock.acquire()
                return self.won

            def __exit__(self, *exc):
                self.lock.release()
                with cache._flights_mutex:
                    if cache._flights.get(digest) is self.lock:
                        del cache._flights[digest]
                return False

        return _Flight()

    # -- native burst artifacts ---------------------------------------------

    def native_root(self):
        """Directory for native backend artifacts (versioned namespace)."""
        return os.path.join(self.root, _version_tag(), "native")

    def _native_paths(self, key):
        base = os.path.join(self.native_root(), key[:2], key[2:])
        return base + ".c", base + ".so", base + ".json"

    def load_native_artifact(self, key, compiler_id):
        """Paths of a valid cached native artifact, or ``None``.

        An artifact is valid only when its metadata matches the current
        payload format *and* the exact compiler identity (version line
        plus flags): a shared object built by a stale compiler must
        miss and be rebuilt, never loaded.
        """
        c_path, so_path, meta_path = self._native_paths(key)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            self.stats["native_misses"] += 1
            return None
        if (
            meta.get("format") != FORMAT_VERSION
            or meta.get("compiler") != compiler_id
            or not os.path.exists(so_path)
        ):
            self.stats["native_misses"] += 1
            return None
        self.stats["native_hits"] += 1
        return c_path, so_path

    def store_native_artifact(self, key, compiler_id, source, compile_fn):
        """Build and publish a native artifact under ``key``.

        ``compile_fn(c_path, so_path)`` performs the actual compile.
        It runs in a private build directory inside the artifact
        directory: ``c_path`` holds ``source`` there, and anything else
        the build writes (unit sources, objects) belongs there too.  The
        source and shared object are published by atomic rename and the
        build directory is removed, so concurrent builders of one key
        (service workers sharing a cache, a tiering thread and the main
        thread) never write each other's files.  The metadata file is
        written last (atomically), so a crashed build can never be
        mistaken for a valid artifact.
        """
        c_path, so_path, meta_path = self._native_paths(key)
        directory = os.path.dirname(c_path)
        os.makedirs(directory, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=directory, prefix=".build-")
        try:
            build_c = os.path.join(workdir, os.path.basename(c_path))
            build_so = os.path.join(workdir, os.path.basename(so_path))
            with open(build_c, "w", encoding="utf-8") as handle:
                handle.write(source)
            compile_fn(build_c, build_so)
            os.replace(build_c, c_path)
            os.replace(build_so, so_path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        meta = {
            "format": FORMAT_VERSION,
            "compiler": compiler_id,
            "key": key,
        }
        fd, tmp_meta = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
        os.replace(tmp_meta, meta_path)
        self.stats["native_stores"] += 1
        return c_path, so_path

    # -- in-process LRU -----------------------------------------------------

    def _memory_get(self, digest):
        portable = self._memory.get(digest)
        if portable is not None:
            self._memory.move_to_end(digest)
        return portable

    def _memory_put(self, digest, portable):
        if self._max_memory == 0:
            return
        self._memory[digest] = portable
        self._memory.move_to_end(digest)
        while len(self._memory) > self._max_memory:
            self._memory.popitem(last=False)

    # -- disk store ---------------------------------------------------------

    def entry_path(self, digest):
        return os.path.join(
            self.root, _version_tag(), digest[:2], digest[2:] + ".simtab"
        )

    def _disk_get(self, digest):
        path = self.entry_path(digest)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            payload = marshal.loads(blob[len(_MAGIC):])
            if payload["meta"].get("format") != FORMAT_VERSION:
                # An entry written by a different (older or newer)
                # format that strayed into this version's namespace is
                # not corruption -- it is simply unusable here.  Treat
                # it as a clean miss and leave it alone.
                self.stats["format_misses"] += 1
                return None
            if payload["meta"]["digest"] != digest:
                raise ValueError("digest mismatch")
            return PortableTable.from_payload(payload["table"])
        except Exception:
            # Truncated, bit-rotted or wrong-format entry: quarantine it
            # and fall back to a plain miss.
            self.stats["corrupt_entries"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _disk_put(self, digest, portable):
        path = self.entry_path(digest)
        payload = {
            "meta": {
                "format": FORMAT_VERSION,
                "python": "%d.%d" % sys.version_info[:2],
                "digest": digest,
                "model": portable.model_name,
                "program": portable.program_name,
                "level": portable.level,
                "window": portable.window,
            },
            "table": portable.to_payload(),
        }
        blob = _MAGIC + marshal.dumps(payload)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Atomic publish: a concurrent reader sees the old entry or the
        # new one, never a torn write.
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
