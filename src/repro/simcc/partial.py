"""Partial (windowed) simulation compilation for tiered promotion.

The adaptive tiering pass (:mod:`repro.sim.tiering`) promotes *hot
windows* -- short packet-address ranges the profile identified -- to a
more expensive representation while the rest of the program stays at
its cheap base tier.  This module builds the promoted artifact: a
:class:`repro.simcc.portable.PortableTable` covering only the window,
compiled bit-identically to the corresponding region of a whole-program
build.

Bit-exactness hinges on packet formation: a packet's extent is a pure
function of the program words it spans, so the extracted patch program
must carry every member word of every packet *starting* in the window
-- including the trailing members of a multi-word packet at the window
(or program) end.  :func:`extract_window_program` extends the word
range accordingly, against the original segment limits, so decode,
packetisation and operation instantiation inside the window reproduce
the whole-program build exactly.  Only packets starting inside the
requested window may be spliced into a live table (tail addresses past
``limit`` can see clipped extents).

Windowed tables cache like any other (:mod:`repro.simcc.cache`, format
v6) keyed per (model, program-window, level, window), and concurrent
builds of the same window deduplicate through the cache's single-flight
path -- so a re-run of the same workload promotes from cached artifacts
without recompiling.
"""

from __future__ import annotations

from repro.machine.packets import packet_extent
from repro.support.errors import ReproError
from repro.tools.objfile import Program


def _window_segment(model, program, start, limit):
    """The program segment containing ``[start, limit)``, or None."""
    pmem_name = model.config.program_memory
    for segment in program.segments_in(pmem_name):
        if segment.base <= start and limit <= segment.end:
            return segment
    return None


def extract_window_program(model, program, start, limit):
    """Extract ``[start, limit)`` of ``program`` as a patch program.

    The patch covers the window plus the trailing member words of any
    packet starting inside it, with extents computed against the
    *original* segment bounds -- so compiling the patch reproduces the
    whole-program packets bit-exactly for every window address.

    Raises :class:`~repro.support.errors.ReproError` when the window is
    not contained in a single program segment (promotion windows come
    from the profile of executed packets, so this indicates a stale or
    hand-built report).
    """
    if not start < limit:
        raise ReproError(
            "empty promotion window [0x%x, 0x%x)" % (start, limit)
        )
    segment = _window_segment(model, program, start, limit)
    if segment is None:
        raise ReproError(
            "promotion window [0x%x, 0x%x) is not contained in one "
            "program-memory segment of %r" % (start, limit, program.name)
        )
    base = segment.base
    words = segment.words

    def read_word(address):
        return words[address - base]

    end = limit
    for pc in range(start, limit):
        extent = packet_extent(model, read_word, pc, segment.end)
        end = max(end, pc + extent)
    end = min(end, segment.end)
    pmem_name = model.config.program_memory
    patch = Program(
        name="<window:0x%x-0x%x:%s>" % (start, limit, program.name),
        entry=start,
    )
    patch.add_segment(
        pmem_name, start, [int(w) for w in words[start - base:end - base]]
    )
    return patch


def build_window_table(model, program, start, limit, level="instantiated",
                       cache=None, jobs=None, observer=None):
    """Compile window ``[start, limit)`` into a portable partial table.

    With ``cache`` set the build goes through the cache's single-flight
    get-or-build: concurrent promotions of the same (digest, window,
    level) compile once, and a later run of the same workload binds the
    cached artifact without compiling at all.  Returns a
    :class:`repro.simcc.portable.PortableTable` whose ``window`` field
    records the range.
    """
    from repro.simcc.portable import build_portable_table

    patch = extract_window_program(model, program, start, limit)
    window = (int(start), int(limit))

    def builder():
        portable = build_portable_table(
            model, patch, level, jobs=jobs, observer=observer
        )
        portable.window = window
        return portable

    if cache is not None:
        return cache.load_or_build_portable(
            model, patch, level, builder, window=window
        )
    return builder()

