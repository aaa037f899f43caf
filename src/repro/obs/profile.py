"""Profile-guided hot-region reporting.

:func:`hot_region_report` turns one observed run's per-packet counters
into a stable, JSON-compatible ranking of where simulated time went:
per-packet attributed cycles (``sim.cycles_by_pc``, maintained by
trace/profile-mode observers on every backend -- the Python loops
attribute inline, native bursts flush their telemetry side-buffer) and
contiguous hot windows grouped from them.  It is the only reader of
an observer's profile counters: :class:`repro.sim.tiering.TierManager`
ranks it to decide which regions earn the most aggressive backend,
``repro-sim --profile-out`` serialises it, and
:class:`repro.tools.profiler.Profiler` is a typed view of it.

Counters-mode observers skip cycle attribution; for them the report
falls back to ranking by raw fetch counts and says so in ``basis``.
"""

from __future__ import annotations

#: Report schema version; bump on any shape change so downstream
#: consumers can gate on it.
REPORT_VERSION = 2

#: A packet must own at least this share of attributed cycles to seed a
#: hot window.
DEFAULT_HOT_SHARE = 0.01

#: Hot packets at most this many program words apart merge into one
#: window (packets are multi-word, so adjacency is not pc+1).
DEFAULT_MAX_GAP = 4


def hot_region_report(observer, hot_share=DEFAULT_HOT_SHARE,
                      max_gap=DEFAULT_MAX_GAP, extents=None):
    """Rank packets and contiguous windows by attributed cycles.

    Returns a JSON-compatible dict::

        {
          "version": 2,
          "basis": "attributed_cycles" | "fetch_counts",
          "total_cycles": <int>,
          "run": {"kind": ..., "cycles": ..., "instructions": ...,
                  "issue_cycles": int, "bubble_cycles": int,
                  "instructions_issued": int, "squashed_slots": int,
                  "bubbles_by_reason": {reason: cycles},
                  "packet_sizes": {size: packets}},
          "packets": [
            {"pc": int, "pc_hex": "0x..", "cycles": int, "fetches": int,
             "share": float, "label": str|None},
            ...sorted by cycles desc, then pc...
          ],
          "windows": [
            {"start": int, "end": int, "limit": int, "start_hex": ..,
             "end_hex": .., "packets": int, "cycles": int,
             "share": float},
            ...sorted by cycles desc, then start...
          ],
        }

    ``hot_share`` is the minimum cycle share for a packet to seed a
    window; ``max_gap`` is the maximum address gap between hot packets
    merged into one window.

    ``extents`` optionally maps each packet start to the program words
    the packet spans (``{pc: words}``, e.g. built from a simulation
    table's slots).  With it, window grouping measures gaps from where
    the previous packet *ends* rather than where it starts, and each
    window's ``limit`` covers the member words of its final packet --
    without it (extent 1 assumed), a multi-word packet whose last word
    is the final table slot would be silently cut out of the window a
    consumer promotes.  ``end`` stays the last hot packet's start
    address for backwards compatibility; ``limit`` is the exclusive end
    of the covered range.
    """
    metrics = observer.metrics
    attributed = metrics.family("sim.cycles_by_pc")
    if attributed:
        weights = dict(attributed)
        basis = "attributed_cycles"
    else:
        weights = dict(metrics.family("sim.fetch_by_pc"))
        basis = "fetch_counts"
    fetches = metrics.family("sim.fetch_by_pc")
    total = sum(weights.values())
    labeler = observer.labeler

    packets = []
    for pc, cycles in weights.items():
        label = None
        if labeler is not None:
            try:
                label = labeler(pc)
            except Exception:
                label = None
        packets.append({
            "pc": pc,
            "pc_hex": "0x%x" % pc,
            "cycles": cycles,
            "fetches": fetches.get(pc, 0),
            "share": cycles / total if total else 0.0,
            "label": label,
        })
    packets.sort(key=lambda entry: (-entry["cycles"], entry["pc"]))

    windows = _group_windows(weights, total, hot_share, max_gap,
                             extents=extents)

    gauges = metrics.gauges
    return {
        "version": REPORT_VERSION,
        "basis": basis,
        "total_cycles": total,
        "run": {
            "kind": gauges.get("run.kind"),
            "cycles": gauges.get("run.cycles"),
            "instructions": gauges.get("run.instructions"),
            "issue_cycles": metrics.counter("sim.issue_cycles"),
            "bubble_cycles": metrics.counter("sim.bubble_cycles"),
            "instructions_issued": metrics.counter("sim.instructions_issued"),
            "squashed_slots": metrics.counter("sim.squashed_slots"),
            "bubbles_by_reason": dict(metrics.family("sim.bubbles_by_reason")),
            "packet_sizes": dict(metrics.family("sim.packet_sizes")),
        },
        "packets": packets,
        "windows": windows,
    }


def _group_windows(weights, total, hot_share, max_gap, extents=None):
    """Contiguous runs of hot packets, ranked by their summed cycles.

    ``extents`` (``{pc: words}``) makes grouping packet-extent aware:
    the gap to the next hot packet is measured from the previous
    packet's *last* member word, and the produced ``limit`` is the
    exclusive end of the final packet's words.  Without extents every
    packet is assumed one word wide -- which both splits windows of
    adjacent multi-word packets and, at the program-end boundary,
    reports a ``limit`` that drops the member words of a multi-word
    final packet.
    """
    if not total:
        return []
    hot = sorted(
        pc for pc, cycles in weights.items()
        if cycles / total >= hot_share
    )

    def extent_of(pc):
        if extents is None:
            return 1
        return max(1, int(extents.get(pc, 1)))

    windows = []
    for pc in hot:
        if windows and pc - windows[-1]["limit"] < max_gap:
            windows[-1]["end"] = pc
            windows[-1]["limit"] = max(
                windows[-1]["limit"], pc + extent_of(pc)
            )
            windows[-1]["packets"] += 1
            windows[-1]["cycles"] += weights[pc]
        else:
            windows.append({
                "start": pc, "end": pc, "limit": pc + extent_of(pc),
                "packets": 1, "cycles": weights[pc],
            })
    for window in windows:
        window["start_hex"] = "0x%x" % window["start"]
        window["end_hex"] = "0x%x" % window["end"]
        window["share"] = window["cycles"] / total
    windows.sort(key=lambda entry: (-entry["cycles"], entry["start"]))
    return windows
