"""Program profiler built on the observability hooks.

One more member of the generated tool suite: per-address fetch counts,
execute-packet statistics, bubble-cycle attribution and a
source-annotated hot-spot listing -- the kind of feedback loop
(simulate, profile, re-schedule) that DSP software development lives on.

The profiler is a typed view of :func:`repro.obs.hot_region_report`:
it attaches a profile-mode :class:`repro.obs.Observer` (``record=False``,
so no event list grows during the run, and native bursts stay enabled)
and reshapes the report afterwards.  Because the statically scheduled
engines emit the same per-cycle hooks as the per-fetch kinds, profiling
works on *every* simulator kind -- including ``static`` and
``unfolded_static``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs import PROFILE_MODE, Observer, hot_region_report


@dataclass
class ProfileReport:
    """Per-address fetch statistics for one run.

    ``bubbles_by_reason`` attributes every non-issuing cycle to why it
    issued nothing: ``"stall"`` (a behaviour requested stall cycles),
    ``"drain"`` (the pipeline emptying after halt) or ``"frontend"``
    (no slot at the fetch address).  ``packet_sizes`` summarises the
    execute-packet-level statistics as a ``{size: packets}`` histogram.
    """

    fetch_counts: Dict[int, int] = field(default_factory=dict)
    issue_cycles: int = 0
    bubble_cycles: int = 0
    total_cycles: int = 0
    instructions_issued: int = 0
    squashed_slots: int = 0
    bubbles_by_reason: Dict[str, int] = field(default_factory=dict)
    packet_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def hottest(self):
        """Addresses sorted by descending fetch count."""
        return sorted(
            self.fetch_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )

    @property
    def mean_packet_size(self):
        """Mean instructions per issued execute packet (NaN if none)."""
        if not self.issue_cycles:
            return float("nan")
        return self.instructions_issued / self.issue_cycles

    def annotate(self, disassembler, program, limit=None):
        """Hot-spot listing lines: count, address, disassembly."""
        listing = {}
        for line in disassembler.disassemble_program(program):
            address_text, text = line.split(":", 1)
            listing[int(address_text, 16)] = text.strip()
        lines = []
        for address, count in self.hottest[:limit]:
            lines.append(
                "%10d  %06x: %s"
                % (count, address, listing.get(address, "?"))
            )
        return lines


class Profiler:
    """Attaches a profile-mode observer to a simulator.

    Usage::

        sim = tools.new_simulator("compiled")
        sim.load_program(program)
        profiler = Profiler(sim)
        sim.run()
        report = profiler.report()

    Works with every simulator kind.  Attaching replaces any observer
    already on the simulator; to profile *and* trace, pass one
    full-recording :class:`repro.obs.Observer` to the simulator
    yourself and build the report with :meth:`report_from`.
    """

    def __init__(self, simulator):
        self._simulator = simulator
        self._observer = Observer(record=False, mode=PROFILE_MODE)
        simulator.attach_observer(self._observer)

    @property
    def observer(self):
        return self._observer

    def report(self):
        return self.report_from(self._observer, self._simulator)

    @staticmethod
    def report_from(observer, simulator=None):
        """Build a :class:`ProfileReport` from any observer's metrics.

        ``total_cycles`` comes from the engine when ``simulator`` is
        given (matching ``simulator.cycles`` exactly), otherwise from
        the issue/bubble counters.
        """
        report = hot_region_report(observer)
        run = report["run"]
        if simulator is not None and simulator.program is not None:
            total = simulator.engine.cycles
        else:
            total = run["issue_cycles"] + run["bubble_cycles"]
        return ProfileReport(
            fetch_counts={
                packet["pc"]: packet["fetches"]
                for packet in report["packets"] if packet["fetches"]
            },
            issue_cycles=run["issue_cycles"],
            bubble_cycles=run["bubble_cycles"],
            total_cycles=total,
            instructions_issued=run["instructions_issued"],
            squashed_slots=run["squashed_slots"],
            bubbles_by_reason=run["bubbles_by_reason"],
            packet_sizes=run["packet_sizes"],
        )
