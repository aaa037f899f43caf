"""Adaptive tiered execution: profile-guided promotion of hot windows.

The classic trade-off in compiled simulation is *time to first result*
versus *steady-state speed*: the cheap table levels load fast but run
slower, the expensive ones (operation instantiation, native burst
compilation) run fast but pay heavy up-front compilation for the whole
program -- most of which never gets hot.  This module resolves the
trade-off adaptively: programs **start at their cheap base tier**,
in-burst/per-cycle telemetry feeds the hot-region report
(:func:`repro.obs.hot_region_report`), and the :class:`TierManager`
promotes *only the hot windows* up a tier lattice::

    base (sequenced table)  -->  unfolded (instantiated window)
                                      |
                                      v   (where absint proofs admit)
                            native (compiled burst, window-admitted)

Promotion is a bit-exact in-place splice: the windowed artifact is
compiled by :mod:`repro.simcc.partial` (full packet extents against the
original segment limits, cached per (digest, window, level) with
single-flight dedup) and swapped into the live simulation table through
:func:`repro.resilience.guard.splice_table_window` -- the exact
machinery the self-modifying-code guard uses, run in the opposite
direction.  Native promotion renders a window-admitted burst module
(:func:`repro.simcc.native.build_native_module` with ``admit_pcs``) and
wraps -- or re-arms, via ``NativePipeline.adopt_module`` -- the burst
engine around the running pipeline.

Builds optionally run on a background thread and **commit only at a
poll boundary on the simulating thread**, so the architectural state
never observes a half-spliced table.  The guard always wins races: a
self-modifying write poisons the touched addresses, discards any
overlapping in-flight build, and demotes already-promoted windows
(``tiering.demote`` with cause ``self_modify``); a failed background
build aborts without touching the running tier.

Once the profile stops producing promotion candidates the manager
**quiesces**: it rebuilds the native module telemetry-free (same
admitted set) and detaches its internal profile observer, so steady
state pays neither in-burst counters nor per-cycle attribution.  A
later self-modifying write resumes profiling.  Quiescence never touches
a user-attached observer.

Every transition is observable (``tiering.promote``/``tiering.demote``
events, ``tiering.*`` metrics) and recorded on a versioned, cycle-
stamped timeline (:meth:`TierManager.timeline_report`, actions
``promote``/``demote``/``abort``/``quiesce``) surfaced through
``repro-sim --tier-report`` and the ``tier_timeline`` field of
``--stats-json``.
"""

from __future__ import annotations

import dataclasses
import threading

from repro.obs import PROFILE_MODE, Observer, hot_region_report
from repro.obs.profile import DEFAULT_MAX_GAP
from repro.support.errors import ReproError, SimulationTimeout

#: Tiering modes accepted by simulators / ``repro-sim --tiering``.
TIERING_MODES = ("off", "auto", "aggressive")

#: Schema version of :meth:`TierManager.timeline_report`.
TIMELINE_VERSION = 1

#: The tier lattice, cheap to expensive.
TIERS = ("base", "unfolded", "native")


@dataclasses.dataclass
class TierPolicy:
    """Knobs steering when and what the :class:`TierManager` promotes.

    ``poll_cycles``
        Promotion decisions happen only at poll boundaries, every this
        many simulated cycles (the engine never yields control
        mid-window, so splices are always architecturally clean).
    ``min_cycles``
        No promotion before this many cycles have accumulated -- the
        profile needs signal before it is worth acting on.
    ``hot_share`` / ``max_gap``
        Passed to :func:`repro.obs.hot_region_report`: the minimum
        attributed-cycle share for a packet to seed a hot window, and
        the maximum address gap merged into one window.
    ``promote_native``
        Whether proven windows continue past ``unfolded`` to the
        compiled burst tier (degrades silently without a C toolchain).
    ``background``
        Build promotion artifacts on a background thread, committing at
        the next poll; ``False`` builds synchronously inside the poll
        (deterministic commit points -- what the tests use).
    """

    mode: str = "auto"
    poll_cycles: int = 2000
    min_cycles: int = 2000
    hot_share: float = 0.01
    max_gap: int = DEFAULT_MAX_GAP
    promote_native: bool = True
    background: bool = True

    @classmethod
    def for_mode(cls, mode):
        """The stock policy for one of :data:`TIERING_MODES`."""
        if mode == "auto":
            return cls(mode="auto")
        if mode == "aggressive":
            # Promote early and eagerly: first poll already acts, a
            # tenth of the hot-share bar (warm packets between hot ones
            # would otherwise stay on the slow path and cap every burst
            # at the next unpromoted address), synchronous builds so
            # every promotion lands at a deterministic cycle stamp.
            return cls(mode="aggressive", poll_cycles=500, min_cycles=0,
                       hot_share=0.001, background=False)
        raise ReproError(
            "unknown tiering mode %r (choose from %s)"
            % (mode, ", ".join(TIERING_MODES))
        )

    @classmethod
    def coerce(cls, value):
        """A policy from a mode string, a policy, ``None`` or ``"off"``;
        ``None`` result means tiering is off."""
        if value in (None, "off"):
            return None
        if isinstance(value, cls):
            return value
        return cls.for_mode(value)


class _Build:
    """One in-flight promotion build (at most one exists at a time).

    ``fn`` runs either inline (synchronous policies) or on a daemon
    thread; the result is only ever *consumed* on the simulating thread
    at a poll boundary.  ``pcs`` is the packet-address footprint the
    guard checks overlapping self-modifying writes against.
    """

    def __init__(self, tier, start, limit, pcs, fn, background,
                 quiesce=False):
        self.tier = tier
        self.start = start
        self.limit = limit
        self.pcs = frozenset(pcs)
        self.quiesce = quiesce
        self.result = None
        self.error = None
        self.discarded = False
        self._finished = threading.Event()
        if background:
            thread = threading.Thread(
                target=self._run, args=(fn,),
                name="repro-tier-build", daemon=True,
            )
            thread.start()
        else:
            self._run(fn)

    def _run(self, fn):
        try:
            self.result = fn()
        except Exception as exc:  # surfaced as a tiering abort, not a crash
            self.error = exc
        finally:
            self._finished.set()

    @property
    def done(self):
        return self._finished.is_set()


class TierManager:
    """Decides, builds and commits tier transitions for one simulator.

    Owned by a :class:`TieredEngine`; all table mutation happens in
    :meth:`poll` on the simulating thread.  When the simulator has no
    observer the manager attaches its own record-free profile-mode
    observer to the inner engine -- cycle attribution is the price of
    admission for profile-guided anything.
    """

    def __init__(self, simulator, engine, policy):
        self._sim = simulator
        self._engine = engine
        self.policy = policy
        self._internal = None
        self._observer = simulator.observer
        if self._observer is None:
            self._internal = Observer(record=False, mode=PROFILE_MODE)
            engine.inner.set_observer(self._internal)
        self.timeline = []
        #: Addresses a self-modifying write touched: never promoted again.
        self._poisoned = set()
        #: Addresses a promotion build failed for: not retried.
        self._failed = set()
        #: Packet starts spliced at the instantiated level.
        self._unfolded = set()
        #: Packet starts the current native module proved and admits.
        self._native_admits = set()
        #: Packet starts ever handed to a native build (no re-attempts).
        self._native_attempted = set()
        self._native_off = False
        self._build = None
        self._base_unfolded = (
            getattr(simulator, "level", None) == "instantiated"
        )
        #: Consecutive polls that found nothing to plan.
        self._idle_polls = 0
        #: Profiling dropped after the promotion phase settled.
        self._quiesced = False

    # -- observer plumbing ---------------------------------------------------

    @property
    def observer(self):
        """The observer feeding the profile: the simulator's, or the
        manager's internal one."""
        return self._observer if self._observer is not None else self._internal

    def set_observer(self, observer):
        self._observer = observer
        if (
            observer is None
            and self._internal is not None
            and not self._quiesced
        ):
            # Keep profiling through the internal observer; without one
            # the manager would go blind.
            self._engine.inner.set_observer(self._internal)
        else:
            self._engine.inner.set_observer(observer)

    # -- the poll boundary ---------------------------------------------------

    #: Consecutive empty polls before profiling quiesces (the profile
    #: has clearly stopped producing new promotion candidates).
    QUIESCE_IDLE_POLLS = 3

    def poll(self):
        """Commit a finished build and/or plan the next promotion.

        Called by the :class:`TieredEngine` between run chunks -- the
        only place the live table is ever mutated.  Returns True while
        there is (or may soon be) work in flight; False means the
        manager is idle and the engine may back off its poll cadence.
        """
        build = self._build
        if build is not None:
            if not build.done:
                return True
            self._build = None
            self._commit(build)
            return True  # one transition per poll keeps stamps unambiguous
        if self._engine.cycles < self.policy.min_cycles:
            return True
        plan = self._plan()
        if plan is None:
            self._idle_polls += 1
            return self._maybe_quiesce()
        self._idle_polls = 0
        tier, start, limit, pcs, fn = plan
        self._build = _Build(tier, start, limit, pcs, fn,
                             self.policy.background)
        if not self.policy.background:
            build, self._build = self._build, None
            self._commit(build)
        return True

    # -- planning ------------------------------------------------------------

    def _hot_windows(self):
        table = self._sim.table
        extents = {pc: slot.words for pc, slot in table.slots.items()}
        report = hot_region_report(
            self.observer, hot_share=self.policy.hot_share,
            max_gap=self.policy.max_gap, extents=extents,
        )
        return report["windows"]

    def _clamp_to_segment(self, start, limit):
        """Clip a hot window to its enclosing program segment.

        Profile windows group by address adjacency, which can bridge a
        segment boundary; a promotion build only covers one segment.
        The clipped remainder stays hot and gets planned on a later
        poll.  Returns None when ``start`` lies in no segment.
        """
        sim = self._sim
        pmem = sim.model.config.program_memory
        for segment in sim.program.segments_in(pmem):
            if segment.base <= start < segment.end:
                return start, min(limit, segment.end)
        return None

    def _plan(self):
        """The next (tier, start, limit, pcs, builder) or None."""
        table = self._sim.table
        for window in self._hot_windows():
            clamped = self._clamp_to_segment(
                window["start"], window["limit"]
            )
            if clamped is None:
                continue
            start, limit = clamped
            span = set(range(start, limit))
            if span & self._poisoned or span & self._failed:
                continue
            pcs = span & set(table.slots)
            if not pcs:
                continue
            if not self._base_unfolded and not pcs <= self._unfolded:
                return self._plan_unfolded(start, limit, pcs)
            native = self._plan_native(start, limit, pcs)
            if native is not None:
                return native
        return None

    def _plan_unfolded(self, start, limit, pcs):
        from repro.simcc.partial import build_window_table

        sim = self._sim
        model, program = sim.model, sim.program
        cache, jobs = sim.cache, getattr(sim, "_jobs", None)

        def builder():
            return build_window_table(
                model, program, start, limit, level="instantiated",
                cache=cache, jobs=jobs,
            )

        return ("unfolded", start, limit, pcs, builder)

    def _plan_native(self, start, limit, pcs):
        if self._native_off or not self.policy.promote_native:
            return None
        table = self._sim.table
        ir_by_stage = table.ir_by_stage or {}
        ready = {pc for pc in pcs if pc in ir_by_stage}
        fresh = ready - self._native_attempted
        if not fresh:
            return None
        admit = frozenset(
            (self._native_attempted | ready) - self._poisoned
        )
        self._native_attempted |= ready
        sim = self._sim
        model, cache = sim.model, sim.cache
        # Snapshot the table: a background render must not race guard
        # refreshes mutating the live dicts mid-iteration.
        snapshot = dataclasses.replace(
            table,
            slots=dict(table.slots),
            has_control=dict(table.has_control),
            ir_by_stage=dict(ir_by_stage),
        )
        telemetry = (
            self.observer is not None
            and not getattr(self.observer, "wants_cycle_events", True)
        )
        # Background builds keep the observer out: emitting events from
        # a worker thread would interleave with the simulating thread.
        observer = None if self.policy.background else self.observer

        def builder():
            from repro.simcc.native import build_native_module

            return build_native_module(
                model, snapshot, cache=cache, observer=observer,
                telemetry=telemetry, admit_pcs=admit,
            )

        return ("native", start, limit, admit, builder)

    # -- quiescence ----------------------------------------------------------

    def _maybe_quiesce(self):
        """Drop profiling once the promotion phase has settled.

        The manager's internal profile-mode observer is what makes
        promotion possible -- and what taxes steady state: it forces
        per-cycle attribution on the Python tiers and in-burst
        telemetry in the native modules.  Once :data:`QUIESCE_IDLE_POLLS`
        consecutive polls planned nothing and at least one promotion is
        committed, stop paying: rebuild the native module without
        telemetry (same admitted set) and detach the internal observer.
        A later self-modifying write resumes profiling (:meth:`on_smc`).
        Only ever fires for the internal observer -- a user-attached
        observer keeps its telemetry for as long as it is attached.
        """
        if (
            self._quiesced
            or self._observer is not None
            or self._internal is None
            or self._idle_polls < self.QUIESCE_IDLE_POLLS
            or not (self._unfolded or self._native_admits)
        ):
            return False
        plan = self._plan_quiesce()
        if plan is None:
            # Pure-Python tiers: nothing to rebuild, just stop counting.
            self._quiesce_now(self._engine.cycles, "unfolded")
            return False
        tier, start, limit, pcs, fn = plan
        self._build = _Build(tier, start, limit, pcs, fn,
                             self.policy.background, quiesce=True)
        if not self.policy.background:
            build, self._build = self._build, None
            self._commit(build)
        return True

    def _plan_quiesce(self):
        """A telemetry-free rebuild of the current native module, or
        None when the inner engine runs pure Python tiers."""
        from repro.simcc.native import NativePipeline

        if not isinstance(self._engine.inner, NativePipeline):
            return None
        admit = frozenset(self._native_admits - self._poisoned)
        if not admit:
            return None
        table = self._sim.table
        sim = self._sim
        model, cache = sim.model, sim.cache
        snapshot = dataclasses.replace(
            table,
            slots=dict(table.slots),
            has_control=dict(table.has_control),
            ir_by_stage=dict(table.ir_by_stage or {}),
        )

        def builder():
            from repro.simcc.native import build_native_module

            return build_native_module(
                model, snapshot, cache=cache, observer=None,
                telemetry=False, admit_pcs=admit,
            )

        return ("native", min(admit), max(admit) + 1, admit, builder)

    def _commit_quiesce(self, build, cycle):
        if build.discarded or build.pcs & self._poisoned:
            # The guard already resumed profiling; stay instrumented.
            self._record("abort", build, cycle, cause="smc_overlap")
            return
        module = build.result
        if build.error is None and module is not None:
            self._engine.inner.adopt_module(module)
            self._native_admits = set(module.plan.native_pcs)
        # Even when the rebuild failed (keeping the instrumented
        # module), stop profiling -- retrying every poll would turn a
        # broken toolchain into a hot loop.
        self._quiesce_now(cycle, build.tier)

    def _quiesce_now(self, cycle, tier):
        self._quiesced = True
        self._idle_polls = 0
        if self._observer is None:
            self._engine.inner.set_observer(None)
        promoted = self._native_admits or self._unfolded
        self.timeline.append({
            "cycle": int(cycle), "action": "quiesce", "tier": tier,
            "start": int(min(promoted)) if promoted else 0,
            "limit": int(max(promoted) + 1) if promoted else 0,
            "cause": "profile_idle",
        })

    # -- committing ----------------------------------------------------------

    def _commit(self, build):
        cycle = self._engine.cycles
        if build.quiesce:
            self._commit_quiesce(build, cycle)
            return
        if build.discarded or build.pcs & self._poisoned:
            self._record("abort", build, cycle, cause="smc_overlap")
            return
        if build.error is not None:
            self._failed |= build.pcs
            if build.tier == "native":
                self._native_off = True
            self._record(
                "abort", build, cycle,
                cause="compile_failed: %s" % build.error,
            )
            return
        if build.tier == "unfolded":
            self._commit_unfolded(build, cycle)
        else:
            self._commit_native(build, cycle)

    def _commit_unfolded(self, build, cycle):
        from repro.resilience.guard import splice_table_window

        sim = self._sim
        mini = build.result.bind(sim.state, sim.control)
        pcs = set(build.pcs) - self._poisoned
        updates = splice_table_window(
            sim.table, mini, engine=self._engine.inner,
            mode="promote", pcs=pcs,
        )
        self._unfolded |= set(updates)
        self._record("promote", build, cycle, packets=len(updates))

    def _commit_native(self, build, cycle):
        module = build.result
        if module is None:
            # The build ladder degraded (no toolchain, nothing proven):
            # stop asking, the Python tiers keep running untouched.
            self._native_off = True
            self._record("abort", build, cycle, cause="native_unavailable")
            return
        from repro.simcc.native import NativePipeline

        inner = self._engine.inner
        if isinstance(inner, NativePipeline):
            inner.adopt_module(module)
        else:
            sim = self._sim
            native = NativePipeline(inner, sim.state, sim.control, module)
            native.set_observer(self.observer)
            self._engine.inner = native
        self._native_admits = set(module.plan.native_pcs)
        self._record(
            "promote", build, cycle, packets=len(module.plan.native_pcs)
        )

    def _record(self, action, build, cycle, cause=None, **extra):
        entry = {
            "cycle": int(cycle),
            "action": action,
            "tier": build.tier,
            "start": int(build.start),
            "limit": int(build.limit),
            "cause": cause,
        }
        self.timeline.append(entry)
        observer = self.observer
        if observer is None:
            return
        if action == "promote":
            observer.on_tier_promote(
                build.start, build.limit, build.tier, cycle, **extra
            )
        elif action == "abort":
            observer.metrics.inc("tiering.aborted_builds")
            observer.metrics.bump(
                "tiering.aborts_by_cause", (cause or "").split(":")[0]
            )

    # -- the guard wins every race -------------------------------------------

    def on_smc(self, pcs):
        """A self-modifying write invalidated ``pcs``.

        Called (through the :class:`TieredEngine`) on the guard's
        invalidate path: poison the addresses against future promotion,
        discard any overlapping in-flight build, and demote whatever
        was already promoted there -- the guard's refresh then serves
        the packet at the simulator's base level.
        """
        pcs = set(pcs)
        self._poisoned |= pcs
        self._idle_polls = 0
        if self._quiesced:
            # The program just changed shape: resume profiling so the
            # refreshed packets can earn promotion again.
            self._quiesced = False
            if self._observer is None and self._internal is not None:
                self._engine.inner.set_observer(self._internal)
        build = self._build
        if build is not None and build.pcs & pcs:
            build.discarded = True
        cycle = self._engine.cycles
        hit_native = pcs & self._native_admits
        hit_unfolded = pcs & self._unfolded
        self._native_admits -= hit_native
        self._unfolded -= hit_unfolded
        observer = self.observer
        for tier, hit in (("native", hit_native),
                          ("unfolded", hit_unfolded)):
            if not hit:
                continue
            start, limit = min(hit), max(hit) + 1
            self.timeline.append({
                "cycle": int(cycle), "action": "demote", "tier": tier,
                "start": int(start), "limit": int(limit),
                "cause": "self_modify",
            })
            if observer is not None:
                observer.on_tier_demote(
                    start, limit, tier, cycle, cause="self_modify"
                )

    # -- reporting -----------------------------------------------------------

    def timeline_report(self):
        """The versioned, cycle-stamped promotion timeline (JSON-safe)."""
        return {
            "version": TIMELINE_VERSION,
            "mode": self.policy.mode,
            "events": list(self.timeline),
        }


class TieredEngine:
    """Engine wrapper interleaving run chunks with tier-manager polls.

    The stable outer object: the guard, checkpoints and the simulator
    all hold *this* engine, while promotions swap the wrapped ``inner``
    (``Pipeline``/``StaticPipeline``, later a ``NativePipeline``
    around it) underneath without anyone re-arming.
    """

    def __init__(self, simulator, inner, policy):
        from repro.simcc.native import NativePipeline

        if isinstance(inner, NativePipeline):
            raise ReproError(
                "tiering requires a non-native base backend (the native "
                "backend already compiles everything eagerly)"
            )
        self.inner = inner
        self._control = simulator.control
        self.manager = TierManager(simulator, self, policy)
        self._poll_cycles = max(1, int(policy.poll_cycles))
        self._chunk = self._poll_cycles
        self._next_poll = self._poll_cycles

    # -- delegation ----------------------------------------------------------

    @property
    def cycles(self):
        return self.inner.cycles

    @property
    def instructions_retired(self):
        return self.inner.instructions_retired

    @property
    def drained(self):
        return self.inner.drained

    @property
    def window_pcs(self):
        return self.inner.window_pcs

    def reset(self):
        self.inner.reset()

    def set_observer(self, observer):
        self.manager.set_observer(observer)

    def wrap_frontend(self, wrapper):
        self.inner.wrap_frontend(wrapper)

    def restore_window(self, pcs, cycles, instructions_retired):
        self.inner.restore_window(pcs, cycles, instructions_retired)

    def flush_interned(self):
        flush = getattr(self.inner, "flush_interned", None)
        if flush is not None:
            flush()

    def invalidate_native(self, pcs):
        """Guard invalidation hook: the manager poisons/demotes first,
        then any wrapped burst engine drops its compiled windows."""
        self.manager.on_smc(pcs)
        invalidate = getattr(self.inner, "invalidate_native", None)
        if invalidate is not None:
            invalidate(pcs)
        # The table just changed under us: resume the dense poll cadence.
        self._chunk = self._poll_cycles
        self._next_poll = self.inner.cycles + self._poll_cycles

    def __getattr__(self, name):
        # Anything outside the engine contract falls through to the
        # wrapped engine (dispatch_counts, column stats, ...).
        if name.startswith("_") or name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- execution -----------------------------------------------------------

    #: Idle polls stretch the chunk between polls up to this multiple
    #: of ``poll_cycles`` (exponential backoff): once everything hot is
    #: promoted, a steady-state run spends its time in long bursts, not
    #: in re-ranking an unchanged profile.
    MAX_POLL_BACKOFF = 64

    def _poll(self):
        busy = self.manager.poll()
        if busy:
            self._chunk = self._poll_cycles
        else:
            self._chunk = min(
                self._chunk * 2,
                self._poll_cycles * self.MAX_POLL_BACKOFF,
            )
        self._next_poll = self.inner.cycles + self._chunk

    def step(self):
        self.inner.step()
        if self.inner.cycles >= self._next_poll:
            self._poll()

    def run(self, max_cycles=50_000_000):
        control = self._control
        start = self.cycles
        while not (control.halted and self.inner.drained):
            ran = self.cycles - start
            if ran >= max_cycles:
                raise SimulationTimeout(
                    "simulation exceeded %d cycles without halting"
                    % max_cycles,
                    budget="cycles", limit=max_cycles, cycles=self.cycles,
                )
            until_poll = max(1, self._next_poll - self.cycles)
            self.inner.run_chunk(min(until_poll, max_cycles - ran))
            if self.cycles >= self._next_poll:
                self._poll()
        return self.cycles - start

    def run_chunk(self, cycles):
        control = self._control
        start = self.cycles
        end = start + cycles
        while self.cycles < end and not (
            control.halted and self.inner.drained
        ):
            until_poll = max(1, self._next_poll - self.cycles)
            self.inner.run_chunk(min(until_poll, end - self.cycles))
            if self.cycles >= self._next_poll:
                self._poll()
        return self.cycles - start
