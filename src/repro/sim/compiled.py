"""Levels 2 and 3 compiled simulation with dynamic scheduling.

The simulation compiler translates the loaded program into a simulation
table at load time; at run-time the front-end is a dictionary lookup and
the driver selects operations from the overlapping instructions in the
pipeline cycle by cycle -- the paper's *dynamic scheduling*.

``level="sequenced"`` (kind ``compiled``) reproduces exactly what the
paper implemented (steps 1+2); ``level="instantiated"`` (kind
``unfolded``) adds the announced third step, operation instantiation,
and is always built as a portable table (:mod:`repro.simcc.portable`).
"""

from __future__ import annotations

from repro.machine.driver import Pipeline
from repro.sim.base import Simulator
from repro.simcc.generator import generate_simulation_compiler


def build_simulation_table(simulator, program, jobs=None):
    """Table construction for the table-based kinds, at load time and
    for the write guard's per-packet refresh.

    A cache rehydrates a *portable* table.  Without one, the ``native``
    backend also builds a portable table, because the native renderer
    needs lowered IR and a level-2 table has none; every other backend
    compiles directly (which, at level ``instantiated``, is the same
    portable build).  ``jobs`` fans a cold build out over workers.
    """
    level = simulator.level
    if simulator.cache is not None:
        return simulator.cache.load_table(
            simulator._simcc, program, simulator.state, simulator.control,
            level=level, jobs=jobs, observer=simulator.observer,
        )
    if simulator.backend == "native":
        from repro.simcc.portable import build_portable_table

        return build_portable_table(
            simulator.model, program, level, jobs=jobs,
            observer=simulator.observer,
        ).bind(simulator.state, simulator.control)
    return simulator._simcc.compile(
        program, simulator.state, simulator.control, level=level,
        jobs=jobs, observer=simulator.observer,
    )


def maybe_wrap_native(simulator, engine):
    """Wrap ``engine`` for burst execution when backend is ``native``.

    Degrades silently (plus one ``native.fallback`` event) to the
    unwrapped engine when the native module cannot be built -- no C
    toolchain, an unmappable model, or no packet passing the analysis.

    When a profile/counters-mode observer is attached at load time, the
    module is built with in-burst telemetry so observed runs keep
    bursting (an observer attached *later* in those modes simply takes
    the per-cycle Python path until the program is reloaded).
    """
    if simulator.backend != "native":
        return engine
    from repro.simcc.native import NativePipeline, build_native_module

    observer = simulator.observer
    telemetry = (
        observer is not None
        and not getattr(observer, "wants_cycle_events", True)
    )
    module = build_native_module(
        simulator.model, simulator.table, cache=simulator._cache,
        observer=observer, telemetry=telemetry,
    )
    if module is None:
        return engine
    return NativePipeline(engine, simulator.state, simulator.control,
                          module)


def maybe_wrap_tiered(simulator, engine):
    """Wrap ``engine`` for adaptive tiering when the simulator asks.

    ``simulator.tiering`` is a mode string (``off``/``auto``/
    ``aggressive``) or a :class:`repro.sim.tiering.TierPolicy`; ``off``
    returns the engine unwrapped.
    """
    from repro.sim.tiering import TieredEngine, TierPolicy

    policy = TierPolicy.coerce(getattr(simulator, "tiering", "off"))
    if policy is None:
        return engine
    return TieredEngine(simulator, engine, policy)


class CompiledSimulator(Simulator):
    """Compiled simulator.

    ``cache`` accepts a :class:`repro.simcc.cache.SimulationCache`; when
    set, load-time simulation compilation is replaced by a cache lookup
    (compiling and storing on the first miss).  ``jobs`` fans a cold
    compile out over a worker pool (see :mod:`repro.simcc.parallel`).
    ``backend`` selects the execution backend -- ``python`` or
    ``native`` (see :data:`repro.sim.SIM_BACKENDS`).  ``tiering``
    enables adaptive tiered execution (see :mod:`repro.sim.tiering`):
    ``"auto"`` / ``"aggressive"`` (or a
    :class:`~repro.sim.tiering.TierPolicy`) promote profile-hot windows
    to richer representations mid-run.
    """

    def __init__(self, model, level="sequenced", cache=None, jobs=None,
                 observer=None, backend="python", tiering="off"):
        super().__init__(model, observer=observer)
        self._level = level
        self._simcc = generate_simulation_compiler(model, validate=False)
        self._cache = cache
        self._jobs = jobs
        self.backend = backend
        self.tiering = tiering
        self.table = None

    @property
    def kind(self):
        return "compiled" if self._level == "sequenced" else "unfolded"

    @property
    def level(self):
        return self._level

    @property
    def cache(self):
        return self._cache

    def _guard_target(self, engine):
        from repro.resilience.guard import TableGuardTarget

        return TableGuardTarget(self, engine)

    def _build_engine(self, program):
        # Simulation compilation happens here, at load time.
        self.table = build_simulation_table(self, program, jobs=self._jobs)
        engine = Pipeline(
            self.model, self.state, self.control,
            self.table.make_frontend(self.model),
        )
        return maybe_wrap_tiered(self, maybe_wrap_native(self, engine))
