"""The benchmark's workloads: seeded inputs, set-up and one request each.

A *request* takes one program from assembly source to a golden-verified
result.  Every request is checked three ways, and any miss counts it as
failed, not slow: the application's golden model (``app.verify`` or,
for service jobs, the expected memory dumps), the exact simulated cycle
and instruction counts in ``expected_counts.json``, and the absence of
a silent downgrade (native fallback on a host with a C compiler,
service retry, degradation or quarantine).

Why each workload exists, and which layer changes should leave it
unchanged, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

#: cold-build: program words per distinct GSM program.
COLD_WORDS = 256
#: long-run: the FIR re-run by every request (about 2.9M cycles).
LONG_TAPS, LONG_SAMPLES = 128, 1500
#: service-mix: offered jobs per second per worker (about 40% of the
#: measured capacity of a 2-worker pool on a 2-core host).
SERVICE_RATE_PER_WORKER = 3.0
#: service-mix: distinct seeded programs per job type in the pool.
SERVICE_VARIANTS = 2
#: service-mix: jobs in the closed batch that measures pool capacity.
CAPACITY_JOBS = 20

#: Shape name -> (model, builder of the application from an app seed).
#: Simulated counts depend on the shape only (fixed trip counts,
#: branch-free kernels); ``record_counts.py`` re-checks that per seed.
SHAPES = {
    "gsm-c62x-w%d" % COLD_WORDS: (
        "c62x",
        lambda s: _apps().build_gsm("c62x", seed=s, target_words=COLD_WORDS),
    ),
    "fir-c62x-t%d-s%d" % (LONG_TAPS, LONG_SAMPLES): (
        "c62x",
        lambda s: _apps().build_fir("c62x", taps=LONG_TAPS,
                                    samples=LONG_SAMPLES, seed=s),
    ),
    "fir-c62x-t16-s64": (
        "c62x", lambda s: _apps().build_fir("c62x", 16, 64, seed=s),
    ),
    "fir-tinydsp-t16-s64": (
        "tinydsp", lambda s: _apps().build_fir("tinydsp", 16, 64, seed=s),
    ),
    "fir-c54x-t16-s48": (
        "c54x", lambda s: _apps().build_fir("c54x", 16, 48, seed=s),
    ),
    "adpcm-c62x-s64": (
        "c62x", lambda s: _apps().build_adpcm("c62x", samples=64, seed=s),
    ),
}
COLD_SHAPE = "gsm-c62x-w%d" % COLD_WORDS
LONG_SHAPE = "fir-c62x-t%d-s%d" % (LONG_TAPS, LONG_SAMPLES)
SERVICE_SHAPES = ("fir-c62x-t16-s64", "fir-tinydsp-t16-s64",
                  "fir-c54x-t16-s48", "adpcm-c62x-s64", COLD_SHAPE)


def _apps():
    import repro.apps

    return repro.apps


def app_seed(run_seed, index):
    """The application seed of input ``index`` of run ``run_seed``.

    Consecutive indices differ by two because the GSM builder also uses
    ``seed + 1`` (for its filler code)."""
    return 1 + (run_seed * 1_000_003 + 2 * index) % (1 << 30)


def build_app(shape, seed):
    return SHAPES[shape][1](seed)


def load_expected_counts():
    with open(os.path.join(HERE, "expected_counts.json"),
              encoding="utf-8") as handle:
        return json.load(handle)["shapes"]


def native_host():
    """``(cc path, compiler identity)``, or ``(None, None)`` without cc."""
    from repro.simcc.native import toolchain

    cc = toolchain.find_compiler()
    if cc is None:
        return None, None
    return cc, toolchain.compiler_identity(cc)


def pmem_words(model, program):
    return sum(len(segment.words) for segment in
               program.segments_in(model.config.program_memory))


def execute_packets(model, program):
    """``{(pc, words), ...}``: the program's canonical execute packets."""
    from repro.machine.packets import packet_extent

    packets = set()
    for segment in program.segments_in(model.config.program_memory):
        words = segment.words
        base, limit = segment.base, segment.end
        pc = base
        while pc < limit:
            extent = packet_extent(
                model, lambda a: words[a - base], pc, limit
            )
            packets.add((pc, tuple(words[pc - base:pc + extent - base])))
            pc += extent
    return packets


class Outcome:
    """One request: its latency, verdict and what the checks saw."""

    def __init__(self, latency, problem=None, cycles=0, instructions=0,
                 traced=False, extra=None):
        self.latency = latency
        self.problem = problem
        self.cycles = cycles
        self.instructions = instructions
        self.traced = traced
        self.extra = extra or {}

    def to_dict(self):
        return {
            "latency": self.latency, "problem": self.problem,
            "cycles": self.cycles, "instructions": self.instructions,
            "traced": self.traced, "extra": self.extra,
        }


def cache_hits(stats):
    return (stats.get("memory_hits", 0) + stats.get("disk_hits", 0)
            + stats.get("native_hits", 0))


def cache_misses(stats):
    return stats.get("misses", 0) + stats.get("native_misses", 0)


def _counts_problem(expected, shape, cycles, instructions):
    want = expected[shape]
    if (cycles, instructions) != (want["cycles"], want["instructions"]):
        return ("simulated counts %d cycles / %d instructions, expected "
                "%d / %d" % (cycles, instructions, want["cycles"],
                             want["instructions"]))
    return None


class InProcessWorkload:
    """A closed-loop client running each request in this process."""

    name = None
    shape = None
    kind = "unfolded_static"
    options = {}

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.expected = load_expected_counts()
        self.cc = None
        self.tools = None
        self.cache = None

    def setup(self):
        from repro.api import build_toolset, load_model
        from repro.simcc.cache import SimulationCache

        model_name = SHAPES[self.shape][0]
        if self.tracer is not None:
            self.tracer.install()
        try:
            model = load_model(model_name)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.tools = build_toolset(model)
        self.tools.assembler  # noqa: B018 -- generated on first access
        self.cc, _ = native_host()
        self.cache = SimulationCache(os.path.join(self.workdir, "cache"))

    def app_for(self, index):
        raise NotImplementedError

    def request(self, app, traced):
        """Source -> verified result for ``app``; returns an Outcome."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
        before = dict(self.cache.stats)
        start = time.perf_counter()
        try:
            with _region(tracer, "request"):
                program = self.tools.assembler.assemble_text(
                    app.source, name=app.name
                )
                with _region(tracer, "sim.create"):
                    sim = self.tools.new_simulator(
                        self.kind, cache=self.cache, **self.options
                    )
                sim.load_program(program)
                stats = sim.run(app.max_cycles)
                with _region(tracer, "verify"):
                    app.verify(sim.state)
                    problem = _counts_problem(self.expected, self.shape,
                                              stats.cycles,
                                              stats.instructions)
                    extra = self.inspect(sim, stats)
                    problem = problem or extra.pop("problem", None)
        except Exception as exc:  # a failed request must not end the run
            traceback.print_exc()
            return Outcome(time.perf_counter() - start,
                           problem="%s: %s" % (type(exc).__name__, exc),
                           traced=traced)
        finally:
            if tracer is not None:
                tracer.uninstall()
        latency = time.perf_counter() - start
        after = self.cache.stats
        extra["asm_words"] = pmem_words(self.tools.model, program)
        extra["cache_delta"] = {
            "hits": cache_hits(after) - cache_hits(before),
            "misses": cache_misses(after) - cache_misses(before),
        }
        outcome = Outcome(latency, problem, stats.cycles,
                          stats.instructions, traced, extra)
        self.observe(program, outcome)
        return outcome

    def inspect(self, sim, stats):
        """Workload-specific checks and records, inside the request."""
        return {}

    def observe(self, program, outcome):
        """Workload properties, recorded after the request's clock."""

    def properties(self, outcomes):
        return {}

    def teardown(self):
        pass


def _region(tracer, name):
    return tracer.region(name) if tracer is not None \
        else contextlib.nullcontext()


class ColdBuild(InProcessWorkload):
    """Distinct seeded GSM programs, native backend, one cold cache."""

    name = "cold-build"
    shape = COLD_SHAPE
    options = {"backend": "native"}

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self._previous = None
        self._shares = []

    def app_for(self, index):
        return build_app(self.shape, app_seed(self.seed, index))

    def inspect(self, sim, stats):
        from repro.simcc.native import NativePipeline

        engine = sim.engine
        native = isinstance(engine, NativePipeline)
        extra = {"native": native}
        if self.cc is not None and not native:
            extra["problem"] = "native fallback on a host with a C compiler"
        return extra

    def observe(self, program, outcome):
        """Share of execute packets identical (same address, same
        words) to the previous program's -- what a per-window cache
        could reuse between consecutive requests."""
        packets = execute_packets(self.tools.model, program)
        if self._previous is not None and packets:
            self._shares.append(len(packets & self._previous) / len(packets))
        self._previous = packets

    def properties(self, outcomes):
        shares = self._shares
        return {
            "identical_packet_share": (sum(shares) / len(shares)
                                       if shares else None),
            "program_pairs": len(shares),
            "program_words": COLD_WORDS,
        }


class LongRun(InProcessWorkload):
    """One seeded large FIR re-run under adaptive tiering, warm cache."""

    name = "long-run"
    shape = LONG_SHAPE
    options = {"tiering": "auto"}

    def setup(self):
        super().setup()
        self.app = build_app(self.shape, app_seed(self.seed, 0))
        warm = self.request(self.app, traced=False)
        if warm.problem is not None:
            raise RuntimeError("cache warm-up failed: %s" % warm.problem)

    def app_for(self, index):
        return self.app

    def inspect(self, sim, stats):
        manager = sim.tier_manager
        events = manager.timeline_report()["events"] if manager else []
        promotions = [e for e in events if e["action"] == "promote"]
        native = [e["cycle"] for e in promotions if e["tier"] == "native"]
        aborts = [e for e in events if e["action"] == "abort"]
        counts = getattr(sim.engine.inner, "dispatch_counts", None) or {}
        extra = {
            "promotions": len(promotions),
            "demotions": sum(1 for e in events if e["action"] == "demote"),
            "aborts": len(aborts),
            "cycles_to_native": min(native) if native else None,
            "native_cycle_share": (counts.get("native_cycles", 0)
                                   / stats.cycles if stats.cycles else 0.0),
        }
        if self.cc is not None and (aborts or not native):
            extra["problem"] = ("tiering fell back: %d aborted build(s), "
                                "%d native promotion(s)"
                                % (len(aborts), len(native)))
        return extra

    def properties(self, outcomes):
        shares = [o.extra["native_cycle_share"] for o in outcomes
                  if "native_cycle_share" in o.extra]
        return {
            "native_cycle_share": (sum(shares) / len(shares)
                                   if shares else None),
            "cycles_per_request": self.expected[self.shape]["cycles"],
        }


class ServiceMix:
    """Open-loop job arrivals at a fixed rate into a supervised pool."""

    name = "service-mix"

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.expected = load_expected_counts()
        self.workers = os.cpu_count() or 1
        self.rate = SERVICE_RATE_PER_WORKER * self.workers
        self.pool = None
        self.capacity = None
        self.capacity_jobs = CAPACITY_JOBS

    def setup(self):
        from repro.api import build_toolset, load_model
        from repro.service import ServicePolicy, Supervisor
        from repro.service.chaos import build_app_spec

        models = sorted({SHAPES[shape][0] for shape in SERVICE_SHAPES})
        if self.tracer is not None:
            self.tracer.install()
        try:
            tools = {name: build_toolset(load_model(name))
                     for name in models}
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        # the pool: SERVICE_VARIANTS seeded programs per job type,
        # assembled once by the client; every job reuses one of them
        self.entries = []
        for variant in range(SERVICE_VARIANTS):
            for number, shape in enumerate(SERVICE_SHAPES):
                app = build_app(shape, app_seed(
                    self.seed, variant * len(SERVICE_SHAPES) + number))
                spec = build_app_spec(app, tools[SHAPES[shape][0]],
                                      name="%s-v%d" % (shape, variant))
                self.entries.append((shape, app, spec))
        self.pool = Supervisor(
            workers=self.workers,
            cache_dir=os.path.join(self.workdir, "cache"),
            policy=ServicePolicy(heartbeat_timeout=60.0),
        )
        # warm the shared cache: every pool program once
        ids = [self.pool.submit(spec) for _, _, spec in self.entries]
        self.pool.drain(timeout=120, poll=0.005)
        for job_id, entry in zip(ids, self.entries):
            problem = self._check(job_id, entry)
            if problem is not None:
                raise RuntimeError("cache warm-up failed: %s" % problem)

    def _schedule(self, count):
        """Job type order: blocks holding each type once, shuffled by
        the seed, so every run offers the same mix."""
        rng = random.Random(self.seed)
        order = []
        while len(order) < count:
            block = list(range(len(SERVICE_SHAPES)))
            rng.shuffle(block)
            for number in block:
                variant = rng.randrange(SERVICE_VARIANTS)
                order.append(variant * len(SERVICE_SHAPES) + number)
        return order[:count]

    def _check(self, job_id, entry):
        shape, app, _ = entry
        status = self.pool.status(job_id)
        if status["state"] != "completed":
            return "job %s ended %s (%s)" % (job_id, status["state"],
                                             status.get("cause"))
        if status["attempt"] != 1:
            return "job %s retried (%d attempts)" % (job_id,
                                                     status["attempt"])
        if status["degradations"]:
            return "job %s degraded: %r" % (job_id, status["degradations"])
        result = self.pool.result(job_id)
        for memory, base, values in result["memory"]:
            for offset, value in enumerate(values):
                want = app.expected.get(memory, {}).get(base + offset)
                if want is not None and want != value:
                    return "job %s: %s[%d] = %d, expected %d" % (
                        job_id, memory, base + offset, value, want)
        stats = result["stats"]
        return _counts_problem(self.expected, shape, stats["cycles"],
                               stats["instructions"])

    def run(self, seconds, trace_slices=False):
        """The open loop.  Latency runs from each job's due time; with
        ``trace_slices`` the tracer is in for odd one-second slices."""
        pool = self.pool
        planned = max(1, int(seconds * self.rate))
        order = self._schedule(planned)
        records = []
        inflight = {}
        start = time.perf_counter()
        submitted = 0
        tracer = self.tracer if trace_slices else None
        while submitted < planned or inflight:
            now = time.perf_counter()
            if tracer is not None:
                want = int(now - start) % 2 == 1 and submitted < planned
                if want != tracer.installed:
                    (tracer.install if want else tracer.uninstall)()
            while submitted < planned and \
                    start + submitted / self.rate <= now:
                entry = self.entries[order[submitted]]
                due = start + submitted / self.rate
                job_id = pool.submit(entry[2])
                record = {
                    "entry": entry, "job": job_id, "due": due,
                    "submitted": time.perf_counter(), "dispatched": None,
                    "done": None,
                    "traced": bool(tracer and tracer.installed),
                }
                records.append(record)
                inflight[job_id] = record
                submitted += 1
            next_due = start + submitted / self.rate
            wait = 0.005
            if submitted < planned:
                wait = max(0.0, min(wait, next_due - time.perf_counter()))
            pool.pump(wait)
            seen = time.perf_counter()
            for job_id in list(inflight):
                record = inflight[job_id]
                state = pool.status(job_id)["state"]
                if record["dispatched"] is None and state != "pending":
                    record["dispatched"] = seen
                if state in ("completed", "failed", "cancelled"):
                    record["done"] = seen
                    del inflight[job_id]
        wall = time.perf_counter() - start
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        return [self._outcome(record) for record in records], wall

    def _outcome(self, record):
        job_id = record["job"]
        shape = record["entry"][0]
        problem = self._check(job_id, record["entry"])
        status = self.pool.status(job_id)
        extra = {
            "shape": shape,
            "lateness": record["submitted"] - record["due"],
            "queue_wait": (record["dispatched"] or record["done"])
            - record["submitted"],
            "job_s": record["done"] - (record["dispatched"]
                                       or record["submitted"]),
            "attempts": status["attempt"],
            "degradations": len(status["degradations"]),
        }
        cycles = instructions = 0
        if status["state"] == "completed":
            result = self.pool.result(job_id)
            stats = result["stats"]
            cycles, instructions = stats["cycles"], stats["instructions"]
            extra["worker_run_s"] = stats.get("wall_seconds") or 0.0
            extra["checkpoints"] = (result["metrics"].get("counters") or {}
                                    ).get("resilience.checkpoints", 0)
            extra["cache_stats"] = result.get("cache_stats") or {}
            # phase spans the worker's own counters observer recorded
            extra["worker_spans"] = {
                name[len("span."):]: hist["total"]
                for name, hist in (result["metrics"].get("histograms")
                                   or {}).items()
                if name.startswith("span.")
            }
        return Outcome(record["done"] - record["due"], problem, cycles,
                       instructions, record["traced"], extra)

    def measure_capacity(self):
        """Jobs/s of the pool on a closed batch of the same mix."""
        order = self._schedule(CAPACITY_JOBS)
        start = time.perf_counter()
        ids = [self.pool.submit(self.entries[i][2]) for i in order]
        self.pool.drain(timeout=120, poll=0.005)
        wall = time.perf_counter() - start
        problems = [self._check(job_id, self.entries[i])
                    for job_id, i in zip(ids, order)]
        self.capacity = len(ids) / wall
        return [p for p in problems if p is not None]

    def worker_peak_rss_mb(self):
        """Largest peak resident set among the live workers."""
        import multiprocessing

        peaks = []
        for child in multiprocessing.active_children():
            try:
                with open("/proc/%d/status" % child.pid,
                          encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peaks.append(int(line.split()[1]) / 1024.0)
            except OSError:
                continue
        return max(peaks) if peaks else None

    def properties(self, outcomes):
        cycles = sorted(o.cycles for o in outcomes if o.cycles)
        lateness = sorted(o.extra["lateness"] for o in outcomes)
        by_shape = {}
        for o in outcomes:
            by_shape.setdefault(o.extra["shape"], o.cycles)
        return {
            "workers": self.workers,
            "offered_jobs_per_s": self.rate,
            "capacity_jobs_per_s": self.capacity,
            "offered_over_capacity": (self.rate / self.capacity
                                      if self.capacity else None),
            "cycles_per_job": {
                "min": cycles[0] if cycles else None,
                "p50": cycles[len(cycles) // 2] if cycles else None,
                "max": cycles[-1] if cycles else None,
                "by_shape": by_shape,
            },
            "generator_lateness_s": {
                "p50": lateness[len(lateness) // 2] if lateness else None,
                "max": lateness[-1] if lateness else None,
            },
        }

    def teardown(self):
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None


WORKLOADS = {cls.name: cls for cls in (ColdBuild, LongRun, ServiceMix)}
