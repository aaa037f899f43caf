"""End-to-end benchmark: LISA model + assembly source -> verified result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 30 --trace 0

Workloads are ``cold-build``, ``long-run`` and ``service-mix`` (see
``README.md`` next to this file).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.  The line
before it carries the host provenance and the workload's measured
properties.  The exit code is 0 only when every request verified.

The set-up and the measured phase run in child processes of this
script, each from a fresh interpreter, so ``setup_s`` is the time from
process start to the first request being ready.  Every child gets a
private scratch directory for its caches and temporary files under
``.perfbench_run/`` and never the user's simulation cache.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_run")
TRACES = os.path.join(ROOT, ".perfbench_out")
PROTOCOL = "PERFBENCH "

#: Set-up samples per run (the reported setup_s is their median).
SETUP_SAMPLES = {"cold-build": 5, "long-run": 3, "service-mix": 3}
#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10
#: Wall-time ceiling of a whole run (children included), in seconds.
RUN_LIMIT = 170

END_TO_END = (
    ("setup_s", "s"), ("result_s_p50", "s"), ("result_s_tail", "s"),
    ("results_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("verified_share", "ratio"),
)

PER_LAYER = (
    ("lisa.compile_s", "s"),
    ("asm.assemble_s", "s"), ("asm.words", "count"),
    ("simcc.build_s", "s"), ("simcc.builds", "count"),
    ("simcc.insns_per_s", "1/s"),
    ("analysis.schedule_safety_s", "s"), ("analysis.absint_s", "s"),
    ("native.render_s", "s"), ("native.c_bytes", "B"),
    ("native.cc_s", "s"), ("native.cc_calls", "count"),
    ("native.dlopen_s", "s"), ("native.fallbacks", "count"),
    ("cache.lookup_s", "s"), ("cache.store_s", "s"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("sim.load_s", "s"), ("sim.run_s", "s"),
    ("sim.run_cycles_per_s", "1/s"), ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("tiering.promotions", "count"), ("tiering.demotions", "count"),
    ("tiering.cycles_to_native", "count"),
    ("tiering.native_cycle_share", "ratio"),
    ("service.queue_wait_s", "s"), ("service.job_s", "s"),
    ("service.worker_run_s", "s"), ("service.pump_s", "s"),
    ("service.checkpoints", "count"), ("service.attempts", "count"),
    ("service.retries", "count"), ("service.degradations", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def _emit(kind, payload):
    sys.stdout.write(PROTOCOL + json.dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


# -- child process -------------------------------------------------------


def _child(args):
    sys.path.insert(0, SRC)
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(measures=_measures())
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.workdir, tracer
    )
    try:
        workload.setup()
        _emit("ready", {})
        if args.role == "setup":
            return 0
        if isinstance(workload, workloads.ServiceMix):
            result = _measure_service(workload, args, tracer)
        else:
            result = _measure_closed_loop(workload, args, tracer)
        result["provenance"] = _provenance(workloads)
        _emit("result", result)
        if tracer is not None:
            os.makedirs(TRACES, exist_ok=True)
            tracer.dump(os.path.join(
                TRACES, "%s-seed%d.json" % (args.workload, args.seed)
            ))
        return 0
    finally:
        workload.teardown()


def _measure_closed_loop(workload, args, tracer):
    outcomes = []
    index = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        app = workload.app_for(index)
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.request = index
        outcomes.append(workload.request(app, traced))
        index += 1
    wall = time.perf_counter() - start
    return {
        "outcomes": [o.to_dict() for o in outcomes],
        "wall": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "properties": workload.properties(outcomes),
        "layers": (_closed_loop_layers(tracer, outcomes)
                   if tracer is not None else {}),
    }


def _measure_service(workload, args, tracer):
    outcomes, wall = workload.run(args.seconds, trace_slices=bool(tracer))
    peak = workload.worker_peak_rss_mb()
    capacity_problems = workload.measure_capacity()
    return {
        "outcomes": [o.to_dict() for o in outcomes],
        "wall": wall,
        "peak_rss_mb": peak,
        "properties": workload.properties(outcomes),
        "capacity_problems": capacity_problems,
        "capacity_jobs": workload.capacity_jobs,
        "layers": (_service_layers(tracer, outcomes)
                   if tracer is not None else {}),
    }


# -- per-layer reduction (traced run) -------------------------------------


def _measures():
    """What each traced call records besides its time."""
    from workloads import pmem_words

    return {
        "simcc.build_portable_table": lambda a, k, r: {
            "words": pmem_words(a[0], a[1])},
        "simcc.compile": lambda a, k, r: {
            "words": pmem_words(a[0].model, a[1])},
        "native.render": lambda a, k, r: {"bytes": len(r[0])},
        "native.build": lambda a, k, r: {"fallback": r is None},
    }


#: Per-layer time metric -> the spans whose self time it sums.
SELF_TIME = {
    "asm.assemble_s": ("asm.assemble_text",),
    "simcc.build_s": ("simcc.build_portable_table", "simcc.compile"),
    "analysis.schedule_safety_s": ("analysis.schedule_safety",),
    "analysis.absint_s": ("analysis.absint",),
    "native.render_s": ("native.render",),
    "native.cc_s": ("native.cc",),
    "native.dlopen_s": ("native.dlopen",),
    "cache.lookup_s": ("cache.load_table", "cache.load_portable",
                       "cache.load_or_build_portable",
                       "cache.load_native_artifact"),
    "cache.store_s": ("cache.store_portable", "cache.store_native_artifact"),
    "sim.load_s": ("sim.load_program",),
    "sim.run_s": ("sim.run",),
}
SIMCC_SPANS = ("simcc.build_portable_table", "simcc.compile")


def _new_layers(tracer):
    """Every per-layer metric at zero, plus the set-up's LISA time."""
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers["lisa.compile_s"] = sum(
        span.duration for span in tracer.spans
        if span.name == "lisa.compile_source" and span.request is None
        and span.end is not None
    )
    return layers


def _overhead(outcomes):
    """Traced over untraced median latency, minus one."""
    traced = [o.latency for o in outcomes if o.traced and not o.problem]
    plain = [o.latency for o in outcomes if not o.traced and not o.problem]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _closed_loop_layers(tracer, outcomes):
    """Per-request means over the traced requests (rates are ratios of
    sums; ``trace.unattributed_share`` is the request time no top-level
    span covers, over all request time)."""
    layers = _new_layers(tracer)
    chosen = [o for o in outcomes if o.traced]
    traced = {i for i, o in enumerate(outcomes) if o.traced}
    n = max(1, len(chosen))
    own = tracer.self_times()
    total, inclusive, calls, words = {}, {}, {}, {}
    for index, span in enumerate(tracer.spans):
        if span.request not in traced or span.end is None:
            continue
        name = span.name
        total[name] = total.get(name, 0.0) + own[index]
        inclusive[name] = inclusive.get(name, 0.0) + span.duration
        calls[name] = calls.get(name, 0) + 1
        attrs = span.attrs or {}
        words[name] = words.get(name, 0) + attrs.get("words", 0)
        layers["native.c_bytes"] += attrs.get("bytes", 0) / n
        layers["native.fallbacks"] += attrs.get("fallback", False) / n
    for metric, names in SELF_TIME.items():
        layers[metric] = sum(total.get(name, 0.0) for name in names) / n
    layers["asm.words"] = sum(o.extra.get("asm_words", 0)
                              for o in chosen) / n
    layers["simcc.builds"] = sum(calls.get(x, 0) for x in SIMCC_SPANS) / n
    simcc_time = sum(inclusive.get(x, 0.0) for x in SIMCC_SPANS)
    layers["simcc.insns_per_s"] = (
        sum(words.get(x, 0) for x in SIMCC_SPANS) / simcc_time
        if simcc_time else 0.0
    )
    layers["native.cc_calls"] = calls.get("native.cc", 0) / n
    hits = sum(o.extra.get("cache_delta", {}).get("hits", 0) for o in chosen)
    misses = sum(o.extra.get("cache_delta", {}).get("misses", 0)
                 for o in chosen)
    layers["cache.hits"] = hits / n
    layers["cache.misses"] = misses / n
    layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    cycles = sum(o.cycles for o in chosen)
    run_time = inclusive.get("sim.run", 0.0)
    layers["sim.cycles"] = cycles / n
    layers["sim.instructions"] = sum(o.instructions for o in chosen) / n
    layers["sim.run_cycles_per_s"] = cycles / run_time if run_time else 0.0
    for key in ("promotions", "demotions", "cycles_to_native",
                "native_cycle_share"):
        values = [o.extra[key] for o in chosen
                  if o.extra.get(key) is not None]
        if values:
            layers["tiering." + key] = sum(values) / len(values)
    request_time = inclusive.get("request", 0.0)
    layers["trace.unattributed_share"] = (
        total.get("request", 0.0) / request_time if request_time else 0.0
    )
    layers["trace.overhead_share"] = _overhead(outcomes)
    return layers


def _service_layers(tracer, outcomes):
    """Supervisor-side timings per job, worker-side ones from the
    result payloads; ``service.pump_s`` is the supervisor's time
    receiving worker messages while the tracer was in, per job
    submitted meanwhile."""
    from workloads import cache_hits, cache_misses

    layers = _new_layers(tracer)
    n = max(1, len(outcomes))
    layers["service.queue_wait_s"] = sum(
        o.extra["queue_wait"] for o in outcomes) / n
    layers["service.job_s"] = sum(o.extra["job_s"] for o in outcomes) / n
    layers["service.attempts"] = sum(
        o.extra["attempts"] for o in outcomes) / n
    layers["service.retries"] = sum(
        o.extra["attempts"] - 1 for o in outcomes)
    layers["service.degradations"] = sum(
        o.extra["degradations"] for o in outcomes)
    done = [o for o in outcomes if "worker_run_s" in o.extra]
    if done:
        m = len(done)
        run_s = sum(o.extra["worker_run_s"] for o in done)
        cycles = sum(o.cycles for o in done)
        layers["service.worker_run_s"] = layers["sim.run_s"] = run_s / m
        layers["service.checkpoints"] = sum(
            o.extra["checkpoints"] for o in done) / m
        layers["sim.cycles"] = cycles / m
        layers["sim.instructions"] = sum(o.instructions for o in done) / m
        layers["sim.run_cycles_per_s"] = cycles / run_s if run_s else 0.0
        hits = sum(cache_hits(o.extra["cache_stats"]) for o in done)
        misses = sum(cache_misses(o.extra["cache_stats"]) for o in done)
        layers["cache.hits"] = hits / m
        layers["cache.misses"] = misses / m
        layers["cache.hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
        spans = [o.extra["worker_spans"] for o in done]
        lookup = sum(w.get("cache.lookup", 0.0) + w.get("cache.bind", 0.0)
                     for w in spans)
        store = sum(w.get("cache.store", 0.0) for w in spans)
        build = sum(w.get("simcc.compile", 0.0) for w in spans)
        load = sum(w.get("sim.load", 0.0) for w in spans)
        layers["cache.lookup_s"] = lookup / m
        layers["cache.store_s"] = store / m
        layers["sim.load_s"] = (load - lookup - store - build) / m
    traced_jobs = sum(1 for o in outcomes if o.traced)
    layers["service.pump_s"] = sum(
        span.duration for span in tracer.spans
        if span.name == "service.recv" and span.end is not None
    ) / max(1, traced_jobs)
    layers["trace.overhead_share"] = _overhead(outcomes)
    return layers


def _provenance(workloads):
    cc, identity = workloads.native_host()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "cc": cc,
        "compiler_identity": identity,
        "native_results": cc is not None,
        "python": sys.version.split()[0],
    }


# -- parent process ------------------------------------------------------


def _git_revision():
    """HEAD of the repository at ROOT, or None outside a git checkout
    (git may not look above ROOT for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_digest():
    """SHA-256 over the program's source tree (names and contents)."""
    digest = hashlib.sha256()
    paths = sorted(
        os.path.join(folder, name)
        for folder, _, files in os.walk(SRC)
        for name in files if name.endswith((".py", ".lisa"))
    )
    for path in paths:
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _spawn(args, role, workdir, deadline):
    """Run one child, killed at the ``perf_counter`` time ``deadline``;
    returns ``(seconds from start to ready, result payload)``."""
    os.makedirs(os.path.join(workdir, "tmp"))
    guard = os.path.join(workdir, "default-cache")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        # anything falling back to the default cache lands here, which
        # the parent then reports as an isolation failure
        "REPRO_CACHE_DIR": guard,
        "TMPDIR": os.path.join(workdir, "tmp"),
    })
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    messages = {}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        for line in _lines(proc, deadline):
            if line.startswith(PROTOCOL):
                message = json.loads(line[len(PROTOCOL):])
                messages[message.pop("kind")] = (time.perf_counter(),
                                                 message)
        code = proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s child overran its deadline" % role) from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or "ready" not in messages:
        raise ChildFailed("%s child exited %s" % (role, code))
    if os.path.exists(guard):
        raise ChildFailed("%s child wrote the default cache directory"
                          % role)
    result = messages.get("result", (None, None))[1]
    if role == "measure" and result is None:
        raise ChildFailed("measure child sent no result")
    return messages["ready"][0] - start, result


def _lines(proc, deadline):
    """The child's stdout lines, killing it at ``deadline``."""
    import selectors

    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise ChildFailed("child overran its deadline")
            if selector.select(timeout=left):
                line = proc.stdout.readline()
                if not line:
                    return
                yield line
    finally:
        selector.close()


class ChildFailed(Exception):
    pass


def _tail(latencies):
    """``(value, percentile, samples beyond)``: the highest percentile
    with TAIL_BEYOND samples beyond it, or the maximum when the run
    holds too few samples for that."""
    ordered = sorted(latencies)
    if not ordered:
        return 0.0, 0.0, 0
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0, 0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), TAIL_BEYOND


def _orchestrate(args):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s" % SRC,
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=SCRATCH)
    samples = []
    deadline = time.perf_counter() + RUN_LIMIT
    try:
        count = 1 if args.trace else SETUP_SAMPLES[args.workload]
        for number in range(count):
            role = "measure" if number == count - 1 else "setup"
            setup_s, result = _spawn(
                args, role, os.path.join(run_dir, "child%d" % number),
                deadline,
            )
            samples.append(setup_s)
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    outcomes = result["outcomes"]
    problems = [o["problem"] for o in outcomes if o["problem"]]
    problems += result.get("capacity_problems", [])
    failed = len(problems)
    attempted = len(outcomes) + result.get("capacity_jobs", 0)
    verified = [o["latency"] for o in outcomes if not o["problem"]]
    tail, percentile, beyond = _tail(verified)
    layers = result["layers"]
    attribution_ok = True
    if args.trace and args.workload != "service-mix":
        attribution_ok = layers["trace.unattributed_share"] <= 0.05
        if not attribution_ok:
            problems.append("top-level spans cover under 95%% of request "
                            "time (%.1f%% unattributed)"
                            % (100 * layers["trace.unattributed_share"]))
    provenance = dict(result["provenance"], git_revision=_git_revision(),
                      source_digest=_source_digest())
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance,
        "properties": result["properties"],
        "tail": {"percentile": percentile, "samples": len(verified),
                 "beyond": beyond},
        "setup_samples_s": samples,
        "latency_quartiles_s": (statistics.quantiles(verified, n=4)
                                if len(verified) > 1 else verified),
        "problems": problems[:20],
    }
    if not provenance["native_results"]:
        print("perfbench: no C compiler on this host; results are NOT "
              "native-backend results", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(samples),
            "result_s_p50": statistics.median(verified) if verified else 0.0,
            "result_s_tail": tail,
            "results_per_s": len(verified) / result["wall"],
            "peak_rss_mb": result["peak_rss_mb"],
            "verified_share": (attempted - failed) / max(1, attempted),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = failed == 0 and attribution_ok
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is not None:
        return _child(args)
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
