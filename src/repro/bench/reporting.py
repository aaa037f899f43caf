"""Experiment-report output for the benchmark suite.

pytest captures stdout, so each experiment writes its table both to
stdout (visible with ``pytest -s``) and to ``benchmarks/results/<exp>.txt``
so the regenerated figures survive a quiet run.  Headline machine-
readable results (``BENCH_*.json``) go through :func:`publish_json`,
which writes them next to the tables in ``benchmarks/results/``,
stamped with the host they were measured on (:func:`provenance`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def results_dir():
    base = os.environ.get("REPRO_RESULTS_DIR")
    if base is None:
        base = os.path.join(os.getcwd(), "benchmarks", "results")
    os.makedirs(base, exist_ok=True)
    return base


def _git_revision():
    """HEAD of the checkout this package runs from, or None."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance():
    """The host a result was measured on, under the keys the
    end-to-end benchmark records: core count and affinity, the C
    compiler and its identity (None without one), the Python version
    and the git revision."""
    from repro.simcc.native import toolchain

    cc = toolchain.find_compiler()
    identity = None
    if cc is not None:
        try:
            identity = toolchain.compiler_identity(cc)
        except toolchain.NativeToolchainError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "cc": cc,
        "compiler_identity": identity,
        "python": sys.version.split()[0],
        "git_revision": _git_revision(),
    }


def publish_json(name, payload):
    """Write a headline ``BENCH_*.json`` result into :func:`results_dir`
    (the one copy CI uploads), with a ``provenance`` block; returns its
    path."""
    path = os.path.join(results_dir(), name)
    payload = dict(payload, provenance=provenance())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    return path


class ExperimentReport:
    """Collects and emits one experiment's rows."""

    def __init__(self, experiment_id, title, paper_note=""):
        self.experiment_id = experiment_id
        self.title = title
        self.paper_note = paper_note
        self.lines = []

    def add(self, line):
        self.lines.append(line)

    def add_row(self, **fields):
        self.lines.append(
            "  ".join("%s=%s" % (k, _fmt(v)) for k, v in fields.items())
        )

    def emit(self):
        header = "== %s: %s ==" % (self.experiment_id, self.title)
        body = [header]
        if self.paper_note:
            body.append("paper: %s" % self.paper_note)
        body.extend(self.lines)
        text = "\n".join(body) + "\n"
        print("\n" + text)
        path = os.path.join(
            results_dir(), "%s.txt" % self.experiment_id.lower()
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text


def _fmt(value):
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)
