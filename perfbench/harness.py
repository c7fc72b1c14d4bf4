"""Shared pieces of the benchmark: locating the sources, child processes,
the closed-loop driver, machine-speed scaling, set-up timing and the
end-to-end report."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"          # generated workspaces, span files (ignored by git)
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
SPEED_WINDOW = 5               # samples in the running median
SPEED_REF_NS = 700_000         # the in-process speed kernel's time on a quiet machine
SPAWN_REF_NS = 45_000_000      # a `python -c pass` process's wall time on a quiet machine


def require_sources():
    """Put src/ on the import path; refuse to run without finreg's sources."""
    if not (SRC / "finreg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no finreg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run a Python child from the checkout root; (exit code, stdout bytes, wall ns)."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout)
    return proc.returncode, proc.stdout, time.perf_counter_ns() - start


class Speed:
    """How fast the machine runs Python right now, relative to a quiet machine.

    On a shared machine identical work can take up to twice as long from one
    minute to the next.  A fixed probe that uses nothing of finreg, run
    between operations (outside their timing), tracks that drift; scaling each
    operation's time by the probe's quiet-machine time over the running median
    of its recent times removes most of it from the run-to-run spread, and no
    change to finreg can move it.  Work done in this process is tracked by a
    pure-Python kernel run in this process; work done in child processes by a
    `python -c pass` child, since the in-process kernel did not track it.
    """

    def __init__(self, probe, ref_ns, every_ns):
        self._probe, self._ref_ns, self._every_ns = probe, ref_ns, every_ns
        self._recent = deque(maxlen=SPEED_WINDOW)
        self._last = 0
        self.samples = []

    @classmethod
    def in_process(cls):
        return cls(_kernel_ns, SPEED_REF_NS, 20_000_000)

    @classmethod
    def in_children(cls):
        return cls(lambda: run_child(["-c", "pass"])[2], SPAWN_REF_NS, 500_000_000)

    def sample(self):
        """Run the probe, unless it ran less than `every_ns` ago."""
        if self._recent and time.perf_counter_ns() - self._last < self._every_ns:
            return
        ns = self._probe()
        self._recent.append(ns)
        self.samples.append(ns)
        self._last = time.perf_counter_ns()

    def scale(self):
        """Factor that turns a time measured now into one at the reference speed."""
        return self._ref_ns / median(self._recent)

    def median_scale(self):
        return self._ref_ns / median(self.samples)


def _kernel_ns():
    start = time.perf_counter_ns()
    table = {}
    for k in range(2000):
        key = (k & 63, k % 7)
        table[key] = table.get(key, 0) + k * k % 11
    return time.perf_counter_ns() - start


def time_setup(code):
    """Median wall time in seconds of a fresh interpreter running `code`,
    scaled to the reference speed."""
    speed = Speed.in_children()
    walls = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        rc, _, wall = run_child(["-c", code])
        if rc != 0:
            raise RuntimeError(f"set-up process failed with exit code {rc}")
        walls.append(wall * speed.scale() / 1e9)
    return median(walls)


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * pct // 100))
    return s[int(rank) - 1]


def peak_rss_mb(who):
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "finreg").glob("*.py")))


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts):
        for part in parts:
            self._h.update(str(part).encode())
            self._h.update(b"\x1f")

    def hexdigest(self):
        return self._h.hexdigest()


class Op:
    """One operation: `run` is timed, `check(result)` returns a failure reason or None."""

    __slots__ = ("kind", "key", "run", "check")

    def __init__(self, kind, key, run, check):
        self.kind, self.key, self.run, self.check = kind, key, run, check


class Outcome:
    """What the closed loop saw: per-operation latencies and failures."""

    def __init__(self):
        self.latencies_ns = []   # scaled to the reference speed
        self.kinds = {}
        self.failures = []       # (kind, key, reason)
        self.timed_ns = 0        # as measured
        self.scaled_ns = 0
        self.passes = 0

    def record(self, op, ns, scale, reason):
        self.latencies_ns.append(ns * scale)
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        self.timed_ns += ns
        self.scaled_ns += ns * scale
        if reason is not None:
            self.failures.append((op.kind, op.key, reason))


def run_op(op):
    """Time one operation, then check it; returns (ns, failure reason or None)."""
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raised counts as failed
        return time.perf_counter_ns() - start, f"raised {type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - start
    try:
        reason = op.check(out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return ns, reason


def closed_loop(make_pass, seconds, speed):
    """One client: run whole passes, each made before its timing starts, until
    at least `seconds` of operation time has been measured.  Operation times
    are scaled to the reference speed."""
    outcome = Outcome()
    while outcome.timed_ns < seconds * 1e9:
        ops = make_pass(outcome.passes)
        gc.collect()
        for op in ops:
            speed.sample()
            ns, reason = run_op(op)
            speed.sample()          # a long operation is scaled by the speed on both sides of it
            outcome.record(op, ns, speed.scale(), reason)
        outcome.passes += 1
    return outcome


def end_to_end(outcome, setup_s, rss_mb):
    lat_ms = [ns / 1e6 for ns in outcome.latencies_ns]
    n = len(lat_ms)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (n / (outcome.scaled_ns / 1e9), "ops/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "success_rate": ((n - len(outcome.failures)) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def emit(correct, attempted, failed, metrics, meta):
    """Human-readable lines, a `meta` line, then the result object last."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
