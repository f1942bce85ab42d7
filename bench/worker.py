"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py WORKLOAD SEED MODE      # MODE: 0 timed, 1 traced, setup

``run.py`` starts one of these per pass, so every pass starts with cold
caches, as a command-line user's does.  The pass runs the workload's ops one
after another through ``opstats.cli.main`` (one client, closed loop), with
stdout and stderr captured, and checks each op's output.

The host's speed swings by up to 1.6x for seconds or minutes at a time, as
other tenants load the shared cores.  A timed pass therefore samples the
CPU's current speed every ``PROBE_PERIOD_S`` with a fixed loop of the
benchmark's own (``probe``), subtracts the probes from the op latencies, and
scales each latency by ``PROBE_REF_S`` over the mean probe time around it:
timings are seconds at the speed at which the probe takes ``PROBE_REF_S``,
about that of an uncontended core.  Rating each op by the probes near it,
not the pass by all of them, keeps single op latencies steady when the speed
changes within a pass.  The unscaled figures are reported beside them as
``raw_*``.  Traced passes report unscaled span times; they are probed only
before and after the pass, to scale the wall time that ``trace.overhead``
compares.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

PROBE_LOOPS = 3_000
PROBE_REF_S = 0.0042
PROBE_PERIOD_S = 0.1
#: Probes this close to an op, in seconds, rate the speed it ran at.
PROBE_WINDOW_S = 0.25

_TABLE = dict.fromkeys(range(1024), 0)


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Seconds for a fixed loop of dict updates and small-object calls.

    Together the two slow down under contention about as much as the
    workloads do; each object dies at once, so the probe never triggers a
    garbage collection of the program's objects."""
    d = _TABLE
    start = perf_counter()
    for i in range(PROBE_LOOPS):
        for j in range(i, i + 5):
            d[j & 1023] = j ^ d[(j * 7) & 1023]
        c = _Cell(i, d[i & 1023])
        d[i & 1023] = c.a ^ c.b
    return perf_counter() - start


def reference_scale(durations: list[float]) -> float:
    """Reference over measured speed, from probe durations."""
    return PROBE_REF_S * len(durations) / sum(durations)


class SpeedClock:
    """Probes the CPU speed on a timer signal while a pass runs."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t = perf_counter()
        d = probe()
        self.times.append(t)
        self.durations.append(d)
        self.spent += d

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured speed for work done between t0 and t1."""
        lo = bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        if lo == hi:  # no probe near: take the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return reference_scale(self.durations[lo:hi])


def call(main, argv: list[str], clock: SpeedClock | None = None):
    """Run one command; returns (exit code, stdout, start, seconds), the
    seconds net of any probe that ran during the call."""
    out, err = io.StringIO(), io.StringIO()
    probed = clock.spent if clock is not None else 0.0
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a harness error
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            rc = -1
    secs = perf_counter() - start
    if clock is not None:
        secs -= clock.spent - probed
    return rc, out.getvalue(), start, secs


def run_ops(cli, ops, clock: SpeedClock | None = None) -> dict:
    """Run ``ops`` in order; a follow-up op runs after a passing parent.
    Latencies are scaled to the reference speed when ``clock`` is given."""
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    for op in ops:
        while op is not None:
            rc, out, start, secs = call(cli.main, op.argv, clock)
            spans.append((start, secs))
            try:
                problem = op.check(rc, out)
            except Exception as exc:  # output the check cannot parse
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"{' '.join(op.argv)}: {problem}")
            op = op.then(out) if op.then is not None and problem is None else None
    raw = [secs for _, secs in spans]
    latencies = raw if clock is None else [secs * clock.scale(t, t + secs) for t, secs in spans]
    return {"latencies": latencies, "raw_latencies": raw, "raw_wall_s": sum(raw),
            "failures": failures}


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    before = [probe() for _ in range(5)]
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import opstats.cli as cli

    from workloads import WORKLOADS

    ops = WORKLOADS[workload](seed)
    setup_raw = perf_counter() - start
    result = {"setup_s": setup_raw * reference_scale(before + [probe() for _ in range(5)]),
              "raw_setup_s": setup_raw}
    if mode == "0":
        with SpeedClock() as clock:
            result.update(run_ops(cli, ops, clock))
    elif mode == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        speed = [probe() for _ in range(5)]
        result.update(run_ops(cli, ops))
        result["layers"] = tracer.metrics(result["raw_wall_s"])
        # probed around the pass only, so that no probe lands in a span
        speed += [probe() for _ in range(5)]
        result["scaled_wall_s"] = result["raw_wall_s"] * reference_scale(speed)
    if mode != "setup":
        result["wall_s"] = sum(result["latencies"])
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
