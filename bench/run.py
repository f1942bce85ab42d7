"""The opstats benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {sweep,symbolic,query} --seed N --seconds S --trace {0,1}

Each pass of the workload runs in a fresh interpreter (``worker.py``), one
after another, until the next pass would end after ``--seconds``; at least
one pass always runs.  Timings are scaled to a reference CPU speed by the
worker's speed probe, and each is the median over the run's passes.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: one pass over the workload's ops (time inside ``cli.main``);
* ``setup_s``: ``import opstats.cli`` plus input generation in a fresh
  process, measured in every pass and in ``SETUP_PROBES`` extra processes;
* ``peak_rss_mb``: peak resident size of a pass's process;
* ``query_p50_ms``, ``query_p99_ms``: latency of one ``cli.main`` call, the
  median over the run's passes of each pass's percentile (on ``sweep`` and
  ``symbolic`` the calls are the workload's few long ops).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``, unscaled; ``trace.overhead`` is the
speed-scaled traced over untraced ``wall_s``.

The last stdout line is the result object; the line before it carries the
machine facts, the pass count, ``failed_frac`` and the unscaled timings.  The run exits 2 without
a result when the opstats sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload: str, seed: int, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} pass exited {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> dict:
    """Passes cycling through ``modes`` until the next would overrun."""
    setups = [run_pass(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    start = perf_counter()
    longest = 0.0
    while True:
        for m in modes:
            t0 = perf_counter()
            passes[m].append(run_pass(workload, seed, m))
            longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest * len(modes) > seconds:
            break
    for ps in passes.values():
        setups += ps
    return {"setups": setups, "passes": passes}


def timings(data: dict, prefix: str = "") -> dict:
    """Median timings of the untraced passes; ``prefix="raw_"`` gives the
    unscaled ones."""
    ps = data["passes"]["0"]
    lat_ms = [[s * 1000 for s in p[prefix + "latencies"]] for p in ps]
    return {
        "wall_s": statistics.median(p[prefix + "wall_s"] for p in ps),
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in data["setups"]),
        "query_p50_ms": statistics.median(statistics.median(lat) for lat in lat_ms),
        "query_p99_ms": statistics.median(
            statistics.quantiles(lat, n=100, method="inclusive")[98] for lat in lat_ms),
    }


def end_to_end(data: dict) -> dict:
    t = timings(data)
    return {
        "wall_s": (t["wall_s"], "s"),
        "setup_s": (t["setup_s"], "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in data["passes"]["0"]), "MB"),
        "query_p50_ms": (t["query_p50_ms"], "ms"),
        "query_p99_ms": (t["query_p99_ms"], "ms"),
    }


def per_layer(data: dict) -> dict:
    """The metrics of the traced pass with the median wall time, so that its
    self times add up to its wall time."""
    traced = sorted(data["passes"]["1"], key=lambda p: p["raw_wall_s"])
    layers = traced[(len(traced) - 1) // 2]["layers"]
    out = {name: (value, layer_unit(name)) for name, value in layers.items()}
    traced_wall = statistics.median(p["scaled_wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in data["passes"]["0"])
    out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("per_distinct"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opstats" / "cli.py").is_file():
        print(f"error: opstats sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    modes = ("0", "1") if args.trace else ("0",)
    data = measure(args.workload, args.seed, args.seconds, modes)
    all_passes = [p for ps in data["passes"].values() for p in ps]
    attempted = sum(len(p["latencies"]) for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = per_layer(data) if args.trace else end_to_end(data)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {m: len(ps) for m, ps in data["passes"].items()},
        "ops_per_pass": len(data["passes"]["0"][0]["latencies"]),
        "raw": timings(data, "raw_"),
        "failed_frac": len(failures) / attempted,
        "machine": machine_facts(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
