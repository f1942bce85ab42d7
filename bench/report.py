"""Run every workload through ``run.py`` and summarize.

    python3 bench/report.py baseline
    python3 bench/report.py steadiness

Every run measures for ``run_seconds`` of ``BENCHMARK.json``.

``baseline`` runs each workload once untraced and twice traced with seed
``SEED``, prints every metric with its unit and the failure fraction, checks
the result's metric names and units, the repeat of counts and the sum of self
times, and writes ``bench/results/baseline.json``.

``steadiness`` runs each workload ``SEEDS`` times per set with a new seed
each time, in ``SETS`` sets.  For every end-to-end metric it reports each
set's median and the spread between its first and third quartile as a share
of the median, the share by which a later set's median is worse than the
first's, and whether both stay within the metric's bound in
``BENCHMARK.json``.  The same figures of the unscaled timings are reported
beside them, unchecked.  It writes ``bench/results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SEED = 1
SEEDS = 10
SETS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec()["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, info, result = proc.stdout.strip().splitlines()
    return {**json.loads(info)["info"], **json.loads(result)}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def baseline() -> int:
    """One untraced and two traced runs per workload; checks that the result
    names exactly the metrics of ``BENCHMARK.json`` with their units, that
    counts repeat between the traced runs, and that self times add up to the
    traced wall."""
    declared = {kind: {m["name"]: m["unit"] for m in spec()[kind]}
                for kind in ("end_to_end", "per_layer")}
    out, ok = {}, True
    for w in WORKLOADS:
        untraced = run(w, SEED, 0)
        traced = [run(w, SEED, 1) for _ in range(2)]
        a, b = (t["metrics"] for t in traced)
        counts = [n for n, m in a.items() if m["unit"] == "count"]
        repeat = [n for n in counts if a[n]["value"] != b[n]["value"]]
        self_sum = sum(m["value"] for n, m in a.items()
                       if n.endswith("self_s") and n.count(".") == 1
                       or n in ("cli.main.self_s", "checks.run_check.self_s"))
        checks = {
            "correct": untraced["correct"] and all(t["correct"] for t in traced),
            "end_to_end_units": units(untraced["metrics"]) == declared["end_to_end"],
            "per_layer_units": units(a) == declared["per_layer"],
            "counts_repeat": not repeat,
            # bench.self_s is the harness's share of the timed calls
            "self_times_add_up": abs(self_sum - a["trace.wall_s"]["value"]) < 1e-6
            and 0 <= a["bench.self_s"]["value"] < 0.02 * a["trace.wall_s"]["value"],
        }
        ok = ok and all(checks.values())
        out[w] = {"checks": checks, "untraced": untraced, "traced": traced[0]}
        print(f"== {w}: failed_frac {untraced['failed_frac']}, passes "
              f"{untraced['passes']} untraced, {traced[0]['passes']} traced; "
              + ", ".join(f"{k} {v}" for k, v in checks.items())
              + (f"; counts that differ: {repeat}" if repeat else ""))
        for name, m in {**untraced["metrics"], **a}.items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


def quartile_spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def spread_and_drift(per_set: list[list[float]], bound: float) -> dict:
    medians = [statistics.median(v) for v in per_set]
    spreads = [quartile_spread(v) for v in per_set]
    drift = [m / medians[0] - 1 for m in medians[1:]]
    return {"bound": bound, "medians": medians, "spreads": spreads, "drift": drift,
            "values": per_set,
            "within_bound": all(s <= bound for s in spreads) and all(d <= bound for d in drift)}


def steadiness() -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for s in range(SETS):
        for i in range(SEEDS):
            for w in WORKLOADS:  # interleaved, so a slow spell hits every workload
                seed = 1000 * (s + 1) + i
                r = run(w, seed, 0)
                runs[w][s].append(r)
                print(f"set {s} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
                      + "  raw " + " ".join(f"{k}={v:.5g}" for k, v in r["raw"].items()),
                      flush=True)
    report, ok = {}, True
    for w, sets in runs.items():
        report[w] = {}
        for name, bound in bounds.items():
            fig = spread_and_drift([[r["metrics"][name]["value"] for r in rs] for rs in sets],
                                   bound)
            ok = ok and fig["within_bound"]
            report[w][name] = fig
            print(f"{w:9s} {name:13s} " + summary(fig)
                  + ("" if fig["within_bound"] else "  OUT OF BOUND"))
            if name in sets[0][0]["raw"]:  # the unscaled timing, not checked
                raw = spread_and_drift([[r["raw"][name] for r in rs] for rs in sets], bound)
                report[w]["raw_" + name] = raw
                print(f"{w:9s} {'  unscaled':13s} " + summary(raw)
                      + ("" if raw["within_bound"] else "  out of bound"))
        report[w]["failed"] = sum(r["failed"] for rs in sets for r in rs)
        report[w]["machine"] = [r["machine"] for rs in sets for r in rs]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def summary(fig: dict) -> str:
    return (f"bound {fig['bound']:.2f}  medians " + " ".join(f"{m:.5g}" for m in fig["medians"])
            + "  spreads " + " ".join(f"{s:.3f}" for s in fig["spreads"])
            + "  drift " + " ".join(f"{d:+.3f}" for d in fig["drift"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("baseline", "steadiness"))
    args = parser.parse_args(argv)
    return baseline() if args.mode == "baseline" else steadiness()


if __name__ == "__main__":
    sys.exit(main())
