"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py [--seeds 1-10] [--out FILE]

For every workload in BENCHMARK.json it runs ``bench/run.py`` once per
seed with ``--trace 0`` (run length from BENCHMARK.json) and once with
``--trace 1``, one process at a time, and prints, per end-to-end metric,
the median, the quartiles and the spread (interquartile range over
median) of the values.  It prints the same for the raw wall-clock times
before the host-speed correction, read from the runs' result records.
With ``--out`` it writes them as JSON together with the per-layer
metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# wall-clock counterparts of the corrected times, from each result record
RAW = ("setup_s", "ops_per_s", "op_s_p50", "op_s_p90")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return summary | {"record": json.loads(record.read_text())}


def raw_values(result: dict) -> dict:
    record = result["record"]
    detail = record["detail"]
    return {
        "setup_s": statistics.median(record["setup_samples"]),
        **{name: detail["raw_" + name] for name in RAW[1:]},
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, spec["run_seconds"], 0) for s in seeds]
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        e2e = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        raw = {name: summarize([raw_values(r)[name] for r in runs]) for name in RAW}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "raw_wall_clock": raw,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"== {workload}: correct={record['workloads'][workload]['correct']} "
              f"attempted={record['workloads'][workload]['attempted']} "
              f"failed={record['workloads'][workload]['failed']}")
        for label, stats in (("", e2e), ("raw ", raw)):
            for name, s in stats.items():
                flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
                print(f"   {label + name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
