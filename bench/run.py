"""gibbsaccel benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
sweep-jump, compare-far, resum-conformal, readme-cli.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed from
process start to the first timed op (import, catalog construction,
cache warm-up) in seven fresh worker processes; the last of them then
runs the workload as a closed loop, one op at a time, in a fixed
number of blocks for ``--seconds`` (``Workload.blocks``), checking every op against
``oracle.py`` after its timer stops.  Op and set-up times are scaled by
the host speed: each op's time by the speed that a fixed reference
kernel (``worker.reference_kernel``) measures around it, each set-up
time by the time of a bare ``python3 -c "import numpy"`` run just
before it; ``setup_s`` is the median of the seven.  ``--trace 1``
runs a fixed, seeded list of ops untraced and then twice with spans
around every call into a gibbsaccel module, and reports the per-layer
metrics; their exact counts must agree between the two passes and with
any earlier traced run of the same seed and sources.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric by name with its unit, and the provenance (Python and numpy
versions, nproc, BLAS threads, git commit, source hash, command line),
which is also written with the full result to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.

``failed`` counts ops whose output disagrees with the reference.
``correct`` is false when a failure falls outside the two documented
seed defects (Euler weights collapse once 0.5**N underflows; HDAF weights
overflow) or when an exact count does not repeat.  A run in which no op
yields both a measured and a predicted rate exits with an error.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"  # workload names, metric names and units
SETUP_SAMPLES = 7
THREADS = "1"  # BLAS/OpenMP threads; the workloads are single-threaded Python
# Set-up is mostly interpreter start and the numpy import, which a host
# slow-down stretches less than the op work that the reference kernel
# tracks.  So set-up is scaled by a bare process that does just that.
SETUP_REFERENCE = ("-c", "import numpy")
SETUP_REFERENCE_S = 0.1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def time_setup_reference(env) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *SETUP_REFERENCE], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


class Worker:
    """A worker process; times process start to its READY line."""

    def __init__(self, args, mode, env):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--mode", mode, "--out", str(OUT),
        ]
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.setup_s = None
        self.lines = []

    def finish(self) -> dict | None:
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY" and self.setup_s is None:
                    self.setup_s = perf_counter() - self.t0
                else:
                    self.lines.append(line)
            code = self.proc.wait()
        finally:
            if self.proc.poll() is None:  # interrupted while reading
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if code != 0 or self.setup_s is None:
            print(f"worker exited {code}", file=sys.stderr)
            return None
        return json.loads(self.lines[-1]) if self.lines else {}


def main() -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS

    setups, references = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            references.append(time_setup_reference(env))
            probe = Worker(args, "setup", env)
            if probe.finish() is None:
                return 1
            setups.append(probe.setup_s)
        references.append(time_setup_reference(env))
    worker = Worker(args, "run", env)
    res = worker.finish()
    if not res:
        return 1
    setups.append(worker.setup_s)

    problems = []
    if res["unexpected_failures"]:
        problems.append(f"{res['unexpected_failures']} failures outside the known defects")
    if res.get("count_mismatch"):
        problems.append(f"exact counts differ: {res['count_mismatch']}")
    if args.trace:
        metrics = {m["name"]: (res["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        if res["q_rel_gap_p50"] is None:
            print("no op produced both a measured and a predicted rate", file=sys.stderr)
            return 1
        # each set-up over the reference process run just before it
        ratios = [t / ref for t, ref in zip(setups, references)]
        setup_s = SETUP_REFERENCE_S * statistics.median(ratios)
        values = dict(res, setup_s=setup_s)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    provenance = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "git_commit": git_commit(),
        "src_sha256": res["src_sha256"],
        "command": [Path(sys.executable).name] + sys.argv,
        "loop": "closed, 1 client, 1 process",
        "input": res["input"],
    }
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'failed_frac':34s} {res['failed_frac']:.6g} frac (failed / attempted = 1 - ok_frac)")
    print(
        f"# {res['attempted']} ops of {res['input']}; {res['failed']} failed, "
        f"{res['beyond_p90']} beyond p90, {res['gaps']} rate gaps"
    )
    print(
        f"# wall clock: setup samples {[round(t, 4) for t in setups]} s, "
        f"reference processes {[round(t, 4) for t in references]} s, "
        f"ops_per_s {res['raw_ops_per_s']:.6g}, op_s_p50 {res['raw_op_s_p50']:.6g} s"
    )
    for note in res["failure_notes"]:
        print(f"# failure: {note}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    print("# provenance " + json.dumps(provenance))

    summary = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        summary, provenance=provenance, detail=res,
        setup_samples=setups, setup_reference_samples=references,
    )
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
