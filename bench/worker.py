"""One benchmark workload in one process; started by ``bench/run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1
                            --mode setup|run --out DIR

The worker imports gibbsaccel from ``src/`` of the checkout it lives in,
builds the workload's catalog entries and warms its caches, and prints
``READY``: the parent times process start to that line as set-up.  With
``--mode setup`` it stops there.  Otherwise it runs the workload's
number of blocks for ``--seconds`` (``--trace 0``), or runs a fixed, seeded
list of ops once untraced and twice traced (``--trace 1``), and prints
one JSON line of results.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP threads are fixed before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Counts that must repeat exactly between traced passes and across runs.
EXACT = (
    "catalog.coeff_calls",
    "filters.weights_calls",
    "filters.weights_nonfinite",
    "series.sum_calls",
    "series.terms",
    "series.floor_calls",
    "conformal.recoefficient_calls",
    "conformal.recoefficient_orders",
    "rates.rho_calls",
    "sweeps.rows",
    "sweeps.saturated_rows",
    "sweeps.fit_calls",
    "sweeps.fit_skipped",
    "cli.nonzero_exits",
)
CLI_COMMANDS = ("weights", "sweep", "envelope", "rho", "compare")


def load_library() -> SimpleNamespace:
    if not (SRC / "gibbsaccel" / "__init__.py").is_file():
        print(f"no gibbsaccel sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gibbsaccel
    from gibbsaccel import catalog, cli, conformal, filters, rates, series, sweeps

    if Path(gibbsaccel.__file__).resolve().parent != SRC / "gibbsaccel":
        print(f"imported gibbsaccel from {gibbsaccel.__file__}", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(
        catalog=catalog, cli=cli, conformal=conformal, filters=filters,
        rates=rates, series=series, sweeps=sweeps,
    )


def make_workload(name, lib, seed, out_dir):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.ReadmeCli:
        return cls(lib, seed, str(out_dir / f"cli-{os.getpid()}"))
    return cls(lib, seed)


# Host speed on a shared machine drifts by tens of percent over minutes,
# for every process alike.  A fixed kernel, run after every op, tracks
# that drift: each op's wall time is scaled by REFERENCE_S over the
# kernel's local duration, so timings read in seconds at the speed where
# the kernel takes REFERENCE_S.  The kernel mixes the interpreter-bound
# scalar work of the per-term sums with small numpy slice updates like
# those of the re-expansion.
REFERENCE_S = 1e-3


def reference_kernel() -> float:
    terms = [complex(1j / n) * np.exp(1j * n * 0.7) for n in range(1, 600)]
    total = math.fsum(t.real for t in terms)
    acc = np.zeros(64, dtype=complex)
    step = np.full(64, 0.5 + 0.1j)
    for m in range(300):
        k = m % 64
        acc[k:] += step[: 64 - k] * (1.0 / (m + 1))
    return total + acc.sum().real


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def local_speed(refs: list[float]) -> list[float]:
    """REFERENCE_S over the median of the four kernel runs around each op.

    ``refs[i]`` ran just before op i and ``refs[i + 1]`` just after it.
    """
    out = []
    for i in range(len(refs) - 1):
        window = refs[max(0, i - 1) : i + 3]
        out.append(REFERENCE_S / float(np.median(window)))
    return out


def run_op(wl, op, tracer=None, op_id=None):
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open("op")
    t0 = perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out = exc
    dt = perf_counter() - t0
    if span is not None:
        tracer.close(span)
    return dt, out


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end(latencies, verdicts, refs=None) -> dict:
    n = len(latencies)
    failed = sum(v.failed for v in verdicts)
    gaps = [v.gap for v in verdicts if v.gap is not None]
    raw = {
        "raw_ops_per_s": n / math.fsum(latencies),
        "raw_op_s_p50": percentile(latencies, 50),
        "raw_op_s_p90": percentile(latencies, 90),
    }
    if refs is not None:
        raw["reference_s_p50"] = float(np.median(refs))
        latencies = [t * k for t, k in zip(latencies, local_speed(refs))]
    p90 = percentile(latencies, 90)
    return raw | {
        "attempted": n,
        "failed": failed,
        "unexpected_failures": sum(v.failed and not v.known for v in verdicts),
        "failure_notes": sorted({v.notes[0] for v in verdicts if v.failed})[:5],
        "ops_per_s": n / math.fsum(latencies),
        "op_s_p50": percentile(latencies, 50),
        "op_s_p90": p90,
        "beyond_p90": sum(t > p90 for t in latencies),
        "ok_frac": (n - failed) / n,
        "failed_frac": failed / n,
        "q_rel_gap_p50": float(np.median(gaps)) if gaps else None,
        "gaps": len(gaps),
    }


def timed_run(wl, seconds) -> dict:
    latencies, verdicts = [], []
    refs = [time_reference()]
    for _ in range(wl.blocks(seconds)):
        for op in wl.block():
            dt, out = run_op(wl, op)
            refs.append(time_reference())
            latencies.append(dt)
            verdicts.append(wl.check(op, out))
    return end_to_end(latencies, verdicts, refs)


def layer_metrics(tracer, traced_s, untraced_s) -> dict:
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    m = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        incl[s.name] += s.duration
        self_s[s.name] += s.self_time
        a = s.attrs
        if s.name == "filters.weights":
            m["filters.weights_s." + a["kind"]] += s.duration
            m["filters.weights_nonfinite"] += a["nonfinite"]
        elif s.name == "series.sum":
            m["series.terms"] += a["terms"]
        elif s.name == "conformal.recoefficient":
            m["conformal.recoefficient_orders"] += a["order"]
        elif s.name == "conformal.equivalence" and "rel_residual" in a:
            m["conformal.equiv_residual_max"] = max(
                m["conformal.equiv_residual_max"], a["rel_residual"]
            )
        elif s.name == "sweeps.sweep" and "rows" in a:
            m["sweeps.rows"] += a["rows"]
            m["sweeps.saturated_rows"] += a["saturated"]
        elif s.name == "sweeps.fit" and a.get("raised") == "InsufficientDataError":
            m["sweeps.fit_skipped"] += 1
        elif s.name == "cli.main":
            m["cli.main_s." + a["cmd"]] += s.duration
            m["cli.nonzero_exits"] += a.get("exit", 1) != 0
    rows = m["sweeps.rows"]
    out = {
        "catalog.coeff_calls": tracer.coeff_calls,
        "catalog.coeff_s": tracer.coeff_s,
        "filters.weights_calls": calls["filters.weights"],
        "filters.weights_s.euler": m["filters.weights_s.euler"],
        "filters.weights_s.erfclog": m["filters.weights_s.erfclog"],
        "filters.weights_s.hdaf": m["filters.weights_s.hdaf"],
        "filters.weights_nonfinite": m["filters.weights_nonfinite"],
        "series.sum_calls": calls["series.sum"],
        "series.terms": m["series.terms"],
        "series.sum_self_s": self_s["series.sum"],
        "series.ns_per_term": (
            1e9 * self_s["series.sum"] / m["series.terms"] if m["series.terms"] else 0.0
        ),
        "series.floor_calls": calls["series.floor"],
        "series.floor_s": incl["series.floor"],
        "conformal.recoefficient_calls": calls["conformal.recoefficient"],
        "conformal.recoefficient_orders": m["conformal.recoefficient_orders"],
        "conformal.recoefficient_s": incl["conformal.recoefficient"],
        "conformal.accelerate_self_s": self_s["conformal.accelerate"],
        "conformal.equivalence_self_s": self_s["conformal.equivalence"],
        "conformal.radius_s": incl["conformal.radius"],
        "conformal.equiv_residual_max": m["conformal.equiv_residual_max"],
        "rates.rho_calls": calls["rates.rho"],
        "rates.rho_s": incl["rates.rho"],
        "rates.penalty_s": incl["rates.penalty"],
        "sweeps.sweep_self_s": self_s["sweeps.sweep"],
        "sweeps.rows": rows,
        "sweeps.saturated_rows": m["sweeps.saturated_rows"],
        "sweeps.useful_row_frac": (rows - m["sweeps.saturated_rows"]) / rows if rows else 0.0,
        "sweeps.fit_calls": calls["sweeps.fit"],
        "sweeps.fit_skipped": m["sweeps.fit_skipped"],
        "sweeps.fit_s": incl["sweeps.fit"],
        "sweeps.csv_s": self_s["sweeps.csv"],
        "sweeps.parse_s": incl["sweeps.parse"],
    }
    for cmd in CLI_COMMANDS:
        out["cli.main_s." + cmd] = m["cli.main_s." + cmd]
    out["cli.nonzero_exits"] = m["cli.nonzero_exits"]
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    for key in EXACT:
        out[key] = int(out[key])
    return out


def traced_run(wl, lib, out_dir, tag) -> dict:
    ops = wl.trace_ops()
    latencies, verdicts = [], []
    for op in ops:
        dt, out = run_op(wl, op)
        latencies.append(dt)
        verdicts.append(wl.check(op, out))
    result = end_to_end(latencies, verdicts)
    # a second untraced pass, with the caches the first one filled, is
    # the base that the traced passes are compared with
    untraced_s = math.fsum(run_op(wl, op)[0] for op in ops)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, lib)
        wl.use_tracer(tracer)
        try:
            traced_s = math.fsum(run_op(wl, op, tracer, i)[0] for i, op in enumerate(ops))
        finally:
            tracing.uninstall(saved)
            wl.use_tracer(None)
        passes.append((tracer, traced_s))
    layers = [layer_metrics(t, s, untraced_s) for t, s in passes]
    counts = [{k: lay[k] for k in EXACT} for lay in layers]
    mismatch = [k for k in EXACT if counts[0][k] != counts[1][k]]
    # keyed by library and benchmark sources: the same seed on the same
    # code must give the same counts
    code = tree_hash(SRC / "gibbsaccel", ROOT / "bench")
    counts_file = out_dir / f"counts-{tag}-{code[:12]}.json"
    if counts_file.exists():
        previous = json.loads(counts_file.read_text())
        mismatch += [f"{k} (earlier run)" for k in EXACT if previous.get(k) != counts[0][k]]
    else:
        counts_file.write_text(json.dumps(counts[0], indent=1))
    passes[0][0].write(out_dir / f"spans-{tag}.jsonl")
    result["layers"] = layers[0]
    result["count_mismatch"] = mismatch
    result["spans"] = len(passes[0][0].spans)
    return result


def tree_hash(*dirs: Path) -> str:
    """SHA-256 over the relative paths and contents of the .py files."""
    import hashlib

    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    lib = load_library()
    out_dir = Path(args.out)
    wl = make_workload(args.workload, lib, args.seed, out_dir)
    try:
        wl.warm_up()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        tag = f"{args.workload}-seed{args.seed}"
        if args.trace:
            result = traced_run(wl, lib, out_dir, tag)
        else:
            result = timed_run(wl, args.seconds)
    finally:
        wl.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    result["input"] = wl.INPUT
    result["src_sha256"] = tree_hash(SRC / "gibbsaccel")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
