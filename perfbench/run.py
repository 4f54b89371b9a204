#!/usr/bin/env python3
"""lstmens benchmark: one workload, one seed, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

--trace 0 times the workload end to end and prints the end-to-end metrics
named in BENCHMARK.json. --trace 1 runs the same workload with every layer
wrapped by perfbench/tracer.py and prints the per-layer metrics instead. The
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the lines before it are a human-readable report and a
``# detail`` JSON line with everything else (fingerprints, machine record,
quality numbers). The program is imported from ./src of the checkout this
file sits in; without it the benchmark exits with status 2.

BLAS and OpenMP threads are pinned to one in this process (before numpy is
imported), so runs neither compete with themselves nor depend on how many
cores the BLAS library detects. Scratch files go to .perfbench_out/work and
are removed at the end; traces and the per-checkout state (fingerprints and
untraced run_ref figures, keyed by a hash of the program and benchmark source)
stay in .perfbench_out.

Gated times are in units of a reference kernel timed during the run
(workloads.RefMeter), because raw seconds on a shared box drift by more than
the bounds between runs. setup_s is the set-up's reference units times the
kernel's fixed nominal duration: seconds on a machine as fast as the one the
benchmark was defined on. The raw seconds are printed beside every such figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# every metric the report prints, (name, unit); the gated subset and its
# units come from BENCHMARK.json
REPORTED = (
    ("setup_s", "s"), ("setup_ref", "ref"), ("setup_raw_s", "s"), ("run_s", "s"),
    ("run_ref", "ref"), ("epoch_s_p50", "s"), ("epoch_ref_p50", "ref"),
    ("train_samples_per_s", "1/s"), ("train_samples_per_ref", "1/ref"),
    ("fuse_s", "s"), ("fuse_ref", "ref"),
    ("infer_samples_per_s", "1/s"), ("infer_samples_per_ref", "1/ref"),
    ("sample_latency_us_p50", "us"), ("sample_latency_us_p99", "us"),
    ("sample_latency_ref_p50", "ref"), ("sample_latency_ref_p99", "ref"),
    ("fused_f1", "F1"), ("fused_gain_f1", "F1"), ("ce_gap_delta", "nats"),
    ("peak_rss_mb", "MB"), ("failed_share", "ratio"), ("ref_ms_p50", "ms"),
    ("parse_ref_ms_p50", "ms"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("desk", "full", "stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_hash(src: Path) -> str:
    """Hash of the program and of this benchmark, which together fix the results."""
    h = hashlib.sha256()
    for path in sorted([*(src / "lstmens").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(load1: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": dict(PINNED),
        "loadavg_1m": load1,
    }


def read_json(path: Path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def per_layer_values(tracer, names, fuse_kept, run_ref) -> dict:
    """Map BENCHMARK.json per-layer names onto the tracer's summary."""
    summary = tracer.summary()
    parsed = tracer.count_under("modelio.load_model", "bench.fuse")
    special = {
        "modelio.bytes_written": float(tracer.bytes_written),
        # inverted from kept/parsed so a fuse that parses nothing reads 0
        "fuse.parsed_per_kept": parsed / fuse_kept,
        "trace.run_ref": run_ref,
        "trace.bookkeeping_s": tracer.bookkeeping_estimate(),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = float(tracer.counts.get(layer, 0))
        else:
            out[name] = summary.get(layer, {}).get(stat, 0.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "lstmens" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program under {src} (or no BENCHMARK.json); "
              "run from a full checkout", file=sys.stderr)
        return 2
    load1 = os.getloadavg()[0]
    os.environ.update(PINNED)
    sys.path.insert(0, str(src))
    import numpy as np
    import lstmens

    if Path(lstmens.__file__).resolve().parent != (src / "lstmens").resolve():
        print(f"error: imported lstmens from {lstmens.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    key = f"{args.workload}/{args.seed}"
    code_id = source_hash(src)
    ledger = workloads.Ledger()
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result = None
    wall0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        meter = workloads.RefMeter(workloads.WORKLOAD_UNITS[args.workload])
        if tracer is not None:
            # probes land inside traced spans; their time is not the layers'
            meter.probe = tracer.exclude(meter.probe)
        result = workloads.run(args.workload, args.seed, args.seconds, str(workdir),
                               ledger, meter)
    except Exception:  # the run's boundary: report, count, and fail the run
        traceback.print_exc()
        ledger.attempted += 1
        ledger.failed += 1
        ledger.errors.append("exception (traceback on stderr)")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - wall0

    state_path = OUT / "state.json"
    state = read_json(state_path, {})
    mine = state.setdefault(code_id, {"fingerprints": {}, "run_ref": {}})
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "wall_s": wall_s, "source_hash": code_id,
              "machine": machine_record(load1), "errors": ledger.errors}
    metrics = {}
    if result is not None:
        metrics = dict(result["metrics"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ce_gap_delta"] = metrics["ce_gap"]["delta"]
        fp = result["fingerprint"]
        seen = mine["fingerprints"].setdefault(key, fp)
        ledger.check(seen == fp, f"fingerprint differs from an earlier run of {key} "
                                 "with the same source")
        baseline = read_json(HERE / "BENCH_seed.json", {})
        ref = baseline.get("fingerprints", {}).get(key)
        detail["fingerprint"] = fp
        detail["fingerprint_vs_seed_commit"] = ("no reference" if ref is None
                                                else "same" if ref == fp else "differs")
        if not args.trace:
            mine["run_ref"].setdefault(key, []).append(metrics["run_ref"])
    metrics["failed_share"] = ledger.failed / max(1, ledger.attempted)

    gated: dict = {}
    if tracer is not None and result is not None:
        # tracing overhead = trace.run_ref minus the untraced run_ref of the same
        # workload and seed; both are in reference units, so the box's speed
        # drift between the two runs cancels
        untraced = mine["run_ref"].get(key)
        if untraced:
            detail["trace_overhead_ref"] = metrics["run_ref"] - float(np.median(untraced))
            detail["trace_overhead_basis"] = (f"trace.run_ref minus the median of "
                                              f"{len(untraced)} untraced run_ref of {key} "
                                              "with this code in this checkout")
        else:
            detail["trace_overhead_basis"] = (f"no untraced run of {key} with this code "
                                              "recorded in this checkout; run it with "
                                              "--trace 0 first")
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer_values(tracer, names, result["fuse_kept"], metrics["run_ref"])
        missing = sorted((workloads.EXPECTED_SPANS[args.workload] - set(tracer.summary()))
                         | (workloads.EXPECTED_COUNTS - set(tracer.counts)))
        ledger.check(not missing, f"expected spans never recorded: {missing}")
        gated = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in spec["per_layer"]}
        tracer.dump(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
        detail["layers"] = tracer.summary()
        detail["counts"] = dict(tracer.counts)
    elif result is not None:
        gated = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                 for m in spec["end_to_end"]}
    write_json(state_path, state)

    # human-readable report
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("# machine " + json.dumps(detail["machine"], sort_keys=True))
    notes = {
        "epoch_s_p50": f"median of {metrics.get('epochs')} epochs (train+validation+snapshot)",
        "sample_latency_us_p50": f"{metrics.get('latency_samples')} samples",
        "sample_latency_us_p99": f"{metrics.get('latency_samples')} samples",
        "infer_samples_per_s": f"median of {metrics.get('inference_passes')} ensemble_infer passes",
        "failed_share": f"{ledger.failed}/{ledger.attempted} operations",
        "ref_ms_p50": (f"the {'+'.join(workloads.WORKLOAD_UNITS[args.workload])} unit "
                       f"of the reference kernel, {metrics.get('ref_probes')} probes"),
        "parse_ref_ms_p50": "the parse unit of the reference kernel",
    }
    for name, unit in REPORTED:
        if name in metrics and metrics[name] == metrics[name]:  # NaN: no probes
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:<24} {metrics[name]:>16.6g} {unit:<6}{note}")
        else:
            print(f"{name:<24} {'n/a':>16}         (not measured in this run)")
    if gated and tracer is not None:
        for name, m in gated.items():
            print(f"{name:<38} {m['value']:>16.6g} {m['unit']}")
        print("# waiting time: none; the program is single-threaded compute with no "
              "queues, so no layer waits")
        overhead = detail.get("trace_overhead_ref")
        print(f"# trace overhead: {'n/a' if overhead is None else f'{overhead:.6g} ref'} "
              f"({detail['trace_overhead_basis']})")
    if "fingerprint" in detail:
        print(f"# fingerprint params={detail['fingerprint']['params'][:16]} "
              f"probs={detail['fingerprint']['probs'][:16]} "
              f"(vs seed commit: {detail['fingerprint_vs_seed_commit']})")
    for err in ledger.errors:
        print(f"# FAILED: {err}")
    detail["metrics"] = metrics
    print("# detail " + json.dumps(detail, sort_keys=True, default=float))
    print(json.dumps({"correct": ledger.failed == 0 and result is not None,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": gated}))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
