#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads desk,full,stream --seeds 1-10 \
        --out perfbench/BENCH_seed.json
    python3 perfbench/sweep.py --workloads desk,full,stream --seeds 1 --trace 1 \
        --out perfbench/BENCH_seed.json

Runs are made one at a time, seed-major, each in its own process with the
run length from BENCHMARK.json. For every metric it prints the median and the
quartile spread ((q3 - q1) / median, quartiles as statistics.quantiles(n=4)
gives them) next to the metric's bound. With --out, the summary, the per-run
values, the fingerprints and the machine record are merged into that JSON
file (end-to-end figures from --trace 0, per-layer figures from --trace 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="desk,full,stream")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="JSON file to merge the summary into")
    p.add_argument("--label", help="key of the summary in --out (default: end_to_end "
                                   "or per_layer)")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads.split(",")
    runs: dict = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            run = run_once(w, seed, spec["run_seconds"], args.trace)
            res = run["result"]
            print(f"{w:<7} seed={seed:<4} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"wall={run['detail']['wall_s']:.1f}s", flush=True)
            runs[w].append(run)

    section = args.label or ("per_layer" if args.trace else "end_to_end")
    summary: dict = {}
    for w in workloads:
        rows = {}
        for m in gated:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]]
            rows[m["name"]] = {**spread(vals), "unit": m["unit"], "values": vals}
            bound = m.get("bound")
            flag = "" if bound is None else (
                "ok" if rows[m["name"]]["spread"] < bound / 3 else
                "WIDE" if rows[m["name"]]["spread"] <= bound else "OVER BOUND")
            print(f"{w:<7} {m['name']:<34} median={rows[m['name']]['median']:<12.6g} "
                  f"spread={rows[m['name']]['spread']:.3f} "
                  f"{'' if bound is None else f'bound={bound} '}{flag}")
        if not args.trace:
            for name, first in sorted(runs[w][0]["detail"]["metrics"].items()):
                if name in rows or not isinstance(first, (int, float)):
                    continue
                vals = [r["detail"]["metrics"][name] for r in runs[w]]
                rows[name] = {**spread(vals), "values": vals, "gated": False}
                print(f"{w:<7} {name:<34} median={rows[name]['median']:<12.6g} "
                      f"spread={rows[name]['spread']:.3f} (report only)")
        summary[w] = {"metrics": rows,
                      "seeds": [r["detail"]["seed"] for r in runs[w]],
                      "all_correct": all(r["result"]["correct"] for r in runs[w])}

    if args.out:
        out_path = Path(args.out)
        doc = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
        doc[section] = summary
        first = runs[workloads[0]][0]["detail"]
        doc.setdefault("machine", first["machine"])
        doc["source_hash"] = first["source_hash"]
        doc["run_seconds"] = spec["run_seconds"]
        fps = doc.setdefault("fingerprints", {})
        for w in workloads:
            for r in runs[w]:
                fps[f"{w}/{r['detail']['seed']}"] = r["detail"]["fingerprint"]
        out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
