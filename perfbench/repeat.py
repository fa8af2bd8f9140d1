"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads paper,attack-sweep,lock-sweep \
        --seeds 10 --seconds 30 --trace 0 --out .bench_out/summary.json

Each (workload, seed) runs ``run.py`` in a fresh process, one after
another.  For every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..n-1")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "machine": None, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                if result is None:
                    continue
            record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json")
                                .read_text(encoding="utf-8"))
            digest = hashlib.sha256(json.dumps(record["digests"], sort_keys=True).encode())
            runs.append({"seed": seed, "artifact_digest": digest.hexdigest(),
                         "machine": record["machine"], **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
        names = runs[0]["metrics"] if runs else {}
        summary["machine"] = summary["machine"] or (runs[0]["machine"] if runs else None)
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "artifact_digests": {r["seed"]: r["artifact_digest"] for r in runs},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **summarize([r["metrics"][name]["value"] for r in runs])}
                for name in names
            },
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, w in summary["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:<13} {name:<30} median {m['median']:12.6g} {m['unit']:<6} "
                  f"spread {m['spread']:7.2%} (n={m['n']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
