"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
        [--out FILE] [--expect FILE]

For every workload it runs ``perfbench/run.py`` once per seed
(untraced), then prints, per end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), plus each run's correctness
and output digest.  ``--out`` also writes that summary as JSON.
``--expect`` names an earlier summary (``perfbench/results.json`` holds
one); a seed whose digest differs from the one recorded there fails,
since a seed's outputs must be the same on every run.  The exit status
is 1 when any run was incorrect or any digest differed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-4000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    summary = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        summary["spread"] = quartile_spread(values)
        if bound:
            summary["spread_over_bound"] = summary["spread"] / bound
    return summary


def ten_seeds(runs: list[dict], bounds: dict, elapsed_s: float) -> dict:
    """A workload's summary: metric spreads, raw walls, speed factors,
    correctness and each seed's digest."""
    metrics: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    raw_walls = [statistics.median(p["raw_s"] for p in run["passes"]) for run in runs]
    speeds = [p["speed"] for run in runs for p in run["passes"]]
    summary = {
        "metrics": {name: summarize(values, bounds.get(name))
                    for name, values in metrics.items()},
        "raw_wall_s": raw_walls,
        "speed_factor_range": [min(speeds), max(speeds)],
        "seconds_per_run": elapsed_s / len(runs),
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "digests": {str(run["seed"]): run["digest"] for run in runs},
    }
    if len(runs) >= 2:
        summary["raw_wall_spread"] = quartile_spread(raw_walls)
    return summary


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--expect")
    args = parser.parse_args(argv)
    expected = {}
    if args.expect:
        recorded = json.loads(pathlib.Path(args.expect).read_text())["workloads"]
        expected = {w: entry["ten_seeds"]["digests"] for w, entry in recorded.items()}

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": _seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        started = time.perf_counter()
        for seed in report["seeds"]:
            detail, result = run_once(workload, seed, args.seconds)
            runs.append({**result, "seed": seed, "digest": detail.get("digest"),
                         "passes": detail.get("passes")})
            ok &= bool(result["correct"])
            want = expected.get(workload, {}).get(str(seed))
            if want is not None and want != detail.get("digest"):
                ok = False
                print(f"{workload} seed {seed}: digest {detail.get('digest')} "
                      f"differs from the recorded {want}", flush=True)
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
        summary = ten_seeds(runs, bounds, time.perf_counter() - started)
        for name, entry in summary["metrics"].items():
            print(f"  {workload} {name}: median {entry['median']:.4f} "
                  f"spread {entry.get('spread', float('nan')):.4f} "
                  f"(bound {bounds.get(name)})")
        report["workloads"][workload] = {
            "environment": detail.get("environment"), "ten_seeds": summary,
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
