"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-smoke --seed 1 --seconds 6 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload again under the tracer and reports the
per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run's detail (environment, output digest, workload figures).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _environment(seed: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else None
        else:
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.common import Context
    from perfbench.workloads import WORKLOADS
    from perfbench.workloads.base import run_traced, run_untraced

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
    workload = workload_cls()
    ctx.meter.start()
    try:
        runner = run_traced if ctx.trace else run_untraced
        metrics, detail = runner(ctx, workload)
    finally:
        ctx.meter.stop()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    ledger = ctx.ledger
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "environment": _environment(args.seed),
        "error_rate": ledger.error_rate,
        "failures": ledger.failures,
        **detail,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
