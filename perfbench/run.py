#!/usr/bin/env python3
"""svbs benchmark: the serve, vod and sim-sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` adds a traced pass over the same inputs and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Exit code
0 means a result was printed; its ``correct`` field says whether every
output check passed.
"""

import os

# One BLAS/OpenMP thread: with the default thread count the process used
# twice its wall time in CPU without serving frames any faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "request_ms_p50": "ms"}

def load_svbs() -> types.SimpleNamespace:
    """Import svbs from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "svbs" / "__init__.py").is_file():
        print(f"error: no svbs package under {src}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import svbs.cli
    import svbs.codec
    import svbs.config
    import svbs.container
    import svbs.geometry
    import svbs.rewriter
    import svbs.simulator

    if Path(svbs.__file__).resolve().parent != src / "svbs":
        print(f"error: svbs imported from {svbs.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(
        cli=svbs.cli, codec=svbs.codec, config=svbs.config, container=svbs.container,
        geometry=svbs.geometry, rewriter=svbs.rewriter, simulator=svbs.simulator)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "svbs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_one(sv, name: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    import layers
    import tracer as tracing
    import workloads

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    try:
        wl = workloads.WORKLOADS[name](sv, seed, seconds, scale, str(workdir))
        print(f"  request_ms_p50 times {wl.measures}")
        if not trace:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                setup_s.append(time.perf_counter() - t0)
            measured = wl.run_pass()
            failed = wl.check(measured)
            request_ms_p50, lines = wl.end_to_end(measured)
            metrics = {"setup_s": statistics.median(setup_s), "request_ms_p50": request_ms_p50}
            lines.append(f"setup_s = {metrics['setup_s']:.4f} s (n={len(setup_s)})")
            result_metrics = {k: {"value": metrics[k], "unit": u}
                              for k, u in END_TO_END_UNITS.items()}
            correct = failed == 0
        else:
            tr = tracing.Tracer()
            tr.install(vars(sv))
            try:
                with tr.request("setup"):
                    wl.setup()
            finally:
                tr.uninstall()
            untraced = wl.run_pass()
            tr.install(vars(sv))
            try:
                measured = wl.run_pass(tr)
            finally:
                tr.uninstall()
            failed = wl.check(measured)
            _, lines = wl.end_to_end(untraced)
            overhead = sum(measured.latencies_ns) / sum(untraced.latencies_ns) - 1.0
            index = layers.SpanIndex(tr.spans)
            per_layer = layers.per_layer(index, len(tr.spans), overhead)
            detail = layers.detail(index)
            mismatches = tr.self_time_mismatches()
            lines.append(f"requests traced = {len(tr.requests)}; requests whose span self "
                         f"times do not sum to their duration = {mismatches}")
            lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in {**per_layer, **detail}.items()]
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            correct = failed == 0 and mismatches == 0
            stem = WORK / "traces" / f"{name}-seed{seed}"
            stem.parent.mkdir(parents=True, exist_ok=True)
            tr.dump(str(stem) + ".spans.jsonl")
            with open(str(stem) + ".summary.json", "w") as fh:
                json.dump({"environment": environment(), "workload": name, "seed": seed,
                           "per_layer": per_layer, "detail": detail}, fh, indent=1)
            lines.append(f"spans written to {stem}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = measured.attempted
    lines.append(f"error_rate = {failed / attempted:.4g} ({failed}/{attempted})")
    for line in lines:
        print("  " + line)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result_metrics}


def main(argv=None) -> int:
    import workloads

    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="work budget; sets how many requests a run makes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SCALES), default="full",
                        help="stream sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    sv = load_svbs()
    print("environment " + json.dumps(environment()))
    scale = workloads.SCALES[args.size]
    for name in names if args.workload == "all" else [args.workload]:
        try:
            result = run_one(sv, name, args.seed, args.seconds, bool(args.trace), scale)
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
