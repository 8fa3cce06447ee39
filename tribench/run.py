"""Benchmark entry point: ``python3 tribench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a tricount checkout.

It generates the workload's input from the seed (cached per seed under
``tribench/_cache``; generation time is recorded, never measured), runs
the workload in a fresh single-threaded process against ``src/`` of this
checkout, prints one provenance line, and prints the result as the last
line of standard output: ``{"correct", "attempted", "failed", "metrics"}``.
Full results and traced spans go to ``tribench/_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> (input kind, default input seed)
WORKLOADS = {
    "powerlaw-stats": ("powerlaw", 8675309),
    "powerlaw-estimate": ("powerlaw", 8675309),
    "er300-sweep": ("er", 11),
}
# Every run must end within 180 s; the workload process gets what is left.
DEADLINE_S = 175
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def ensure_input(kind: str, seed: int, size: str) -> tuple[Path, Path, bool]:
    """Edge list and facts for (kind, seed, size), generated once per seed."""
    cache = HERE / "_cache"
    stem = cache / f"{kind}-{size}-{seed}"
    txt, facts = stem.with_suffix(".txt"), stem.with_suffix(".json")
    hit = txt.is_file() and facts.is_file()
    if not hit:
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--kind", kind,
                        "--seed", str(seed), "--size", size, "--out", str(cache)],
                       env=child_env(), check=True, timeout=DEADLINE_S)
    return txt, facts, hit


def l3_bytes() -> int | None:
    """L3 size from sysfs (glibc's sysconf reads 0 in many containers)."""
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tricount").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, help="input seed (default: the pinned one)")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test fault injection: one wrong output")
    args = ap.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "tricount" / "__init__.py").is_file():
        print(f"run.py: no tricount sources under {SRC}", file=sys.stderr)
        return 2
    kind, default_seed = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    golden = seed == default_seed and args.size == "full"
    txt, facts_path, cache_hit = ensure_input(kind, seed, args.size)
    facts = json.loads(facts_path.read_text())

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--input", str(txt), "--facts", str(facts_path), "--seed", str(seed),
           "--golden", str(int(golden)), "--size", args.size,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(out_dir / f"spans-{tag}.json")]
    if args.corrupt:
        cmd.append("--corrupt")
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=DEADLINE_S - (start - began))
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not child["program"].startswith(str(SRC)):
        print(f"run.py: ran {child['program']}, not {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(child["metrics"]) != set(units):
        print(f"run.py: metrics {sorted(child['metrics'])} differ from "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload, "seed": seed, "size": args.size,
        "trace": args.trace, "checks": child["checks"], "wall_s": wall_s,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(), "python": child["python"], "numpy": child["numpy"],
        "machine": platform.machine(), "git_commit": git_commit(),
        "src_sha256": src_digest(), "host_factor": child["detail"].get("host_factor"),
        "input": {k: facts[k] for k in ("bytes", "n", "m", "wedges", "delta",
                                        "max_degree", "gen_s")} | {"cached": cache_hit},
    }
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in child["metrics"].items()}}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"provenance": provenance, "result": result, "detail": child["detail"]}))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
