"""Self-test of the benchmark on tiny inputs: ``python3 tribench/selftest.py``.

Checks, for every workload of ``BENCHMARK.json``:

* a plain run emits exactly the end-to-end metrics, a traced run exactly
  the per-layer metrics, each with its unit, and both pass their checks;
* a run whose first timed operation is corrupted on purpose reports it
  (``failed`` > 0 and ``correct`` false);

and that the benchmark exits non-zero, printing no result, in a copy
holding only ``BENCHMARK.json`` and the benchmark's own files. Exits 0
when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = [*spec["command"][1:], "--workload", workload, "--seed", "5",
                "--seconds", "0.2", "--size", "tiny"]
        for trace in (0, 1):
            code, res = run(base + ["--trace", str(trace)])
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            if code != 0 or got != expect[trace] or res["failed"] or not res["correct"]:
                problems.append(f"{workload} trace {trace}: exit {code}, {res}")
        code, res = run(base + ["--trace", "0", "--corrupt"])
        if code != 0 or res["failed"] < 1 or res["correct"]:
            problems.append(f"{workload}: corrupted output not detected: {res}")
        print(f"selftest: {workload} done", file=sys.stderr)

    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_cache", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    first = spec["workloads"][0]["name"]
    code, res = run([*spec["command"][1:], "--workload", first, "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        problems.append(f"bare copy: exit {code}, result {res}")

    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
