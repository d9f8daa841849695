"""Small-store smoke check of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on a 2,000-box store for one second,
untraced and traced, and asserts that each run is correct with an error
rate of 0 and reports exactly the metrics BENCHMARK.json names, each with
its unit. It also asserts that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_BOXES = 2_000


def run_once(cwd: str, command: list[str], workload: str, trace: int) -> tuple[int, list[str]]:
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        args += ["--boxes", str(SMOKE_BOXES)]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(bench: dict, workload: str, trace: int) -> list[str]:
    problems = []
    code, lines = run_once(ROOT, bench["command"], workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0 or len(lines) < 2:
        return [f"{where}: exit code {code}, output {lines[-2:]}"]
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if report["error_rate"] != 0:
        problems.append(f"{where}: error_rate {report['error_rate']}: {report['failures']}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def check_refuses_without_program(bench: dict) -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_once(bare, bench["command"], bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        return [f"bare directory: exit code {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        bench = json.load(f)
    problems = check_refuses_without_program(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_workload(bench, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
