"""Test of the benchmark itself, at self-test sizes; about half a minute.

    python3 perfbench/selftest.py

Runs ``run.py --self-test`` untraced and traced over every workload and
checks the result line against ``BENCHMARK.json``: every metric present
with its unit and a finite value, every correctness check passed. Then
runs a copy of the benchmark with no program source beside it, which must
fail without printing a result. The file is not named ``test_*.py`` so the
repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg: str) -> None:
    raise SystemExit(f"selftest FAILED: {msg}")


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names):
        fail("metric names repeat")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']} is {m['bound']}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        fail("no setup_s metric")


def check_result(proc: subprocess.CompletedProcess, spec: dict, wanted: list[dict]) -> None:
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"result {result['correct']}, {result['attempted']}, {result['failed']}")
    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in spec["workloads"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"metrics differ: {sorted(set(got) ^ set(expected))[:5]}")
    for key, unit in expected.items():
        if got[key]["unit"] != unit or not math.isfinite(got[key]["value"]):
            fail(f"{key}: {got[key]}")


def check_without_source() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = run(["--workload", "smoke-learn", "--seed", "1", "--seconds", "1", "--trace", "0"],
               bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("a checkout without the program source produced a result")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(["--self-test", "--workload", "all", "--seed", "7", "--trace", str(trace)],
                   ROOT)
        check_result(proc, spec, wanted)
    check_without_source()
    print("selftest passed")


if __name__ == "__main__":
    main()
