#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload named in BENCHMARK.json at tiny size (n=64, p=4 or
256, k=8) in both modes, and checks that the last line of output is the
result object, that every metric BENCHMARK.json names for that mode is
printed with its unit and nothing else, and that no operation failed.

Run from anywhere:  python3 perfbench/smoke.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload["name"], "--seed", "1",
                    "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(bench["command"] + args, cwd=ROOT,
                                  capture_output=True, text=True, timeout=600)
            tag = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0 or not proc.stdout.strip():
                errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            wanted = {m["name"]: m["unit"] for m in bench[section]}
            got = result["metrics"]
            for name, unit in wanted.items():
                metric = got.get(name)
                if metric is None:
                    errors.append(f"{tag}: {name} missing")
                elif metric["unit"] != unit or not isinstance(metric["value"], (int, float)):
                    errors.append(f"{tag}: {name} = {metric}, want unit {unit}")
            for name in sorted(set(got) - set(wanted)):
                errors.append(f"{tag}: {name} is not in BENCHMARK.json {section}")
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
