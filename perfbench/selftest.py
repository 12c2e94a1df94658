"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it takes about two minutes.  For each
workload in BENCHMARK.json it checks that

- two runs with the same seed read the same inputs and repeat every work
  counter exactly (node counts, pair and class counts, certificate bytes,
  ps_scale_2d calls);
- another seed changes the inputs;
- every run is correct, and an untraced run prints exactly the end-to-end
  metrics and a traced run exactly the per-layer metrics that
  BENCHMARK.json names, with the units it gives.
"""

from __future__ import annotations

import json
import subprocess
import sys


def bench_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    record, result = lines.splitlines()[-2:]
    return json.loads(record)["record"], json.loads(result)


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        trace: {m["name"]: m["unit"] for m in bench[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [(*bench_run(workload, seed, trace), trace)
                for seed, trace in ((0, 0), (0, 0), (1, 0), (0, 1))]
        (a, _, _), (b, _, _), (c, _, _), _ = runs
        if a["counters"] != b["counters"]:
            problems.append(f"{workload}: counters {a['counters']} != {b['counters']}")
        if a["inputs"] != b["inputs"]:
            problems.append(f"{workload}: seed 0 gave two different inputs")
        if a["inputs"] == c["inputs"]:
            problems.append(f"{workload}: seeds 0 and 1 gave the same inputs")
        for record, result, trace in runs:
            if not result["correct"]:
                problems.append(f"{workload} seed {record['seed']}: {record['errors']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
        print(f"{workload}: counters {a['counters']}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
