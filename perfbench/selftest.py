#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload with --tiny, untraced and traced, and checks that
the untraced run prints all eight end-to-end metrics with their units
and ok_ratio 1.0, and that the traced run prints every per-layer metric
of BENCHMARK.json and reports its replayed payloads equal to the
untraced ones. Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-check", "edit-loop", "signoff", "fleet-campaign")
END_TO_END = {
    "setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms", "ops_per_s": "1/s",
    "ok_ratio": "share", "peak_rss_mb": "MiB", "parity_trees": "count",
    "checker_area": "area",
}


def run(workload: str, trace: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


def main() -> int:
    per_layer = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    failures = []
    for workload in WORKLOADS:
        for trace, expected in (("0", END_TO_END), ("1", per_layer)):
            try:
                result, stdout = run(workload, trace)
                assert result["correct"], "correct is false"
                assert result["failed"] == 0 and result["attempted"] >= 1, result
                metrics = result["metrics"]
                for name, unit in expected.items():
                    assert name in metrics, f"missing metric {name}"
                    assert metrics[name]["unit"] == unit, f"{name} unit {metrics[name]['unit']}"
                    assert isinstance(metrics[name]["value"], (int, float)), name
                if trace == "0":
                    assert metrics["ok_ratio"]["value"] == 1, "ok_ratio is not 1.0"
                    assert "op_ms.tail is p" in stdout, "tail percentile not printed"
                else:
                    assert "replay payloads equal the untraced payloads" in stdout
                print(f"ok   {workload} --trace {trace}")
            except (AssertionError, KeyError, ValueError, subprocess.TimeoutExpired) as e:
                failures.append(f"{workload} --trace {trace}: {e}")
                print(f"FAIL {workload} --trace {trace}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
