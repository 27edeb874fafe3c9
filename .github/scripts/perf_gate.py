#!/usr/bin/env python3
"""Same-runner performance gate: a base checkout against the one under test.

Usage: perf_gate.py BASE_DIR HEAD_DIR

Both directories are checkouts of this repository. Each is built and run
with the command in HEAD_DIR's BENCHMARK.json, with the same flags. For
oltp-imiss and mapreduce-data the gate runs PAIRS pairs of benchmark runs
at BENCHMARK.json's run_seconds, switching which side runs first from one
pair to the next. It fails if any run exits non-zero, reads
"correct": false or counts a failed check, or if HEAD's median wall_s is
worse than the base's by more than BENCHMARK.json's wall_s bound. Every
run's record is printed, so a failure can be read from the log alone.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
WORKLOADS = ["oltp-imiss", "mapreduce-data"]


def build_command(command):
    """BENCHMARK.json's `cargo run ... --` as the matching `cargo build`."""
    cargo = command[: command.index("--")]
    return ["build" if arg == "run" else arg for arg in cargo]


def run_once(command, cwd, workload, seconds):
    """One benchmark run; returns its record, or None if it printed none."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seconds", str(seconds)],
        cwd=cwd,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        record["correct"] = False
    return record


def quartiles(values):
    """First and third quartile, as text."""
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}-{q3:.4f}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    sides = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    seconds = spec["run_seconds"]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")

    for side, cwd in sides.items():
        print(f"building {side} ({cwd})", flush=True)
        subprocess.run(build_command(command), cwd=cwd, check=True)

    wall = {(w, side): [] for w in WORKLOADS for side in sides}
    problems = []
    for pair in range(PAIRS):
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        for workload in WORKLOADS:
            for side in order:
                record = run_once(command, sides[side], workload, seconds)
                if record is None:
                    problems.append(f"{workload} {side} pair {pair + 1}: no record")
                    print(f"pair {pair + 1} {workload:<14} {side}: no record", flush=True)
                    continue
                wall_s = record["metrics"]["wall_s"]["value"]
                wall[(workload, side)].append(wall_s)
                print(
                    f"pair {pair + 1} {workload:<14} {side}: wall_s {wall_s:.4f} s, "
                    f"correct {str(record['correct']).lower()}, "
                    f"failed {record['failed']}/{record['attempted']}",
                    flush=True,
                )
                if not record["correct"] or record["failed"] > 0:
                    problems.append(f"{workload} {side} pair {pair + 1}: output checks failed")

    print(f"\nwall_s over {PAIRS} pairs of {seconds} s runs, bound +{bound:.0%}:")
    for workload in WORKLOADS:
        base, head = wall[(workload, "base")], wall[(workload, "head")]
        if not base or not head:
            continue
        ratio = statistics.median(head) / statistics.median(base)
        verdict = "ok" if ratio <= 1 + bound else "REGRESSED"
        print(
            f"{workload:<14} base median {statistics.median(base):.4f} s "
            f"(quartiles {quartiles(base)}), head median {statistics.median(head):.4f} s "
            f"(quartiles {quartiles(head)}): head/base {ratio:.3f} {verdict}"
        )
        if verdict != "ok":
            problems.append(f"{workload}: head/base wall_s {ratio:.3f} > {1 + bound:.2f}")

    if problems:
        print("perf gate: FAIL\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("perf gate: PASS")


if __name__ == "__main__":
    main()
