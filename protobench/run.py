#!/usr/bin/env python3
"""Protocol benchmark: one workload, one seed, one line of JSON at the end.

    python3 protobench/run.py --workload honest_round --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics. Set-up is
measured in separate processes as well as in the measuring one, and
``setup_s`` is the median. With ``--trace 1`` one process runs the same
operations with wrappers around the package's functions on every other
operation, and reports the per-layer metrics, exact counters, the
closed-form byte comparison and the tracing overhead.

The run checks every operation's output. It exits 1 when an operation
failed (with ``"correct": false`` and no metrics when none succeeded), and
2 without a result when a process could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from protobench.stats import median, tail  # noqa: E402

SETUP_RUNS = 2  # set-up-only processes; the measuring process adds one more
DEADLINE_S = 170

# workload names and metric names and units come from BENCHMARK.json; the
# run prints more metrics than it lists, with units from ``unit_of``
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class WorkerFailed(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, "-m", "protobench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    base = name.split("[", 1)[0]
    if base.endswith(("_s", "_s_tail")):
        return "s"
    if "bytes" in base:
        return "bytes"
    if base.endswith(".percentile"):
        return "percentile"
    if base in ("retrieval.known_fraction", "trace.overhead"):
        return "ratio"
    return "count"


def end_to_end(res: dict, setups: list) -> tuple[dict, dict]:
    """Metric values, and how each was taken. ``setups`` holds the
    (reference seconds, wall seconds) of every set-up."""
    values, notes = {}, {}
    values["setup_s"] = median([s for s, _wall in setups])
    notes["setup_s"] = (f"median of {len(setups)} set-ups "
                        f"({median([wall for _s, wall in setups]):.4g} s wall)")
    for name in ("propose_s", "commit_s", "retrieve_s"):
        samples = res[name]
        values[name] = median(samples)
        notes[name] = f"median of {len(samples)}"
        value, pct, beyond = tail(samples)
        values[f"{name}_tail"] = value
        notes[f"{name}_tail"] = f"p{pct} of {len(samples)} ({beyond} beyond)"
    serial = sum(res["serial_s"])
    values["throughput_MBps"] = res["block_bytes"] / 2**20 / serial
    notes["throughput_MBps"] = (f"{res['block_bytes'] / 2**20:g} MiB in {serial:.3f} s "
                                f"of serial work ({sum(res['wall_s']):.3f} s wall)")
    values["peak_rss_MB"] = res["peak_rss_MB"]
    notes["peak_rss_MB"] = "measuring process"
    return values, notes


def print_closed_form(res: dict) -> None:
    layer, cf = res["per_layer"], res["closed_form"]
    pairs = (
        ("per-node stored bytes", layer.get("oracle.stored_bytes_per_node"), "storage_cost X",
         cf["storage_cost_X"]),
        ("dispersal bytes", layer.get("serialize.wire_bytes"), "communication_cost N*X",
         cf["communication_cost_NX"]),
        ("fraud proof bytes", layer.get("retrieval.fraud_proof_bytes"), "fraud_proof_cost P",
         cf["fraud_proof_cost_P"]),
    )
    for what, measured, form, closed in pairs:
        if measured is None:
            print(f"  {what:<24} not produced; {form} = {closed:.1f}")
        else:
            print(f"  {what:<24} {measured:.1f} vs {form} = {closed:.1f}: "
                  f"ratio {measured / closed:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setup = spawn(args, deadline, setup_only=True)
                setups.append((setup["setup_s"], setup["setup_wall_s"]))
        res = spawn(args, deadline)
    except WorkerFailed as exc:
        print(f"protobench: {exc}", file=sys.stderr)
        return 2
    setups.append((res["setup_s"], res["setup_wall_s"]))

    failures = ", ".join(f"{k}={v}" for k, v in sorted(res["failures"].items())) or "none"
    print(f"protobench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed "
          f"(ratio {res['failed'] / res['attempted']:g}; reasons: {failures}); "
          f"retrievals ending in a verified BadCode stall: {res['bad_code']}")
    print(f"  outputs sha256: {res['digest']}")
    if not res["serial_s"]:
        print("protobench: no operation succeeded", file=sys.stderr)
        metrics = {}
    elif args.trace:
        layer = res["per_layer"]
        for name in sorted(layer):
            value = layer[name]
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:<40} {shown} {unit_of(name)}")
        print(f"  missing wrappers: {', '.join(res['missing']) or 'none'}")
        print_closed_form(res)
        metrics = {n: layer[n] for n in PER_LAYER if n in layer}
    else:
        values, notes = end_to_end(res, setups)
        for name in END_TO_END:
            print(f"  {name:<18} {values[name]:.6g} {unit_of(name):<6} {notes[name]}")
        metrics = values

    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
