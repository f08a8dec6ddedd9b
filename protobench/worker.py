"""One workload process: set up, warm up, run the operations, report.

Started by ``run.py`` as ``python3 -m protobench.worker`` from the checkout
root; prints one JSON object as its last line. ``--t0`` is the launcher's
``time.monotonic()`` just before it started this process, so ``setup_s``
includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from .clock import ELASTICITY, Clock

ROOT = Path(__file__).resolve().parents[1]


def import_package():
    """Import daoracle from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import daoracle

    if Path(daoracle.__file__).resolve().parent != src / "daoracle":
        raise ImportError(f"daoracle imported from {daoracle.__file__}, not {src}")


def attempt(wl, op: int, account: bool = False):
    """Run and check operation ``op``; an exception is a failed operation."""
    from . import workloads

    try:
        return wl.run_op(op, account=account)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return workloads.OpRecord(failure=workloads.EXCEPTION)


def measure(name: str, seed: int, n_ops: int, trace: bool, t0: float, geometry=None,
            setup_only: bool = False, clock: Clock | None = None) -> dict:
    """Run one workload and return its samples, in reference seconds, and
    its checks. ``t0`` is the ``time.monotonic()`` at which set-up began.

    The untimed warm-up operation is checked and counted among the
    attempted ones like the ``n_ops`` timed ones. With ``trace``, even
    operations run with the wrappers installed and odd ones without, so the
    run measures its own tracing overhead.
    """
    from . import layers, workloads
    from .stats import median
    from .tracing import Tracer

    clock = clock or Clock()
    wl = workloads.make(name, seed, geometry)
    wl.clock = clock
    tracer = Tracer(layers.WRAPS) if trace else None
    if tracer is not None:
        tracer.install()
        with tracer.scope(layers.SETUP):
            wl.gate()
        tracer.uninstall()
    else:
        wl.gate()
    warm_up = attempt(wl, -1)  # untimed, and the same in every run
    setup_wall = time.monotonic() - t0
    # the probes that ran during set-up are the benchmark's, not set-up's
    setup_s = (setup_wall - clock.spent) * clock.factor(clock.started, time.perf_counter())
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall}
    if setup_only:
        return out

    failures: dict[str, int] = {}
    if warm_up.failure is not None:
        failures[warm_up.failure] = 1
    records = []
    plain_scope = wl.scope
    for op in range(n_ops):
        traced = tracer is not None and op % 2 == 0
        if traced:
            tracer.install()
            wl.scope = tracer.scope
        try:
            rec = attempt(wl, op, account=traced)
        finally:
            if traced:
                tracer.uninstall()
                wl.scope = plain_scope
        records.append((traced, rec))
        if rec.failure is not None:
            failures[rec.failure] = failures.get(rec.failure, 0) + 1

    done = [r for _t, r in records if r.failure is None]
    out.update(
        attempted=n_ops + 1,
        failed=sum(failures.values()),
        failures=failures,
        bad_code=sum(r.bad_code for _t, r in records),
        digest=wl.digest.hexdigest(),
        block_bytes=wl.geo.block_size * len(done),
        propose_s=[r.propose_s for r in done],
        commit_s=[r.commit_s for r in done],
        retrieve_s=[t for r in done for t in r.retrieve_s],
        serial_s=[r.serial_s for r in done],
        wall_s=[r.wall_s for r in done],
        peak_rss_MB=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    if tracer is not None:
        per_layer, missing = layers.layer_metrics(tracer, clock.factor)
        acct = [r for t, r in records if t and r.failure is None]
        untraced = [r.serial_s for t, r in records if not t and r.failure is None]
        if acct and untraced:
            per_layer["trace.overhead"] = median([r.serial_s for r in acct]) / median(untraced) - 1
        if acct:
            per_layer["retrieval.known_fraction"] = median(
                [f for r in acct for f in r.known_fraction]
            )
            per_layer["serialize.wire_bytes"] = median([r.wire_bytes for r in acct])
            per_layer["serialize.wire_bytes_per_node"] = per_layer["serialize.wire_bytes"] / (
                wl.geo.n_nodes or 1
            )
            per_layer["oracle.stored_bytes_per_node"] = median([r.stored_bytes for r in acct])
            proofs = [b for r in acct for b in r.fraud_proof_bytes]
            if proofs:
                per_layer["retrieval.fraud_proof_bytes"] = median(proofs)
        per_layer["oracle.stored_units"] = sum(len(n.stored) for n in getattr(wl, "nodes", ()))
        per_layer["trace.ops"] = len(acct)
        out.update(
            per_layer=per_layer,
            missing=missing,
            closed_form=workloads.closed_forms(wl.geo),
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    clock = Clock(ELASTICITY[args.workload])
    clock.start()
    try:
        import_package()
        from .workloads import op_count

        result = measure(
            args.workload,
            args.seed,
            op_count(args.workload, args.seconds),
            bool(args.trace),
            args.t0,
            setup_only=args.setup_only,
            clock=clock,
        )
    finally:
        clock.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
