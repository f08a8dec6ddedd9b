"""Command-line entry point tying the modules into reproducible runs.

Exit codes: 0 success; 2 parameter/config/IO error; 3 verification failed;
4 fraud detected (proof written); 5 insufficient chunks; 6 bad code.
File formats are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import metrics as mx
from . import serialize as sz
from . import simnet
from .cit import Frontier, build_tree, sample_pom
from .dispersal import (
    DispersalParams,
    assign_chunks,
    design_to_text,
    feasibility,
)
from .errors import BadCode, ParameterError
from .incentives import (
    IncentiveParams,
    best_oracle_deviation,
    check_allC_equilibrium,
    check_allO_equilibrium,
)
from .retrieval import Block, ChunkSet, Fraud, reconstruct
from .util import NUMBER, RATE, as_rate, json_fields

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_VERIFY_FAILED = 3
EXIT_FRAUD = 4
EXIT_INSUFFICIENT = 5
EXIT_BAD_CODE = 6


def _read_json(path: str):
    """The JSON document in file ``path``; a file that does not parse as
    JSON raises ParameterError. Commands check its fields with json_fields."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def _index_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        ) from None


def cmd_commit(args) -> int:
    block = Path(args.block).read_bytes()
    params = simnet.tree_params_from_dict(_read_json(args.params))
    tree = build_tree(block, params)
    Path(args.out_commitment).write_bytes(sz.encode_commitment(tree.commitment))
    print(f"committed {len(block)} bytes; root of {len(tree.commitment.root)} digests")
    return EXIT_OK


def cmd_pom(args) -> int:
    block = Path(args.block).read_bytes()
    commitment = sz.decode_commitment(Path(args.commitment).read_bytes())
    # the length first: a block of another length may have no geometry,
    # and it is a mismatch all the same
    tree = build_tree(block, commitment.params) if len(block) == commitment.block_len else None
    if tree is None or tree.commitment != commitment:
        print("block does not match the commitment; no proofs written")
        return EXIT_VERIFY_FAILED
    if args.index is not None:
        poms = [sample_pom(tree, args.index)]
        Path(args.out).write_bytes(sz.encode_pom(poms[0]))
    else:
        indices = range(tree.sizes[-1]) if args.all else sorted(set(args.indices))
        poms = [sample_pom(tree, i) for i in indices]
        units = [(pom.base_index, pom.base_symbol, pom) for pom in poms]
        Path(args.out).write_bytes(sz.encode_chunk_bundle(units))
    print(f"wrote proofs for {len(poms)} base symbols")
    return EXIT_OK


def cmd_verify(args) -> int:
    commitment = sz.decode_commitment(Path(args.commitment).read_bytes())
    pom = sz.decode_pom(Path(args.pom).read_bytes())
    if Frontier(commitment).walk(pom):
        print(f"symbol {pom.base_index}: membership verified")
        return EXIT_OK
    print(f"symbol {pom.base_index}: verification FAILED")
    return EXIT_VERIFY_FAILED


def cmd_disperse(args) -> int:
    raw = json_fields(
        _read_json(args.params),
        {"n_chunks": int, "n_nodes": int, "lambda": NUMBER},
        {"gamma": NUMBER, "eta": NUMBER},
    )
    design = assign_chunks(
        raw["n_chunks"], raw["n_nodes"], raw["lambda"], seed=args.design_seed
    )
    Path(args.out).write_text(design_to_text(design))
    line = (
        f"design: {design.n_chunks} chunks over {design.n_nodes} nodes, "
        f"{design.k_per_node} per node"
    )
    if "gamma" in raw and "eta" in raw:
        verdict = feasibility(
            DispersalParams(raw["gamma"], raw["eta"], raw["lambda"])
        )
        line += f"; feasibility: {verdict.value}"
    print(line)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    if args.chunks is not None:
        commitment = sz.decode_commitment(Path(args.commitment).read_bytes())
        units = sz.decode_chunk_bundle(Path(args.chunks).read_bytes())
        chunks = ChunkSet(commitment, units)
        try:
            result = reconstruct(commitment, commitment.params, chunks)
        except BadCode as exc:
            print(f"bad code: {exc}")
            return EXIT_BAD_CODE
    else:
        trace = json_fields(_read_json(args.trace), {"config": dict})
        config = simnet.config_from_dict(trace["config"])
        # round 0 plays out the same whatever the round and client counts
        # (client 0 retrieves first), and client 0's result is all that is
        # read, so a huge "rounds" in the file costs nothing
        replay = simnet.run_scenario(
            dataclasses.replace(config, rounds=min(config.rounds, 1), n_clients=1)
        )
        result = replay.first_result
        if result is None:
            print("round 0 was never committed; nothing to retrieve")
            return EXIT_INSUFFICIENT
        if isinstance(result, BadCode):
            print(f"bad code: {result}")
            return EXIT_BAD_CODE
    if isinstance(result, Block):
        Path(args.out_block).write_bytes(result.data)
        print(f"reconstructed {len(result.data)} bytes -> {args.out_block}")
        return EXIT_OK
    if isinstance(result, Fraud):
        if args.out_fraud:
            Path(args.out_fraud).write_bytes(sz.encode_fraud_proof(result.proof))
        print(
            f"incorrect coding at layer {result.proof.layer}, "
            f"equation {result.proof.equation_no}"
        )
        return EXIT_FRAUD
    fractions = ", ".join(f"{u}:{f:.3f}" for u, f in result.known_fractions)
    print(f"insufficient chunks (known fractions {fractions})")
    return EXIT_INSUFFICIENT


def cmd_simulate(args) -> int:
    config = simnet.config_from_dict(_read_json(args.scenario))
    trace = simnet.run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.json").write_text(trace.to_json())
    (out / "chain.log").write_text("\n".join(trace.chain_lines) + "\n")
    (out / "counters.csv").write_text(trace.counters_csv())
    for n, record in enumerate(trace.fraud_records):
        (out / f"fraud_{n}.bin").write_bytes(sz.encode_fraud_proof(record))
    summary = {
        "rounds": [
            {
                "round": r["round"],
                "committed": r["committed"],
                "outcomes": [x["outcome"] for x in r["retrievals"]],
            }
            for r in trace.rounds
        ]
    }
    (out / "report.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    frauds = [line for line in trace.chain_lines if line.startswith("FRAUD")]
    print(
        f"simulated {config.rounds} round(s); "
        f"{sum(1 for r in trace.rounds if r['committed'])} committed, "
        f"{len(frauds)} fraud record(s); outputs in {out}"
    )
    return EXIT_OK


def cmd_metrics(args) -> int:
    raw = json_fields(
        _read_json(args.params),
        {
            "block_size": NUMBER, "n_nodes": int, "symbol_size": NUMBER,
            "root_size": int, "rate": RATE, "batch": int, "max_eq_degree": int,
        },
        {"lambda": NUMBER, "beta": NUMBER, "eta": NUMBER},
    )
    beta = raw.get("beta")
    if beta is not None and not 0 <= beta < 0.5:
        # the coded row of the baselines table gives it as the max
        # adversary fraction, with lambda or without
        raise ParameterError(f"beta {beta!r} must lie in [0, 0.5)")
    lam = raw.get("lambda")
    if lam is None:
        # without lambda, beta and eta give it
        beta_eta = json_fields(raw, {"beta": NUMBER, "eta": NUMBER})
        if 1 - beta_eta["eta"] == 1:
            # lambda divides by ln(1/(1-eta))
            raise ParameterError(f"eta {beta_eta['eta']!r} leaves 1 - eta at 1")
        lam = mx.lambda_from_beta(beta_eta["beta"], beta_eta["eta"])
    cost = mx.CostParams(
        block_size=raw["block_size"],
        n_nodes=raw["n_nodes"],
        symbol_size=raw["symbol_size"],
        root_size=raw["root_size"],
        rate=float(as_rate(raw["rate"])),
        batch=raw["batch"],
        max_eq_degree=raw["max_eq_degree"],
        lam=lam,
    )
    # the closed forms divide by N*r*lam and N*r*c*lam, and a product of
    # positive floats can round to 0; they take the log of b/(c*t*r), which
    # is negative below 1 and can turn the costs negative. Checked here,
    # not in CostParams: every protobench worker imports metrics.py, and
    # edits to it have moved bulk_block workers between malloc page-fault
    # modes (ROADMAP, timing noise)
    n_r = cost.n_nodes * cost.rate
    span = cost.symbol_size * cost.root_size * cost.rate
    if not (
        min(n_r * cost.lam, n_r * cost.symbol_size * cost.lam, span) > 0
        and 1 <= cost.block_size / span < math.inf
    ):
        raise ParameterError(
            "N*r*lam and N*r*c*lam must be positive, and b/(c*t*r) finite and at least 1"
        )
    rep = mx.report(cost)
    rows = mx.baseline_table(cost, beta)
    prefix = Path(args.out_prefix)
    prefix.with_suffix(".json").write_text(rep.to_json())
    prefix.with_name(prefix.name + "_baselines").with_suffix(".csv").write_text(
        mx.baseline_csv(rows)
    )
    print(
        f"storage {rep.storage_cost_bytes / 1e3:.1f} kB, "
        f"fraud proof {rep.fraud_proof_bytes / 1e3:.1f} kB, "
        f"communication {rep.communication_bytes / 1e9:.2f} GB, "
        f"chunks/node {rep.chunks_per_node:.2f}"
    )
    return EXIT_OK


def cmd_incentives(args) -> int:
    spec = {field.name: NUMBER for field in dataclasses.fields(IncentiveParams)}
    spec["n_signatures"] = int  # k counts signatures
    params = IncentiveParams(**json_fields(_read_json(args.params), spec))
    payload = {}
    for name, profile, check in (
        ("all_cooperate", "all_c", check_allC_equilibrium),
        ("all_offline", "all_o", check_allO_equilibrium),
    ):
        # one oracle node's best response says why the profile holds or not
        action, utility = best_oracle_deviation(profile, params)
        payload[name] = json.loads(check(params).to_json())
        payload[name]["best_deviation"] = {"action": action.value, "utility": utility}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daoracle",
        description="Data availability oracle: commit, disperse, retrieve, simulate.",
        epilog=(
            "exit codes: 0 ok, 2 bad parameters, 3 verification failed, "
            "4 fraud detected, 5 insufficient chunks, 6 bad code"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commit", help="build a coded tree and write its commitment")
    p.add_argument("--block", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out-commitment", required=True)
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("pom", help="sample membership proofs of a committed block")
    p.add_argument("--block", required=True)
    p.add_argument("--commitment", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--index", type=int)
    which.add_argument(
        "--indices", type=_index_list, help="comma-separated base indices (writes a bundle)"
    )
    which.add_argument("--all", action="store_true", help="bundle every base symbol")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pom)

    p = sub.add_parser("verify", help="check one membership proof")
    p.add_argument("--commitment", required=True)
    p.add_argument("--pom", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("disperse", help="draw a chunk-to-node design")
    p.add_argument("--params", required=True)
    p.add_argument("--design-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_disperse)

    p = sub.add_parser("retrieve", help="reconstruct a block from chunks")
    p.add_argument("--commitment")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--chunks")
    source.add_argument("--trace")
    p.add_argument("--out-block", default="block.out")
    p.add_argument("--out-fraud")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("simulate", help="run a scenario config")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="closed-form cost tables")
    p.add_argument("--params", required=True)
    p.add_argument("--out-prefix", default="metrics")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("incentives", help="equilibrium condition report")
    p.add_argument("--params", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_incentives)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "retrieve" and (args.chunks is None) != (args.commitment is None):
        parser.error("--commitment is needed with --chunks and refused with --trace")
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BadCode as exc:
        print(f"bad code: {exc}", file=sys.stderr)
        return EXIT_BAD_CODE


if __name__ == "__main__":
    sys.exit(main())
