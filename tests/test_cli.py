"""Exercise every subcommand and exit code through main(argv)."""

import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from daoracle import cit, cli, serialize as sz
from daoracle.oracle import build_tree_with_base_corruption

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for
from hostile import hostile, hostile_files, memory_bound, time_bound

@pytest.fixture()
def workdir(tmp_path, small_block):
    params = {
        "symbol_size": 64,
        "root_size": 4,
        "rate": "1/4",
        "batch": 8,
        "max_eq_degree": 8,
        "alpha": 0.125,
        "code_seed": 5,
    }
    (tmp_path / "tree_params.json").write_text(json.dumps(params))
    (tmp_path / "block.bin").write_bytes(small_block)
    return tmp_path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def run_module(*argv, cwd) -> subprocess.CompletedProcess:
    """`python -m daoracle ARGV` in ``cwd``, importing this checkout's src."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "daoracle", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


class TestCommitVerifyRetrieve:
    def test_round_trip(self, workdir, small_block, capsys):
        d = workdir
        assert run(
            "commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin",
        ) == cli.EXIT_OK
        assert run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "p.bin") == cli.EXIT_OK
        assert run("verify", "--commitment", d / "c.bin", "--pom", d / "p.bin") == cli.EXIT_OK
        assert run("pom", "--tree", d / "t.bin", "--all", "--out", d / "all.bundle") == cli.EXIT_OK
        assert run(
            "retrieve", "--commitment", d / "c.bin", "--chunks", d / "all.bundle",
            "--out-block", d / "out.bin",
        ) == cli.EXIT_OK
        assert (d / "out.bin").read_bytes() == small_block

    def test_verification_failure_code(self, workdir, small_tree):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        pom = cit.sample_pom(small_tree, 3)
        import dataclasses

        bad = dataclasses.replace(pom, base_symbol=bytes(64))
        (d / "bad.pom").write_bytes(sz.encode_pom(bad))
        assert run("verify", "--commitment", d / "c.bin", "--pom", d / "bad.pom") == cli.EXIT_VERIFY_FAILED

    def test_fraud_exit_code(self, workdir, small_block, small_params):
        d = workdir
        bad_tree = build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)
        (d / "bad_c.bin").write_bytes(sz.encode_commitment(bad_tree.commitment))
        base = bad_tree.layers[-1].symbols
        units = [
            (i, base[i].tobytes(), cit.sample_pom(bad_tree, i)) for i in range(32)
        ]
        (d / "bad.bundle").write_bytes(sz.encode_chunk_bundle(units))
        code = run(
            "retrieve", "--commitment", d / "bad_c.bin", "--chunks", d / "bad.bundle",
            "--out-block", d / "x.bin", "--out-fraud", d / "fraud.bin",
        )
        assert code == cli.EXIT_FRAUD
        proof = sz.decode_fraud_proof((d / "fraud.bin").read_bytes())
        from daoracle.retrieval import verify_fraud_proof

        assert verify_fraud_proof(bad_tree.commitment, small_params, proof)

    def test_insufficient_exit_code(self, workdir, small_tree):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        run("pom", "--tree", d / "t.bin", "--indices", "0,1,2", "--out", d / "few.bundle")
        assert run(
            "retrieve", "--commitment", d / "c.bin", "--chunks", d / "few.bundle",
            "--out-block", d / "x.bin",
        ) == cli.EXIT_INSUFFICIENT

    def test_bad_code_exit_code(self, workdir, small_block, capsys):
        # every chunk except the planted stopping set of an ungated base code
        params = cit.TreeParams(**{**SMALL, "code_seed": BAD_BASE_CODE_SEED, "gate_trials": 0})
        tree = cit.build_tree(small_block, params)
        d = workdir
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        (d / "c.bin").write_bytes(sz.encode_commitment(tree.commitment))
        (d / "stall.bundle").write_bytes(sz.encode_chunk_bundle(chunkset_for(tree, keep).units))
        code = run(
            "retrieve", "--commitment", d / "c.bin", "--chunks", d / "stall.bundle",
            "--out-block", d / "x.bin",
        )
        assert code == cli.EXIT_BAD_CODE == 6
        assert capsys.readouterr().out.startswith("bad code: layer 3 stalled")
        assert not (d / "x.bin").exists()

    def test_commit_outputs_byte_stable(self, workdir):
        d = workdir
        for tag in ("a", "b"):
            run("commit", "--block", d / "block.bin", "--params",
                d / "tree_params.json", "--out-commitment", d / f"c_{tag}.bin",
                "--out-tree", d / f"t_{tag}.bin")
        assert (d / "c_a.bin").read_bytes() == (d / "c_b.bin").read_bytes()
        assert (d / "t_a.bin").read_bytes() == (d / "t_b.bin").read_bytes()

    def test_missing_file_is_parameter_error(self, workdir):
        assert run(
            "commit", "--block", workdir / "nope.bin", "--params",
            workdir / "tree_params.json", "--out-commitment", workdir / "c.bin",
        ) == cli.EXIT_PARAMS

    def test_module_entry_point_passes_exit_code(self, tmp_path):
        # `python -m daoracle` must hand main()'s code to the shell unchanged
        proc = run_module("verify", "--commitment", "nope.bin", "--pom", "nope.bin",
                          cwd=tmp_path)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "case", ["verify_directory", "simulate_directory", "commit_out_below_a_file",
                 "simulate_out_below_a_file"],
    )
    def test_unusable_paths_exit_params(self, workdir, capsys, case):
        d = workdir
        (d / "plain").write_bytes(b"")
        (d / "scenario.json").write_text(json.dumps(SCENARIO))
        argv = {
            # IsADirectoryError
            "verify_directory": ("verify", "--commitment", d, "--pom", d / "p.bin"),
            "simulate_directory": ("simulate", "--scenario", d, "--out", d / "sim"),
            # NotADirectoryError
            "commit_out_below_a_file": (
                "commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
                "--out-commitment", d / "plain" / "c.bin",
            ),
            "simulate_out_below_a_file": (
                "simulate", "--scenario", d / "scenario.json", "--out", d / "plain" / "sim",
            ),
        }[case]
        assert run(*argv) == cli.EXIT_PARAMS
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_module_entry_point_exits_params_on_a_directory(self, tmp_path):
        proc = run_module("verify", "--commitment", tmp_path, "--pom", "x", cwd=tmp_path)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("num,den", [(5, 4), (1, 0)], ids=["rate_5_4", "den_zero"])
    def test_hostile_rate_bytes_exit_params(self, workdir, num, den):
        # DAC1 layout: magic(4) symbol_size u64 root_size u32, then the rate
        # as u32 numerator and u32 denominator at offset 16
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "p.bin")
        blob = bytearray((d / "c.bin").read_bytes())
        blob[16:24] = struct.pack("<II", num, den)
        (d / "hostile.bin").write_bytes(bytes(blob))
        proc = run_module("verify", "--commitment", "hostile.bin", "--pom", "p.bin", cwd=d)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "flag,value", [("--index", "999"), ("--indices", "1,999")], ids=["index", "indices"]
    )
    def test_out_of_range_index_exits_params(self, workdir, flag, value):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        proc = run_module("pom", "--tree", "t.bin", flag, value, "--out", "p.bin", cwd=d)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not (d / "p.bin").exists()

    def test_hostile_gate_trials_exit_params(self, workdir):
        # gate_trials is the u32 at offset 52 of a DAC1 commitment
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        run("pom", "--tree", d / "t.bin", "--all", "--out", d / "all.bundle")
        run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "p.bin")
        blob = bytearray((d / "c.bin").read_bytes())
        blob[52:56] = struct.pack("<I", 2**32 - 1)
        (d / "hostile.bin").write_bytes(bytes(blob))
        for argv in (
            ("verify", "--commitment", "hostile.bin", "--pom", "p.bin"),
            ("retrieve", "--commitment", "hostile.bin", "--chunks", "all.bundle"),
        ):
            proc = run_module(*argv, cwd=d)
            assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stderr.startswith("error: ")

    def test_tree_cache_with_fractional_batch_times_rate_exits_params(self, workdir):
        # DAT1 layout: magic(4) symbol_size u64, root_size u32, rate num
        # u32 and den u32, batch u32; batch 3 at rate 1/2 over 108 bytes of
        # 4-byte symbols is a geometry (16/24/36/54) where no proof verifies
        d = workdir
        params = cit.TreeParams(**json.loads((d / "tree_params.json").read_text()))
        blob = bytearray(sz.encode_tree_cache(params, bytes(108)))
        struct.pack_into("<QIIII", blob, 4, 4, 16, 1, 2, 3)
        (d / "t.bin").write_bytes(bytes(blob))
        proc = run_module("pom", "--tree", "t.bin", "--index", "0", "--out", "p.bin", cwd=d)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "batch * rate must be an integer" in proc.stderr
        assert not (d / "p.bin").exists()

    def test_oversized_base_layers_exit_params(self, workdir, capsys):
        # the two routes to a huge base layer: a DAT1's rate and root size
        # (1/4097 over 512 bytes, 32776 symbols) and a DAC1's block_len
        # (2^30 bytes of 64-byte symbols, 2^26 symbols)
        d = workdir
        params = cit.TreeParams(**json.loads((d / "tree_params.json").read_text()))
        wide = dataclasses.replace(
            params, root_size=4097, rate=Fraction(1, 4097), batch=8194
        )
        (d / "t.bin").write_bytes(sz.encode_tree_cache(wide, bytes(512)))
        long = cit.Commitment((bytes(32),) * params.root_size, params, 1 << 30)
        (d / "c.bin").write_bytes(sz.encode_commitment(long))
        (d / "none.bundle").write_bytes(sz.encode_chunk_bundle(()))
        for argv in (
            ("pom", "--tree", d / "t.bin", "--all", "--out", d / "out.bundle"),
            ("retrieve", "--commitment", d / "c.bin", "--chunks", d / "none.bundle",
             "--out-block", d / "out.bin"),
        ):
            capsys.readouterr()
            with time_bound(COMMAND_BOUND_S):
                assert run(*argv) == cli.EXIT_PARAMS
            assert "exceeds the cap" in capsys.readouterr().err

    def test_json_gate_trials_above_the_cap_exit_params(self, workdir):
        d = workdir
        raw = json.loads((d / "tree_params.json").read_text())
        raw["gate_trials"] = cit.MAX_GATE_TRIALS + 1
        (d / "big.json").write_text(json.dumps(raw))
        assert run(
            "commit", "--block", d / "block.bin", "--params", d / "big.json",
            "--out-commitment", d / "c.bin",
        ) == cli.EXIT_PARAMS


class TestDisperse:
    def test_writes_line_per_node(self, tmp_path):
        spec = {"n_chunks": 32, "n_nodes": 8, "lambda": 0.5, "gamma": 0.75, "eta": 0.875}
        (tmp_path / "d.json").write_text(json.dumps(spec))
        assert run(
            "disperse", "--params", tmp_path / "d.json", "--design-seed", 3,
            "--out", tmp_path / "design.txt",
        ) == cli.EXIT_OK
        lines = (tmp_path / "design.txt").read_text().strip().splitlines()
        assert len(lines) == 8
        assert all(len(line.split()) == 8 for line in lines)

    def test_byte_stable_under_seed(self, tmp_path):
        spec = {"n_chunks": 32, "n_nodes": 8, "lambda": 0.5}
        (tmp_path / "d.json").write_text(json.dumps(spec))
        run("disperse", "--params", tmp_path / "d.json", "--design-seed", 3,
            "--out", tmp_path / "a.txt")
        run("disperse", "--params", tmp_path / "d.json", "--design-seed", 3,
            "--out", tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestSimulate:
    def scenario(self, tmp_path, strategy="honest"):
        config = {
            "n_nodes": 20,
            "beta": 0.25,
            "block_size": 65536,
            "n_clients": 2,
            "rounds": 1,
            "master_seed": 7,
            "proposer_strategy": strategy,
            "behaviors": {},
            "tree": {
                "symbol_size": 2048, "root_size": 4, "rate": "1/4", "batch": 8,
                "max_eq_degree": 8, "alpha": 0.125, "code_seed": 11,
                "gate_trials": 24,
            },
            "dispersal": {"gamma": 0.5, "eta": 0.875, "lambda": 0.2},
        }
        path = tmp_path / f"scenario_{strategy}.json"
        path.write_text(json.dumps(config))
        return path

    def test_simulate_writes_artifacts(self, tmp_path):
        path = self.scenario(tmp_path)
        out = tmp_path / "sim"
        assert run("simulate", "--scenario", path, "--out", out) == cli.EXIT_OK
        assert (out / "trace.json").exists()
        assert (out / "chain.log").read_text().startswith("COMMIT")
        assert (out / "counters.csv").read_text().startswith("counter,")
        report = json.loads((out / "report.json").read_text())
        assert report["rounds"][0]["outcomes"] == ["block", "block"]

    def test_invalid_coding_scenario_records_fraud(self, tmp_path):
        path = self.scenario(tmp_path, strategy="invalid_coding")
        out = tmp_path / "sim_bad"
        assert run("simulate", "--scenario", path, "--out", out) == cli.EXIT_OK
        assert any(
            line.startswith("FRAUD")
            for line in (out / "chain.log").read_text().splitlines()
        )
        # the fraud proof itself is materialized and decodes
        assert (out / "fraud_0.bin").exists()
        sz.decode_fraud_proof((out / "fraud_0.bin").read_bytes())

    def test_retrieve_from_trace_replay(self, tmp_path):
        path = self.scenario(tmp_path)
        out = tmp_path / "sim_replay"
        run("simulate", "--scenario", path, "--out", out)
        code = run(
            "retrieve", "--trace", out / "trace.json",
            "--out-block", tmp_path / "replayed.bin",
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "replayed.bin").stat().st_size == 65536

    def test_retrieve_replays_round_zero_only(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        run("simulate", "--scenario", path, "--out", tmp_path / "sim")
        trace = json.loads((tmp_path / "sim" / "trace.json").read_text())
        printed = []
        for rounds in (1, 10**9):
            trace["config"]["rounds"] = rounds
            (tmp_path / "t.json").write_text(json.dumps(trace))
            capsys.readouterr()
            with time_bound(30):
                code = run(
                    "retrieve", "--trace", tmp_path / "t.json",
                    "--out-block", tmp_path / "replayed.bin",
                )
            assert code == cli.EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_retrieve_from_fraud_trace_replay(self, tmp_path):
        path = self.scenario(tmp_path, strategy="invalid_coding")
        out = tmp_path / "sim_replay_bad"
        run("simulate", "--scenario", path, "--out", out)
        code = run(
            "retrieve", "--trace", out / "trace.json",
            "--out-block", tmp_path / "x.bin", "--out-fraud", tmp_path / "f.bin",
        )
        assert code == cli.EXIT_FRAUD
        assert (tmp_path / "f.bin").exists()

    def test_outputs_byte_stable(self, tmp_path):
        path = self.scenario(tmp_path)
        run("simulate", "--scenario", path, "--out", tmp_path / "s1")
        run("simulate", "--scenario", path, "--out", tmp_path / "s2")
        assert (
            (tmp_path / "s1" / "trace.json").read_bytes()
            == (tmp_path / "s2" / "trace.json").read_bytes()
        )


class TestTables:
    def test_metrics_tables(self, tmp_path, capsys):
        spec = {
            "block_size": 12e6, "n_nodes": 9000, "beta": 0.49, "eta": 0.875,
            "symbol_size": 48e3, "root_size": 16, "rate": 0.25, "batch": 8,
            "max_eq_degree": 8,
        }
        (tmp_path / "m.json").write_text(json.dumps(spec))
        assert run(
            "metrics", "--params", tmp_path / "m.json",
            "--out-prefix", tmp_path / "tables",
        ) == cli.EXIT_OK
        report = json.loads((tmp_path / "tables.json").read_text())
        assert report["storage_cost_bytes"] == pytest.approx(597e3, rel=0.05)
        baselines = (tmp_path / "tables_baselines.csv").read_text()
        assert "uncoded (repetition)" in baselines

    def test_incentives_report(self, tmp_path, capsys):
        spec = {
            "p_audit": 0.2, "stake_oracle": 50, "stake_committee": 10,
            "stake_proposer": 20, "submission_fee": 0.5, "block_reward": 100,
            "reward_fraction": 0.6, "verify_cost": 1.0, "aggregate_cost": 2.0,
            "n_signatures": 10,
        }
        (tmp_path / "i.json").write_text(json.dumps(spec))
        assert run(
            "incentives", "--params", tmp_path / "i.json", "--out", tmp_path / "i_out.json",
        ) == cli.EXIT_OK
        report = json.loads((tmp_path / "i_out.json").read_text())
        assert report["all_cooperate"]["is_equilibrium"] is True
        assert report["all_offline"]["is_equilibrium"] is True


TREE_PARAMS = {
    "symbol_size": 64, "root_size": 4, "rate": "1/4", "batch": 8,
    "max_eq_degree": 8, "alpha": 0.125, "code_seed": 5,
}
COST_PARAMS = {
    "block_size": 12e6, "n_nodes": 9000, "beta": 0.49, "eta": 0.875,
    "symbol_size": 48e3, "root_size": 16, "rate": 0.25, "batch": 8, "max_eq_degree": 8,
}
SCENARIO = {
    "n_nodes": 20, "beta": 0.25, "block_size": 65536, "behaviors": {},
    "tree": {**TREE_PARAMS, "symbol_size": 2048, "code_seed": 11},
    "dispersal": {"gamma": 0.5, "eta": 0.875, "lambda": 0.2},
}
INCENTIVE_PARAMS = {
    "p_audit": 0.2, "stake_oracle": 50, "stake_committee": 10, "stake_proposer": 20,
    "submission_fee": 0.5, "block_reward": 100, "reward_fraction": 0.6,
    "verify_cost": 1.0, "aggregate_cost": 2.0, "n_signatures": 10,
}


def quiet_run(*argv) -> tuple[int, str]:
    """``run(*argv)``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


def without(raw: dict, key: str) -> str:
    return json.dumps({k: v for k, v in raw.items() if k != key})


class TestBadJsonInput:
    """Malformed JSON input is a bad parameter: exit 2 and one error line."""

    @pytest.mark.parametrize(
        "command,text",
        [
            ("commit", without(TREE_PARAMS, "root_size")),
            ("commit", '{"symbol_size": 64,'),
            ("commit", json.dumps({**TREE_PARAMS, "batch": "8"})),
            ("commit", json.dumps([TREE_PARAMS])),
            ("commit", json.dumps({**TREE_PARAMS, "rate": "2/3", "batch": 6})),
            ("simulate", without(SCENARIO, "tree")),
            ("simulate", json.dumps({**SCENARIO, "behaviors": {"sleepy": 1}})),
            ("simulate", json.dumps({**SCENARIO, "behaviors": {"silent": "2"}})),
            ("simulate", json.dumps({**SCENARIO, "n_nodes": 0})),
            ("disperse", json.dumps({"n_chunks": 32, "n_nodes": 8})),
            ("metrics", without(COST_PARAMS, "batch")),
            ("metrics", without(COST_PARAMS, "eta")),
            ("incentives", without(INCENTIVE_PARAMS, "p_audit")),
            ("retrieve", json.dumps({"rounds": []})),
        ],
        ids=[
            "commit_missing_key", "commit_unparsable", "commit_wrong_type",
            "commit_not_an_object", "commit_rate_without_layer_codes", "simulate_missing_tree", "simulate_unknown_behavior",
            "simulate_count_not_an_int", "simulate_no_nodes", "disperse_missing_key",
            "metrics_missing_key", "metrics_no_lambda_nor_eta",
            "incentives_missing_key", "retrieve_trace_without_config",
        ],
    )
    def test_exits_params(self, tmp_path, small_block, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        (tmp_path / "block.bin").write_bytes(small_block)
        argv = {
            "commit": ("--block", tmp_path / "block.bin", "--params", path,
                       "--out-commitment", tmp_path / "c.bin"),
            "simulate": ("--scenario", path, "--out", tmp_path / "sim"),
            "disperse": ("--params", path, "--out", tmp_path / "design.txt"),
            "metrics": ("--params", path, "--out-prefix", tmp_path / "tables"),
            "incentives": ("--params", path),
            "retrieve": ("--trace", path),
        }[command]
        assert run(command, *argv) == cli.EXIT_PARAMS
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "Traceback" not in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", ["simulate", "retrieve"])
    @pytest.mark.parametrize(
        "oversized",
        [
            {"n_nodes": 10**9},
            # 32 systematic symbols, as in SCENARIO, of 128 MiB each
            {"block_size": 1 << 32, "tree": {**SCENARIO["tree"], "symbol_size": 1 << 27}},
        ],
        ids=["n_nodes", "block_size"],
    )
    def test_oversized_scenario_values_exit_params(self, tmp_path, command, oversized):
        # each value would size an allocation of gigabytes if read unchecked,
        # so the command runs in a child under a memory bound
        config = {**SCENARIO, **oversized}
        path = tmp_path / "input.json"
        if command == "simulate":
            path.write_text(json.dumps(config))
            argv = ("--scenario", path, "--out", tmp_path / "sim")
        else:
            path.write_text(json.dumps({"config": config}))
            argv = ("--trace", path, "--out-block", tmp_path / "block.bin")
        code, err = memory_bound(quiet_run, command, *argv)
        assert code == cli.EXIT_PARAMS
        assert err.startswith("error: ") and next(iter(oversized)) in err

    def test_malformed_indices_exit_params(self, workdir, capsys):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
        with pytest.raises(SystemExit) as exit_:
            run("pom", "--tree", d / "t.bin", "--indices", "1,,2", "--out", d / "p.bin")
        assert exit_.value.code == cli.EXIT_PARAMS
        err = capsys.readouterr().err
        assert "error: argument --indices" in err and "Traceback" not in err


# each hostile format goes to every command that reads it, with valid files
# for the other arguments
HOSTILE_COMMANDS = {
    "DAC1": (
        lambda d, x: ("verify", "--commitment", x, "--pom", d / "p.bin"),
        lambda d, x: ("retrieve", "--commitment", x, "--chunks", d / "all.bundle",
                      "--out-block", d / "out.bin"),
    ),
    "DAP1": (lambda d, x: ("verify", "--commitment", d / "c.bin", "--pom", x),),
    "DAB1": (
        lambda d, x: ("retrieve", "--commitment", d / "c.bin", "--chunks", x,
                      "--out-block", d / "out.bin"),
    ),
    "DAT1": (lambda d, x: ("pom", "--tree", x, "--all", "--out", d / "out.bundle"),),
}
EXIT_CODES = {
    cli.EXIT_OK, cli.EXIT_PARAMS, cli.EXIT_VERIFY_FAILED, cli.EXIT_FRAUD,
    cli.EXIT_INSUFFICIENT, cli.EXIT_BAD_CODE,
}
# wall-clock bound on one command; on valid files each runs in well under
# a second
COMMAND_BOUND_S = 10.0


@pytest.fixture(scope="module")
def valid_cli_files(tmp_path_factory, small_block):
    d = tmp_path_factory.mktemp("hostile")
    (d / "block.bin").write_bytes(small_block)
    (d / "tree_params.json").write_text(json.dumps(TREE_PARAMS))
    assert run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
               "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin") == cli.EXIT_OK
    assert run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "p.bin") == cli.EXIT_OK
    assert run("pom", "--tree", d / "t.bin", "--all", "--out", d / "all.bundle") == cli.EXIT_OK
    files = {"DAC1": "c.bin", "DAP1": "p.bin", "DAB1": "all.bundle", "DAT1": "t.bin"}
    return d, {kind: (d / name).read_bytes() for kind, name in files.items()}


@settings(max_examples=200, deadline=None)
@given(hostile_files(HOSTILE_COMMANDS))
def test_hostile_files_exit_with_a_documented_code(valid_cli_files, case):
    d, valid = valid_cli_files
    kind, how, edits = case
    x = d / "hostile.bin"
    x.write_bytes(hostile(valid[kind], how, edits))
    for argv in HOSTILE_COMMANDS[kind]:
        with time_bound(COMMAND_BOUND_S):
            code = run(*argv(d, x))
        assert code in EXIT_CODES, (kind, argv(d, x)[0], code)


@pytest.mark.parametrize(
    "name,offset,fmt,values",
    [("c.bin", 16, "<III", (2, 3, 6)), ("t.bin", 28, "<I", (1,))],
    ids=["commitment_rate_2_3", "tree_cache_degree_1"],
)
def test_params_without_layer_codes_exit_params(workdir, capsys, name, offset, fmt, values):
    # DAC1 and DAT1 share the tree-parameter layout: u32 rate num at offset
    # 16, den at 20, batch at 24 and max_eq_degree at 28
    d = workdir
    run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
        "--out-commitment", d / "c.bin", "--out-tree", d / "t.bin")
    run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "p.bin")
    blob = bytearray((d / name).read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    (d / name).write_bytes(bytes(blob))
    capsys.readouterr()
    if name == "c.bin":
        code = run("verify", "--commitment", d / "c.bin", "--pom", d / "p.bin")
    else:
        code = run("pom", "--tree", d / "t.bin", "--index", "15", "--out", d / "q.bin")
    assert code == cli.EXIT_PARAMS
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
