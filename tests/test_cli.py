"""Exercise every subcommand and exit code through main(argv)."""

import functools
import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from daoracle import cit, cli, oracle as orc, retrieval as rt, simnet, serialize as sz
from daoracle.errors import ParameterError
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.util import sha256

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for
from hostile import hostile, hostile_files, memory_bound, time_bound
from test_serialize import RETIRED_MAGICS

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


def pom_inputs(d: Path) -> tuple:
    """``pom``'s inputs: the block in ``d`` and the commitment to it."""
    return ("--block", d / "block.bin", "--commitment", d / "c.bin")


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
            "--out-commitment", d / "c.bin",
        ) == cli.EXIT_OK
        assert run("pom", *pom_inputs(d), "--index", "15", "--out", d / "p.bin") == cli.EXIT_OK
        assert run("verify", "--commitment", d / "c.bin", "--pom", d / "p.bin") == cli.EXIT_OK
        assert run("pom", *pom_inputs(d), "--all", "--out", d / "all.bundle") == cli.EXIT_OK
        assert run(
            "retrieve", "--commitment", d / "c.bin", "--chunks", d / "all.bundle",
            "--out-block", d / "out.bin",
        ) == cli.EXIT_OK
        assert (d / "out.bin").read_bytes() == small_block

    def test_verification_failure_code(self, workdir, small_tree):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        pom = cit.sample_pom(small_tree, 3)
        bad = pom._replace(base_symbol=bytes(64))
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
            "--out-commitment", d / "c.bin")
        run("pom", *pom_inputs(d), "--indices", "0,1,2", "--out", d / "few.bundle")
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
                d / "tree_params.json", "--out-commitment", d / f"c_{tag}.bin")
        assert (d / "c_a.bin").read_bytes() == (d / "c_b.bin").read_bytes()

    @pytest.mark.parametrize("edit", ["flip", "drop", "add"])
    def test_pom_of_another_block_exits_verify_failed(self, workdir, capsys, edit):
        # one byte flipped, dropped or added; a block of another length is
        # refused before its tree is built, where a 513-byte block would
        # fail geometry (exit 2) instead
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        block = (d / "block.bin").read_bytes()
        other = {
            "flip": block[:100] + bytes([block[100] ^ 1]) + block[101:],
            "drop": block[:-1],
            "add": block + b"\0",
        }[edit]
        (d / "other.bin").write_bytes(other)
        for selector in (("--index", "15"), ("--all",)):
            capsys.readouterr()
            assert run(
                "pom", "--block", d / "other.bin", "--commitment", d / "c.bin", *selector,
                "--out", d / "out.bin",
            ) == cli.EXIT_VERIFY_FAILED
            assert "does not match the commitment" in capsys.readouterr().out
            assert not (d / "out.bin").exists()

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
        # DAC2 layout: magic(4) symbol_size u64 root_size u32, then the rate
        # as u32 numerator and u32 denominator at offset 16
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        run("pom", *pom_inputs(d), "--index", "15", "--out", d / "p.bin")
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
            "--out-commitment", d / "c.bin")
        proc = run_module("pom", *pom_inputs(d), flag, value, "--out", "p.bin", cwd=d)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not (d / "p.bin").exists()

    def test_hostile_gate_trials_exit_params(self, workdir):
        # gate_trials is the u32 at offset 52 of a DAC2 commitment
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        run("pom", *pom_inputs(d), "--all", "--out", d / "all.bundle")
        run("pom", *pom_inputs(d), "--index", "15", "--out", d / "p.bin")
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
        # DAC2 layout: magic(4) symbol_size u64, root_size u32, rate num
        # u32 and den u32, batch u32; batch 3 at rate 1/2 over 108 bytes of
        # 4-byte symbols is a geometry (16/24/36/54) where no proof verifies
        d = workdir
        params = cit.TreeParams(**json.loads((d / "tree_params.json").read_text()))
        com = cit.Commitment((bytes(32),) * params.root_size, params, 108)
        blob = bytearray(sz.encode_commitment(com))
        struct.pack_into("<QIIII", blob, 4, 4, 16, 1, 2, 3)
        (d / "c.bin").write_bytes(bytes(blob))
        (d / "short.bin").write_bytes(bytes(108))
        proc = run_module("pom", "--block", "short.bin", "--commitment", "c.bin",
                          "--index", "0", "--out", "p.bin", cwd=d)
        assert proc.returncode == cli.EXIT_PARAMS, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "batch * rate must be an integer" in proc.stderr
        assert not (d / "p.bin").exists()

    def test_oversized_base_layers_exit_params(self, workdir, capsys):
        # the two routes to a huge base layer, both 64-byte symbols at rate
        # 1/4: pom given a block of 2^18 + 64 bytes (16388 symbols) and a
        # commitment of that length, and retrieve given a commitment to
        # 2^30 bytes (2^26 symbols); no Commitment has either length, so
        # the u64 block_len at offset 60 of a DAC2 file is packed by hand
        d = workdir
        params = cit.TreeParams(**json.loads((d / "tree_params.json").read_text()))
        com = cit.Commitment((bytes(32),) * params.root_size, params, 512)
        blob = bytearray(sz.encode_commitment(com))
        wide = (1 << 18) + 64
        (d / "wide.bin").write_bytes(bytes(wide))
        for name, block_len in (("c_wide.bin", wide), ("c_long.bin", 1 << 30)):
            struct.pack_into("<Q", blob, 60, block_len)
            (d / name).write_bytes(bytes(blob))
        (d / "none.bundle").write_bytes(sz.encode_chunk_bundle(()))
        for argv in (
            ("pom", "--block", d / "wide.bin", "--commitment", d / "c_wide.bin", "--all",
             "--out", d / "out.bundle"),
            ("retrieve", "--commitment", d / "c_long.bin", "--chunks", d / "none.bundle",
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

    def test_feasibility_counts_on_the_values_as_written(self, tmp_path, capsys):
        # gamma/lam = 0.02/0.1 is eta = 0.2 exactly: on the counting line,
        # which lies in the gap
        spec = {"n_chunks": 20, "n_nodes": 2, "lambda": 0.1, "gamma": 0.02, "eta": 0.2}
        (tmp_path / "d.json").write_text(json.dumps(spec))
        assert run(
            "disperse", "--params", tmp_path / "d.json", "--out", tmp_path / "design.txt"
        ) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("; feasibility: indeterminate\n")

    def test_byte_stable_under_seed(self, tmp_path):
        spec = {"n_chunks": 32, "n_nodes": 8, "lambda": 0.5}
        (tmp_path / "d.json").write_text(json.dumps(spec))
        run("disperse", "--params", tmp_path / "d.json", "--design-seed", 3,
            "--out", tmp_path / "a.txt")
        run("disperse", "--params", tmp_path / "d.json", "--design-seed", 3,
            "--out", tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestDisperseBounds:
    """A design's counts are read from a file and size an (N, k) array, so
    each is bounded before anything is allocated: the command exits 2 with
    one error line, within a time bound, in a child under a memory bound."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"n_chunks": 32, "n_nodes": 0, "lambda": 0.5},
            {"n_chunks": -32, "n_nodes": -8, "lambda": 0.5},
            {"n_chunks": 32, "n_nodes": 8, "lambda": 0},
            {"n_chunks": 32, "n_nodes": 8, "lambda": -0.5},
            {"n_chunks": 2**40, "n_nodes": 1, "lambda": 1.0},
            {"n_chunks": 1024, "n_nodes": 1, "lambda": 2.0**-20},
            {"n_chunks": 2**20, "n_nodes": 2**10, "lambda": 0.5},
        ],
        ids=["no_nodes", "negative", "lambda_zero", "lambda_negative",
             "chunks_2_40", "slots_2_30", "slots_2_21"],
    )
    def test_out_of_bounds_design_exits_params(self, tmp_path, spec):
        (tmp_path / "d.json").write_text(json.dumps(spec))
        argv = ("disperse", "--params", "d.json", "--out", "design.txt")
        with time_bound(COMMAND_BOUND_S):
            proc = memory_bound(functools.partial(run_module, cwd=tmp_path), *argv)
        assert proc.returncode == cli.EXIT_PARAMS
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
        assert not (tmp_path / "design.txt").exists()

    def test_the_cap_admits_a_full_design(self, tmp_path):
        spec = {"n_chunks": 1024, "n_nodes": 1, "lambda": 2.0**-10}
        (tmp_path / "d.json").write_text(json.dumps(spec))
        assert run(
            "disperse", "--params", tmp_path / "d.json", "--out", tmp_path / "design.txt"
        ) == cli.EXIT_OK
        assert len((tmp_path / "design.txt").read_text().split()) == 1 << 20


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
        out.mkdir()  # an empty directory is as good as a new one
        assert run("simulate", "--scenario", path, "--out", out) == cli.EXIT_OK
        assert {f.name for f in out.iterdir()} == {"trace.json", "chain.log", "commitment_0.bin"}
        assert (out / "chain.log").read_text().startswith("COMMIT")
        retrievals = json.loads((out / "trace.json").read_text())["rounds"][0]["retrievals"]
        assert [entry["outcome"] for entry in retrievals] == ["block", "block"]

    def test_a_chain_without_records_writes_an_empty_log(self, tmp_path):
        # the equivocating proposer's round gathers too few votes to commit
        out = tmp_path / "sim"
        path = self.scenario(tmp_path, strategy="equivocating")
        assert run("simulate", "--scenario", path, "--out", out) == cli.EXIT_OK
        assert json.loads((out / "trace.json").read_text())["chain"] == []
        assert (out / "chain.log").read_text() == ""

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

    def test_each_fraud_file_convicts_the_commitment_file_of_its_round(self, tmp_path):
        # simulate's files are enough to check a fraud proof outside the
        # process: fraud_N.bin is the N-th FRAUD line of chain.log, and it
        # convicts the commitment_<r>.bin of the round with that line's key
        shipped = Path(__file__).parents[1] / "scenarios"
        commitments = {}
        for name in ("all_honest", "invalid_coding"):
            out = tmp_path / name
            assert run("simulate", "--scenario", shipped / f"{name}.json", "--out", out) == 0
            trace = json.loads((out / "trace.json").read_text())
            rounds, chain = trace["rounds"], trace["chain"]
            frauds = sum(1 for line in chain if line.startswith("FRAUD"))
            assert {f.name for f in out.iterdir()} == {
                "trace.json", "chain.log",
                *(f"commitment_{r}.bin" for r in range(len(rounds))),
                *(f"fraud_{n}.bin" for n in range(frauds)),
            }
            assert len(rounds) > 0
            assert (out / "chain.log").read_text().splitlines() == chain
            for entry in rounds:
                blob = (out / f"commitment_{entry['round']}.bin").read_bytes()
                commitment = sz.decode_commitment(blob)
                assert orc.commit_key(commitment).hex()[:16] == entry["key"]
                commitments[name, entry["key"]] = commitment
        out = tmp_path / "invalid_coding"
        chain = (out / "chain.log").read_text().splitlines()
        frauds = [line.split() for line in chain if line.startswith("FRAUD")]
        assert len(list(out.glob("fraud_*.bin"))) == len(frauds) > 0
        honest = sz.decode_commitment((tmp_path / "all_honest" / "commitment_0.bin").read_bytes())
        for n, (_, key, layer, eq) in enumerate(frauds):
            proof = sz.decode_fraud_proof((out / f"fraud_{n}.bin").read_bytes())
            assert (layer, eq) == (f"layer={proof.layer}", f"eq={proof.equation_no}")
            commitment = commitments["invalid_coding", key.removeprefix("key=")]
            assert rt.verify_fraud_proof(commitment, commitment.params, proof)
            assert not rt.verify_fraud_proof(honest, honest.params, proof)

    def test_simulate_past_the_round_caps_exits_params_before_any_tree(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(orc, "build_tree", lambda *a, **k: built.append(a))
        config = json.loads(self.scenario(tmp_path).read_text())
        for rounds in (simnet.MAX_ROUNDS + 1, simnet.MAX_PROPOSED_BYTES // 65536 + 1):
            (tmp_path / "s.json").write_text(json.dumps({**config, "rounds": rounds}))
            code = run("simulate", "--scenario", tmp_path / "s.json", "--out", tmp_path / "o")
            assert code == cli.EXIT_PARAMS
            assert capsys.readouterr().err.startswith("error: rounds must be at most")
        assert built == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("occupied", ("stale_run", "a_file"))
    def test_simulate_refuses_an_occupied_out_before_any_round(
        self, tmp_path, capsys, monkeypatch, occupied
    ):
        # an earlier run's fraud_0.bin would sit beside a chain.log that
        # names no fraud; the directory is left exactly as it was
        path, out = self.scenario(tmp_path), tmp_path / "sim"
        if occupied == "stale_run":
            out.mkdir()
            (out / "fraud_0.bin").write_bytes(b"an earlier run's proof")
            (out / "sentinel").write_text("keep")
        else:
            out.write_text("keep")
        before = sorted((f.name, f.read_bytes()) for f in tmp_path.rglob("*") if f.is_file())
        ran = []
        monkeypatch.setattr(simnet, "run_scenario", lambda config: ran.append(config))
        code = run("simulate", "--scenario", path, "--out", out)
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARAMS and ran == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not an empty directory" in err
        after = sorted((f.name, f.read_bytes()) for f in tmp_path.rglob("*") if f.is_file())
        assert after == before

    def test_the_scenario_is_read_before_the_out_directory(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "sentinel").write_text("keep")
        (tmp_path / "s.json").write_text("{}")
        code = run("simulate", "--scenario", tmp_path / "s.json", "--out", tmp_path / "sim")
        assert code == cli.EXIT_PARAMS
        assert "not an empty directory" not in capsys.readouterr().err

    @pytest.mark.parametrize("beta, threshold", ((0.25, 15), (0.75, 25)))
    def test_summary_names_the_commit_threshold(self, tmp_path, capsys, beta, threshold):
        # the shipped all-honest scenario with beta 0.75 needs 25 votes of
        # 20 nodes: it still runs and exits 0, and the line says why
        # nothing committed
        shipped = Path(__file__).parents[1] / "scenarios" / "all_honest.json"
        config = json.loads(shipped.read_text())
        (tmp_path / "s.json").write_text(json.dumps({**config, "beta": beta}))
        assert run("simulate", "--scenario", tmp_path / "s.json", "--out", tmp_path / "o") == 0
        line = capsys.readouterr().out
        committed = 0 if threshold > 20 else 2
        assert line.startswith(
            f"simulated 2 round(s); {committed} committed, commit threshold "
            f"ceil((beta + gamma)*N) = {threshold} of N = 20"
        )
        assert ("(above N: no round can commit)" in line) is (threshold > 20)

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
        assert "\ncoded dispersal (this package),0.49," in baselines
        # the README cost point's outputs, byte for byte
        assert file_digest(tmp_path / "tables.json") == (
            "15323caef8f2954f739bd0e95b299074fd6103b5b4a7c882bd5433305d99ed67"
        )
        assert file_digest(tmp_path / "tables_baselines.csv") == (
            "8edd77e3f023550930ca849d4a97cd28c7e9a93b248be67355d396866c9f0c9c"
        )

    def test_coded_fraction_is_empty_without_beta(self, tmp_path):
        # lambda stands in for beta and eta, so the input states no
        # tolerance, as the 1D-RS row states no bytes
        spec = {k: v for k, v in COST_PARAMS.items() if k not in ("beta", "eta")}
        (tmp_path / "m.json").write_text(json.dumps({**spec, "lambda": 1.0}))
        assert run(
            "metrics", "--params", tmp_path / "m.json",
            "--out-prefix", tmp_path / "tables",
        ) == cli.EXIT_OK
        baselines = (tmp_path / "tables_baselines.csv").read_text()
        assert "\ncoded dispersal (this package),,O(1)," in baselines
        assert file_digest(tmp_path / "tables_baselines.csv") == (
            "d3ee8cfb341fbe9aaa56faa66b7d4a5956e1bde19b953cc9c4dbd7164fa41af0"
        )

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
        # the best response to all-C is cooperating, at eta_b*B/k - r_m - c_s;
        # to all-O it is staying offline, at 0
        assert report["all_cooperate"]["best_deviation"] == {"action": "C", "utility": 4.5}
        assert report["all_offline"]["best_deviation"] == {"action": "O", "utility": 0.0}
        # the README incentive point's report, byte for byte
        assert file_digest(tmp_path / "i_out.json") == INCENTIVE_REPORT_DIGEST

    def test_incentives_reads_only_the_oracle_node_keys(self, tmp_path):
        # no check reads the committee and proposer stakes or the
        # aggregation cost, so a file need not carry them
        (tmp_path / "i.json").write_text(json.dumps(INCENTIVE_PARAMS))
        code, err = quiet_run(
            "incentives", "--params", tmp_path / "i.json", "--out", tmp_path / "i_out.json",
        )
        assert (code, err) == (cli.EXIT_OK, "")
        assert file_digest(tmp_path / "i_out.json") == INCENTIVE_REPORT_DIGEST


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
SUBNORMAL_LAMBDA_SCENARIO = {
    **SCENARIO, "dispersal": {**SCENARIO["dispersal"], "lambda": 1e-320}
}
# the seven keys `incentives` reads, at the README point
INCENTIVE_PARAMS = {
    "p_audit": 0.2, "stake_oracle": 50, "submission_fee": 0.5, "block_reward": 100,
    "reward_fraction": 0.6, "verify_cost": 1.0, "n_signatures": 10,
}
# sha256 of the `incentives --out` report at the README point
INCENTIVE_REPORT_DIGEST = "989569ec122ceed48bbdc4df1e432273ad4eb1c3b3a56b3bf4c8b49242b85ac0"


def file_digest(path: Path) -> str:
    return sha256(path.read_bytes()).hex()


def quiet_run(*argv) -> tuple[int, str]:
    """``run(*argv)``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(*argv)
    return code, err.getvalue()


def without(raw: dict, key: str) -> str:
    return json.dumps({k: v for k, v in raw.items() if k != key})


def scenario_argv(tmp_path, config: dict) -> tuple:
    """The arguments that make ``simulate`` read ``config`` as its scenario."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config))
    return ("--scenario", path, "--out", tmp_path / "sim")


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
            ("simulate", json.dumps({**SCENARIO, "proposer_strategy": "lazy"})),
            ("simulate", json.dumps({**SCENARIO, "rounds": -1})),
            ("simulate", json.dumps({**SCENARIO, "audit_probability": 1.5})),
            ("simulate", json.dumps({**SCENARIO, "behaviors": ["honest"] * 19})),
            # each count fits in n_nodes = 20, the two together do not
            ("simulate", json.dumps(
                {**SCENARIO, "behaviors": {"silent": 12, "withhold_after_vote": 12}}
            )),
            ("disperse", json.dumps({"n_chunks": 32, "n_nodes": 8})),
            ("metrics", without(COST_PARAMS, "batch")),
            ("metrics", without(COST_PARAMS, "eta")),
            # without lambda, beta must lie in [0, 0.5)
            ("metrics", json.dumps({**COST_PARAMS, "beta": 0.6})),
            ("metrics", json.dumps({**COST_PARAMS, "root_size": 0})),
            ("metrics", json.dumps({**COST_PARAMS, "n_nodes": 0})),
            ("metrics", json.dumps({**COST_PARAMS, "root_size": -4})),
            ("metrics", json.dumps({**COST_PARAMS, "max_eq_degree": 0})),
            ("metrics", json.dumps({**COST_PARAMS, "block_size": float("nan")})),
            ("metrics", json.dumps({**COST_PARAMS, "symbol_size": float("inf")})),
            ("metrics", json.dumps({**COST_PARAMS, "lambda": float("nan")})),
            ("metrics", json.dumps({**COST_PARAMS, "n_nodes": 10**400})),
            # finite inputs whose closed forms overflow a float
            ("metrics", json.dumps({**COST_PARAMS, "block_size": 1e308})),
            ("metrics", json.dumps({**COST_PARAMS, "symbol_size": 1e-300})),
            # a finite report whose uncoded baselines' N * b overflows
            ("metrics", json.dumps(
                {**COST_PARAMS, "block_size": 1e304, "n_nodes": 10**6, "lambda": 1.0}
            )),
            # finite inputs whose log argument b/(c*t*r) rounds to 0, or whose
            # c*t*r does, or overflows, or whose divisor N*r*c*lam rounds to
            # 0, or whose 1 - eta rounds to 1 so that ln(1/(1-eta)) is 0
            ("metrics", json.dumps({**COST_PARAMS, "block_size": 5e-324})),
            ("metrics", json.dumps({**COST_PARAMS, "symbol_size": 5e-324, "root_size": 1})),
            ("metrics", json.dumps({**COST_PARAMS, "symbol_size": 1e308})),
            ("metrics", json.dumps({
                **COST_PARAMS, "block_size": 1e-16, "n_nodes": 1, "symbol_size": 5e-324,
                "root_size": 4, "lambda": 1.0,
            })),
            ("metrics", json.dumps({**COST_PARAMS, "eta": 1e-320})),
            # a block smaller than c*t*r has a negative layer count, which
            # with d = 1 turns the fraud proof size negative
            ("metrics", json.dumps({**COST_PARAMS, "block_size": 1000, "max_eq_degree": 1})),
            # the baselines table gives beta as the max adversary fraction
            ("metrics", json.dumps({**COST_PARAMS, "beta": 7, "lambda": 0.5})),
            ("incentives", without(INCENTIVE_PARAMS, "p_audit")),
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "stake_oracle": float("nan")})),
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "n_signatures": float("inf")})),
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "block_reward": 10**400})),
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "n_signatures": 2.5})),
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "n_signatures": 0})),
            # a share of the block reward, so at most all of it
            ("incentives", json.dumps({**INCENTIVE_PARAMS, "reward_fraction": 5})),
            # a subnormal lambda lies in (0, 1], yet M/(N*lambda) overflows
            ("disperse", json.dumps({"n_chunks": 32, "n_nodes": 8, "lambda": 1e-320})),
            ("simulate", json.dumps(SUBNORMAL_LAMBDA_SCENARIO)),
            # each beyond its width in the DAC2 tree parameters (FORMATS.md)
            ("commit", json.dumps({**TREE_PARAMS, "code_seed": -1})),
            ("commit", json.dumps({**TREE_PARAMS, "code_seed": 2**64})),
            ("commit", json.dumps({**TREE_PARAMS, "max_eq_degree": 2**32})),
            ("simulate", json.dumps({**SCENARIO, "tree": {**SCENARIO["tree"], "code_seed": -1}})),
            ("simulate", json.dumps(
                {**SCENARIO, "tree": {**SCENARIO["tree"], "code_seed": 2**64}}
            )),
            # finite params whose audit slack p_a*(stk_o + reward) - c_s
            # overflows a float, which JSON cannot write
            ("incentives", json.dumps({
                **INCENTIVE_PARAMS, "p_audit": 1, "stake_oracle": 1.7e308,
                "block_reward": 1.7e308, "reward_fraction": 1,
            })),
        ],
        ids=[
            "commit_missing_key", "commit_unparsable", "commit_wrong_type",
            "commit_not_an_object", "commit_rate_without_layer_codes", "simulate_missing_tree", "simulate_unknown_behavior",
            "simulate_count_not_an_int", "simulate_no_nodes", "simulate_unknown_strategy",
            "simulate_negative_rounds", "simulate_audit_above_one",
            "simulate_behaviors_list_too_short", "simulate_counts_exceed_nodes",
            "disperse_missing_key", "metrics_missing_key", "metrics_no_lambda_nor_eta",
            "metrics_beta_without_lambda_above_half", "metrics_no_root",
            "metrics_no_nodes", "metrics_negative_root", "metrics_degree_zero",
            "metrics_nan_block", "metrics_infinite_symbol", "metrics_nan_lambda",
            "metrics_nodes_past_float", "metrics_block_overflows", "metrics_symbol_underflows",
            "metrics_baselines_overflow", "metrics_log_argument_underflows",
            "metrics_symbol_span_underflows", "metrics_symbol_span_overflows",
            "metrics_divisor_underflows", "metrics_lambda_from_tiny_eta",
            "metrics_block_below_root_layer", "metrics_beta_with_lambda_above_half",
            "incentives_missing_key", "incentives_nan_stake",
            "incentives_infinite_signatures", "incentives_reward_past_float",
            "incentives_fractional_signatures", "incentives_no_signatures",
            "incentives_share_above_one",
            "disperse_subnormal_lambda", "simulate_subnormal_lambda",
            "commit_code_seed_negative", "commit_code_seed_past_u64", "commit_degree_past_u32",
            "simulate_code_seed_negative", "simulate_code_seed_past_u64",
            "incentives_slack_overflows",
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
            "incentives": ("--params", path, "--out", tmp_path / "incentives.json"),
        }[command]
        assert run(command, *argv) == cli.EXIT_PARAMS
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "Traceback" not in out.err
        assert out.out == ""
        assert not (tmp_path / "incentives.json").exists()

    @pytest.mark.parametrize("command", ["simulate"])
    @pytest.mark.parametrize(
        "oversized",
        [
            {"n_nodes": 10**9},
            # 32 systematic symbols, as in SCENARIO, of 128 MiB each
            {"block_size": 1 << 32, "tree": {**SCENARIO["tree"], "symbol_size": 1 << 27}},
            # one node and lambda 2**-20 over 128 chunks: a 1 GiB design
            {"dispersal": {**SCENARIO["dispersal"], "lambda": 2.0**-20}, "n_nodes": 1},
            # one ledger per client is made before any round runs
            {"n_clients": simnet.MAX_CLIENTS + 1, "rounds": 0},
            # a behavior count sizes the list of non-honest roles
            {"behaviors": {"silent": 2**62}},
            {"behaviors": {"silent": -1}},
        ],
        ids=["n_nodes", "block_size", "design_slots", "n_clients", "behavior_count_huge",
             "behavior_count_negative"],
    )
    def test_oversized_scenario_values_exit_params(self, tmp_path, command, oversized):
        # each value would size an allocation of gigabytes if read unchecked,
        # so the command runs in a child under a memory bound
        argv = scenario_argv(tmp_path, {**SCENARIO, **oversized})
        code, err = memory_bound(quiet_run, command, *argv)
        assert code == cli.EXIT_PARAMS
        assert err.startswith("error: ") and next(iter(oversized)) in err

    @pytest.mark.parametrize("command", ["simulate"])
    @pytest.mark.parametrize(
        "beta", [float("nan"), float("inf"), -0.25, 1.5],
        ids=["nan", "infinity", "negative", "above_one"],
    )
    def test_beta_outside_the_unit_interval_exits_params(self, tmp_path, capsys, command, beta):
        # json writes and reads NaN and Infinity as bare words
        argv = scenario_argv(tmp_path, {**SCENARIO, "beta": beta})
        assert run(command, *argv) == cli.EXIT_PARAMS
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "beta" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pom", *pom_inputs(Path()), "--index", "3", "--all", "--out", "out.bin"),
            ("pom", *pom_inputs(Path()), "--index", "3", "--indices", "1,2", "--out", "out.bin"),
            ("pom", *pom_inputs(Path()), "--out", "out.bin"),
            ("retrieve", "--commitment", "c.bin", "--chunks", "all.bundle",
             "--trace", "trace.json", "--out-block", "out.bin"),
            ("retrieve", "--commitment", "c.bin", "--out-block", "out.bin"),
            ("retrieve", "--chunks", "all.bundle", "--out-block", "out.bin"),
            ("retrieve", "--commitment", "c.bin", "--trace", "trace.json",
             "--out-block", "out.bin"),
        ],
        ids=["pom_index_and_all", "pom_index_and_indices", "pom_no_selector",
             "retrieve_chunks_and_trace", "retrieve_no_source", "retrieve_chunks_alone",
             "retrieve_trace_with_commitment"],
    )
    def test_selectors_exit_params(self, workdir, capsys, monkeypatch, argv):
        # exactly one of pom's --index, --indices and --all, and both of
        # retrieve's --commitment and --chunks, with no flag retrieve does
        # not take (--trace); the rest are refused before any file is read
        # or written
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        run("pom", *pom_inputs(d), "--all", "--out", d / "all.bundle")
        (d / "trace.json").write_text("{}")
        capsys.readouterr()
        monkeypatch.chdir(d)
        with pytest.raises(SystemExit) as exit_:
            run(*argv)
        assert exit_.value.code == cli.EXIT_PARAMS
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not (d / "out.bin").exists()

    def test_malformed_indices_exit_params(self, workdir, capsys):
        d = workdir
        run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
            "--out-commitment", d / "c.bin")
        with pytest.raises(SystemExit) as exit_:
            run("pom", *pom_inputs(d), "--indices", "1,,2", "--out", d / "p.bin")
        assert exit_.value.code == cli.EXIT_PARAMS
        err = capsys.readouterr().err
        assert "error: argument --indices" in err and "Traceback" not in err


# each hostile format goes to every command that reads it, with valid files
# for the other arguments
HOSTILE_COMMANDS = {
    "DAC2": (
        lambda d, x: ("verify", "--commitment", x, "--pom", d / "p.bin"),
        lambda d, x: ("pom", "--block", d / "block.bin", "--commitment", x, "--all",
                      "--out", d / "out.bundle"),
        lambda d, x: ("retrieve", "--commitment", x, "--chunks", d / "all.bundle",
                      "--out-block", d / "out.bin"),
    ),
    "DAP2": (lambda d, x: ("verify", "--commitment", d / "c.bin", "--pom", x),),
    "DAB2": (
        lambda d, x: ("retrieve", "--commitment", d / "c.bin", "--chunks", x,
                      "--out-block", d / "out.bin"),
    ),
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
               "--out-commitment", d / "c.bin") == cli.EXIT_OK
    assert run("pom", *pom_inputs(d), "--index", "15", "--out", d / "p.bin") == cli.EXIT_OK
    assert run("pom", *pom_inputs(d), "--all", "--out", d / "all.bundle") == cli.EXIT_OK
    files = {"DAC2": "c.bin", "DAP2": "p.bin", "DAB2": "all.bundle"}
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


@pytest.mark.parametrize("retired", RETIRED_MAGICS)
def test_a_retired_magic_exits_params(valid_cli_files, retired):
    """A file of a replaced or removed layout is not read as a current
    one: each valid file that ``pom``, ``verify`` or ``retrieve --chunks``
    reads, behind a retired magic, is a bad parameter with one ``error:``
    line."""
    d, valid = valid_cli_files
    x = d / "retired.bin"
    for kind in ("DAC2", "DAP2", "DAB2"):
        x.write_bytes(retired.encode() + valid[kind][4:])
        for argv in HOSTILE_COMMANDS[kind]:
            code, err = quiet_run(*argv(d, x))
            assert code == cli.EXIT_PARAMS, (retired, kind, argv(d, x)[0])
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert "Traceback" not in err


# block lengths with no geometry under TREE_PARAMS (64-byte symbols at rate
# 1/4, q = 8, t = 4): 96 base symbols halve to 3, never to 4; 65536 base
# symbols pass the cap; 36 base symbols halve to 4.5
NO_GEOMETRY_BLOCK_LENS = (1536, 1 << 20, 513)


@pytest.mark.parametrize("command", ["verify", "pom", "retrieve"])
@pytest.mark.parametrize("block_len", NO_GEOMETRY_BLOCK_LENS)
def test_a_commitment_with_no_geometry_exits_params_in_every_reader(
    valid_cli_files, command, block_len
):
    """A DAC2 file whose u64 block_len (offset 60) has no geometry names no
    tree, so decoding it fails: ``verify``, ``pom --index`` and ``retrieve
    --chunks`` each exit 2 with the one ``error:`` line of the geometry
    fault, and write nothing."""
    d, valid = valid_cli_files
    blob = bytearray(valid["DAC2"])
    struct.pack_into("<Q", blob, 60, block_len)
    x, out = d / "no_geometry.bin", d / "no_geometry.out"
    x.write_bytes(bytes(blob))
    out.unlink(missing_ok=True)
    with pytest.raises(ParameterError) as fault:
        cit.geometry(cit.TreeParams(**TREE_PARAMS), block_len)
    code, err = quiet_run(*{
        "verify": ("verify", "--commitment", x, "--pom", d / "p.bin"),
        "pom": ("pom", "--block", d / "block.bin", "--commitment", x, "--index", "15",
                "--out", out),
        "retrieve": ("retrieve", "--commitment", x, "--chunks", d / "all.bundle",
                     "--out-block", out, "--out-fraud", out),
    }[command])
    assert (code, err) == (cli.EXIT_PARAMS, f"error: {fault.value}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "offset,fmt,values,command",
    [(16, "<III", (2, 3, 6), "verify"), (28, "<I", (1,), "pom")],
    ids=["commitment_rate_2_3", "tree_cache_degree_1"],
)
def test_params_without_layer_codes_exit_params(workdir, capsys, offset, fmt, values, command):
    # the tree parameters of a DAC2 file: u32 rate num at offset 16, den
    # at 20, batch at 24 and max_eq_degree at 28
    d = workdir
    run("commit", "--block", d / "block.bin", "--params", d / "tree_params.json",
        "--out-commitment", d / "c.bin")
    run("pom", *pom_inputs(d), "--index", "15", "--out", d / "p.bin")
    blob = bytearray((d / "c.bin").read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    (d / "c.bin").write_bytes(bytes(blob))
    capsys.readouterr()
    code = run(*{
        "verify": ("verify", "--commitment", d / "c.bin", "--pom", d / "p.bin"),
        "pom": ("pom", *pom_inputs(d), "--index", "15", "--out", d / "q.bin"),
    }[command])
    assert code == cli.EXIT_PARAMS
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
