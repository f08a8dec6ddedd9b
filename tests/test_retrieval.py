"""Reconstruction round trips, fraud flavors, agreement, and bad codes."""

import dataclasses
import math

import numpy as np
import pytest

from daoracle import cit, retrieval as rt
from daoracle.errors import BadCode
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.serialize import decode_fraud_proof, encode_fraud_proof

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for


def eta_subsets(rng, m, eta, count):
    take = math.ceil(eta * m)
    for _ in range(count):
        yield sorted(rng.choice(m, size=take, replace=False).tolist())


class TestRoundTrip:
    def test_full_chunks(self, small_tree, small_block, small_params):
        out = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, range(32))
        )
        assert isinstance(out, rt.Block)
        assert out.data == small_block

    def test_every_eta_subset_recovers_the_block(
        self, small_tree, small_block, small_params
    ):
        rng = np.random.default_rng(12)
        for subset in eta_subsets(rng, 32, 0.875, 40):
            out = rt.reconstruct(
                small_tree.commitment, small_params, chunkset_for(small_tree, subset)
            )
            assert isinstance(out, rt.Block)
            assert out.data == small_block

    def test_rebuilt_commitment_matches(self, small_tree, small_block, small_params):
        out = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, range(28))
        )
        rebuilt = cit.build_tree(out.data, small_params)
        assert rebuilt.commitment == small_tree.commitment

    def test_never_fraud_on_honest_tree(self, small_tree, small_params):
        rng = np.random.default_rng(13)
        for _ in range(60):
            size = int(rng.integers(1, 33))
            subset = rng.choice(32, size=size, replace=False).tolist()
            out = rt.reconstruct(
                small_tree.commitment, small_params, chunkset_for(small_tree, subset)
            )
            assert not isinstance(out, rt.Fraud)

    def test_below_threshold_is_insufficient(self, small_tree, small_params):
        out = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, [0, 1, 2])
        )
        assert isinstance(out, rt.Insufficient)
        fractions = dict(out.known_fractions)
        assert fractions[3] < 1 - small_params.alpha

    @pytest.mark.parametrize("every", [1, 4, 8], ids=["all", "3_of_4", "7_of_8"])
    def test_each_base_row_is_hashed_once(
        self, small_tree, small_block, small_params, monkeypatch, every
    ):
        # ingest hashes each delivered base symbol, a peel solve hashes the
        # symbol it checks, and the aggregation check hashes only the rows
        # neither did; 64-byte inputs are exactly the base rows here (digests
        # are 32 bytes and the joined q-tuples 8 x 32)
        m = small_tree.sizes[-1]
        chunks = chunkset_for(small_tree, [i for i in range(m) if every == 1 or i % every])
        hashed = []
        for module in (cit, rt):
            real = module.sha256
            monkeypatch.setattr(
                module, "sha256", lambda data, _real=real: hashed.append(len(data)) or _real(data)
            )
        out = rt.reconstruct(small_tree.commitment, small_params, chunks)
        assert isinstance(out, rt.Block) and out.data == small_block
        assert hashed.count(small_params.symbol_size) == m

    def test_agreement_between_independent_retrievers(
        self, small_tree, small_params
    ):
        rng = np.random.default_rng(14)
        results = []
        for subset in eta_subsets(rng, 32, 0.875, 6):
            out = rt.reconstruct(
                small_tree.commitment, small_params, chunkset_for(small_tree, subset)
            )
            results.append(out.data)
        assert len(set(results)) == 1


@pytest.fixture(scope="module")
def corrupted(small_block, small_params):
    return build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)


class TestFraud:

    def test_parity_corruption_yields_verified_fraud(self, corrupted, small_params):
        out = rt.reconstruct(
            corrupted.commitment, small_params, chunkset_for(corrupted, range(32))
        )
        assert isinstance(out, rt.Fraud)
        assert rt.verify_fraud_proof(corrupted.commitment, small_params, out.proof)

    def test_fraud_from_eta_subsets_too(self, corrupted, small_params):
        rng = np.random.default_rng(15)
        for subset in eta_subsets(rng, 32, 0.875, 10):
            out = rt.reconstruct(
                corrupted.commitment, small_params, chunkset_for(corrupted, subset)
            )
            assert isinstance(out, (rt.Fraud, rt.Block))
            assert isinstance(out, rt.Fraud)
            assert rt.verify_fraud_proof(
                corrupted.commitment, small_params, out.proof
            )

    def test_agreement_on_fraud(self, corrupted, small_params):
        rng = np.random.default_rng(16)
        kinds = {
            type(
                rt.reconstruct(
                    corrupted.commitment,
                    small_params,
                    chunkset_for(corrupted, subset),
                )
            )
            for subset in eta_subsets(rng, 32, 0.875, 6)
        }
        assert kinds == {rt.Fraud}

    def test_systematic_corruption_caught_via_committed_digest(
        self, small_block, small_params
    ):
        # corrupting a systematic symbol and withholding it forces the
        # decoder to solve it from a parity equation; the solved value then
        # contradicts the digest the commitment pins for that position
        tree = build_tree_with_base_corruption(
            small_block, small_params, corrupt_index=3, xor_mask=0x77
        )
        subset = [i for i in range(32) if i != 3]
        out = rt.reconstruct(
            tree.commitment, small_params, chunkset_for(tree, subset)
        )
        assert isinstance(out, rt.Fraud)
        assert rt.verify_fraud_proof(tree.commitment, small_params, out.proof)

    def test_fabricated_proof_from_consistent_data_fails(
        self, small_tree, small_params
    ):
        # honest symbols cannot fail a parity equation
        full = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, range(32))
        )
        assert isinstance(full, rt.Block)
        corrupted = build_tree_with_base_corruption(
            bytes(small_tree.block_len), small_params
        )
        mixed = rt.reconstruct(
            corrupted.commitment, small_params, chunkset_for(corrupted, range(32))
        )
        assert isinstance(mixed, rt.Fraud)
        # the proof convicts its own commitment, not the honest one
        assert not rt.verify_fraud_proof(
            small_tree.commitment, small_params, mixed.proof
        )

    def test_mutated_proof_fails(self, corrupted, small_params):
        out = rt.reconstruct(
            corrupted.commitment, small_params, chunkset_for(corrupted, range(32))
        )
        proof = out.proof
        member = proof.members[0]
        swapped = dataclasses.replace(
            proof,
            members=(dataclasses.replace(member, value=bytes(len(member.value))),)
            + proof.members[1:],
        )
        assert not rt.verify_fraud_proof(corrupted.commitment, small_params, swapped)
        truncated = dataclasses.replace(proof, members=proof.members[1:])
        assert not rt.verify_fraud_proof(
            corrupted.commitment, small_params, truncated
        )
        relabeled = dataclasses.replace(proof, equation_no=proof.equation_no + 1)
        assert not rt.verify_fraud_proof(
            corrupted.commitment, small_params, relabeled
        )

    def test_proof_encoding_round_trip(self, corrupted, small_params):
        out = rt.reconstruct(
            corrupted.commitment, small_params, chunkset_for(corrupted, range(32))
        )
        blob = encode_fraud_proof(out.proof)
        again = decode_fraud_proof(blob)
        assert again == out.proof
        assert rt.verify_fraud_proof(corrupted.commitment, small_params, again)
        assert rt.fraud_proof_size(out.proof) == len(blob)


class TestProofSize:
    def degree_d_fraud(self, params, block):
        """Corrupt the parity of a full-degree equation so the reported
        proof carries exactly max_eq_degree symbols."""
        base_size = params.layer_sizes(len(block))[-1]
        code = cit.layer_code(params, base_size)
        full = [
            eq
            for eq in code.parity_checks
            if len(eq.symbol_indices) == params.max_eq_degree
        ]
        assert full, "reference code has no full-degree equation"
        target = full[0].symbol_indices[-1]
        tree = build_tree_with_base_corruption(
            block, params, corrupt_index=target, xor_mask=0x11
        )
        out = rt.reconstruct(
            tree.commitment, params, chunkset_for(tree, range(base_size))
        )
        assert isinstance(out, rt.Fraud)
        assert len(out.proof.equation.symbol_indices) == params.max_eq_degree
        return out.proof

    @staticmethod
    def formula(params, block_len):
        levels = math.log(
            block_len
            / (params.symbol_size * params.root_size * float(params.rate)),
            params.batch * float(params.rate),
        )
        return (params.max_eq_degree - 1) * params.symbol_size + (
            params.max_eq_degree
            * params.hash_size
            * (params.batch - 1)
            * levels
        )

    def test_reference_tree_within_ten_percent(self, small_block, small_params):
        proof = self.degree_d_fraud(small_params, small_block)
        measured = rt.fraud_proof_size(proof)
        expect = self.formula(small_params, len(small_block))
        assert abs(measured - expect) / expect < 0.10

    def test_larger_tree_within_one_path_rounding(self):
        params = cit.TreeParams(**{**SMALL, "symbol_size": 2048})
        block = bytes((i * 31) % 251 for i in range(65536))
        proof = self.degree_d_fraud(params, block)
        measured = rt.fraud_proof_size(proof)
        expect = self.formula(params, len(block))
        one_path = params.symbol_size + params.hash_size * (params.batch - 1) * 5
        assert abs(measured - expect) <= one_path

    def test_smallest_equation_degree_two(self, small_params):
        # a repetition-layer equation has two symbols: one value is carried,
        # one is derivable
        params = cit.TreeParams(**{**SMALL, "max_eq_degree": 2})
        block = bytes(512)
        tree = build_tree_with_base_corruption(block, params)
        out = rt.reconstruct(
            tree.commitment, params, chunkset_for(tree, range(32))
        )
        assert isinstance(out, rt.Fraud)
        assert len(out.proof.equation.symbol_indices) == 2


class TestBadCode:
    def test_planted_stopping_set_raises_bad_code(self, small_block):
        params = cit.TreeParams(
            **{**SMALL, "code_seed": BAD_BASE_CODE_SEED, "gate_trials": 0}
        )
        tree = cit.build_tree(small_block, params)
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        with pytest.raises(BadCode) as err:
            rt.reconstruct(tree.commitment, params, chunkset_for(tree, keep))
        assert err.value.known_fraction >= 1 - params.alpha

    def test_same_pattern_fine_on_gated_code(self, small_tree, small_params):
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        out = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, keep)
        )
        assert isinstance(out, rt.Block)
