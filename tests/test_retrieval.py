"""Reconstruction round trips, fraud flavors, agreement, and bad codes."""

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import cit, codec, retrieval as rt
from daoracle._kernels import value_form
from daoracle.errors import BadCode, ParameterError
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.serialize import decode_fraud_proof, encode_fraud_proof
from daoracle.util import HASH_BYTES, sha256

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for, flipping
from test_geometry import _flip, _replace_at
from test_peel import family


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
        # ingest hashes each delivered base symbol, and a peel solve hashes
        # the symbol it checks against its slot in its decoded parent;
        # 64-byte inputs are exactly the base rows here (the symbols above
        # the base are q = 8 digests, 256 bytes)
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

    def test_every_chunk_delivered_hashes_only_root_parities(self, monkeypatch):
        # every base chunk's proof delivers every symbol of every layer
        # below the root and every root systematic symbol, so each is
        # certified at ingest; the root layer's parity symbols, which no
        # proof carries, are the only solves, each hashed once against the
        # commitment
        params = family(1024)
        block = np.random.default_rng(3).bytes(256 * 1024)
        tree = cit.build_tree(block, params)
        chunks = chunkset_for(tree, range(tree.sizes[-1]))
        hashed = []
        real = rt.sha256
        monkeypatch.setattr(rt, "sha256", lambda data: hashed.append(len(data)) or real(data))
        out = rt.reconstruct(tree.commitment, params, chunks)
        assert isinstance(out, rt.Block) and out.data == block
        t, s_root = params.root_size, params.root_size // params.rate.denominator
        assert hashed == [params.batch * HASH_BYTES] * (t - s_root)

    @pytest.mark.parametrize("field", ["index", "symbol"])
    def test_a_unit_that_disagrees_with_its_proof_is_skipped(
        self, small_tree, small_params, field
    ):
        # 7 base symbols stall the decode; the proof of an 8th completes it,
        # but not from a unit whose index or symbol differs from its proof
        c = small_tree.commitment
        chunks = chunkset_for(small_tree, range(7))
        without = rt.reconstruct(c, small_params, chunks)
        assert isinstance(without, rt.Insufficient)
        full = rt.reconstruct(c, small_params, chunkset_for(small_tree, range(8)))
        assert isinstance(full, rt.Block)
        pom = cit.sample_pom(small_tree, 7)
        if field == "index":
            unit = (8, pom.base_symbol, pom)
        else:
            unit = (7, _flip(pom.base_symbol, 5), pom)
        with_unit = rt.ChunkSet(c, chunks.units + (unit,))
        assert rt.reconstruct(c, small_params, with_unit) == without

    def test_chunks_labelled_with_another_commitment_raise(self, small_tree, small_params):
        # every unit verifies against the commitment reconstructed, but the
        # set names another tree's; an equal copy of the commitment is its own
        c = small_tree.commitment
        units = chunkset_for(small_tree, range(32)).units
        other = cit.build_tree(bytes(c.block_len), small_params).commitment
        with pytest.raises(ParameterError, match="another commitment"):
            rt.reconstruct(c, small_params, rt.ChunkSet(other, units))
        out = rt.reconstruct(c, small_params, rt.ChunkSet(dataclasses.replace(c), units))
        assert isinstance(out, rt.Block)

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
        # base symbol 3 (the small tree's base layer is depth 3)
        tree = cit.build_tree(small_block, small_params, flipping({3: [(3, 0x77)]}))
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
            bytes(small_tree.commitment.block_len), small_params
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

    def test_a_fraud_at_the_first_equation_loads_only_its_members(
        self, corrupted, monkeypatch
    ):
        # a value is loaded on first read: with every chunk delivered, the
        # base peel stops at its first equation and loads that equation's
        # members alone, and no layer loads a symbol twice
        loaded = []

        def spy(width):
            load, dump, nonzero = value_form(width)
            seen = []
            loaded.append(seen)

            def recorded(value):
                seen.append(value)
                return load(value)

            return recorded, dump, nonzero

        monkeypatch.setattr(rt, "value_form", spy)
        com = corrupted.commitment
        reader = rt._Reconstructor(com, chunkset_for(corrupted, range(32)))
        out = reader.run()
        depth = reader.depth
        assert isinstance(out, rt.Fraud)
        assert (out.proof.layer, out.proof.equation_no, out.proof.mismatch) == (depth, 0, None)
        assert len(loaded) == depth + 1
        base = reader.frontier.rows(depth)
        members = cit.layer_code(com.params, len(base)).parity_checks[out.proof.equation_no]
        assert len(members) < len(base)
        assert sorted(map(id, loaded[depth])) == sorted(id(base[i]) for i in members)
        for seen in loaded:
            assert len(set(map(id, seen))) == len(seen)

    def test_proof_encoding_round_trip(self, corrupted, small_params):
        out = rt.reconstruct(
            corrupted.commitment, small_params, chunkset_for(corrupted, range(32))
        )
        blob = encode_fraud_proof(out.proof)
        again = decode_fraud_proof(blob)
        assert again == out.proof
        assert rt.verify_fraud_proof(corrupted.commitment, small_params, again)
        assert rt.fraud_proof_size(out.proof) == len(blob)


@lru_cache(maxsize=None)
def fraud_flavours():
    """{name: (commitment, params, proof)}: an equation fraud on the base
    layer, a mismatch fraud on the base layer, and a mismatch fraud on the
    root layer, whose members and mismatch carry empty paths."""
    params = cit.TreeParams(**SMALL)
    block = bytes((i * 37 + 11) % 256 for i in range(512))
    cases = (
        ("equation", build_tree_with_base_corruption(block, params, xor_mask=0x5A), range(32)),
        (
            "mismatch",
            cit.build_tree(block, params, flipping({3: [(3, 0x77)]})),
            [i for i in range(32) if i != 3],
        ),
        # root symbol 1 is a parity symbol, which no proof carries: it is
        # solved, and misses its committed digest
        ("root", cit.build_tree(block, params, flipping({0: [(1, 0x5A)]})), range(32)),
    )
    out = {}
    for name, tree, keep in cases:
        result = rt.reconstruct(tree.commitment, params, chunkset_for(tree, keep))
        out[name] = (tree.commitment, params, result.proof)
    depth = cit.geometry(params, 512).depth
    assert out["equation"][2].layer == depth and out["equation"][2].mismatch is None
    assert out["mismatch"][2].layer == depth and out["mismatch"][2].mismatch is not None
    assert out["root"][2].layer == 0 and out["root"][2].mismatch is not None
    return out


MEMBER_MUTATIONS = (
    "layer_out_of_range", "layer", "equation_no_out_of_range", "equation_no", "equation",
    "duplicate_member", "foreign_member", "member_width", "member_value", "member_path",
    "drop_member",
)
MISMATCH_MUTATIONS = (
    "drop_mismatch", "mismatch_index", "mismatch_hash_width", "mismatch_hash", "mismatch_path",
)
FRAUD_MUTATIONS = [
    (flavour, kind)
    for flavour in ("equation", "mismatch", "root")
    for kind in MEMBER_MUTATIONS
    + (MISMATCH_MUTATIONS if flavour != "equation" else ("add_mismatch",))
]


def mutate_fraud(kind, commitment, params, proof, draw):
    """``proof`` with the one field ``kind`` names changed so that it no
    longer proves anything."""
    geo = cit.geometry(params, commitment.block_len)
    code = cit.layer_code(params, geo.sizes[proof.layer])
    eq = code.parity_checks[proof.equation_no]
    members, mm = proof.members, proof.mismatch
    j = draw(st.integers(0, len(members) - 1))
    member = members[j]
    replace = dataclasses.replace
    if kind == "layer_out_of_range":
        return replace(proof, layer=draw(st.sampled_from((-1, geo.depth + 1))))
    if kind == "layer":
        layer = draw(st.integers(0, geo.depth).filter(lambda v: v != proof.layer))
        return replace(proof, layer=layer)
    if kind == "equation_no_out_of_range":
        return replace(proof, equation_no=draw(st.sampled_from((-1, len(code.parity_checks)))))
    if kind == "equation_no":
        no = draw(st.integers(0, len(code.parity_checks) - 1).filter(
            lambda v: v != proof.equation_no))
        return replace(proof, equation_no=no)
    if kind == "equation":
        # another equation that holds one of the proof's members
        shared = [
            no for no, other in enumerate(code.parity_checks)
            if no != proof.equation_no and not set(other).isdisjoint(eq)
        ]
        return replace(proof, equation_no=draw(st.sampled_from(shared)))
    if kind == "duplicate_member":
        at = draw(st.integers(0, len(members)))
        return replace(proof, members=members[:at] + (member,) + members[at:])
    if kind == "foreign_member":
        index = draw(st.integers(-2, geo.sizes[proof.layer] + 1).filter(lambda v: v not in eq))
        return replace(proof, members=_replace_at(members, j, replace(member, index=index)))
    if kind == "member_width":
        value = member.value[:-1] if draw(st.booleans()) else member.value + b"\0"
        return replace(proof, members=_replace_at(members, j, replace(member, value=value)))
    if kind == "member_value":
        value = _flip(member.value, draw(st.integers(0, len(member.value) - 1)))
        return replace(proof, members=_replace_at(members, j, replace(member, value=value)))
    if kind == "member_path":
        # every member needs its own ancestors
        ancestors = forged_ancestors(draw, member.ancestors, members + ((mm,) if mm else ()))
        return replace(proof, members=_replace_at(members, j, replace(member, ancestors=ancestors)))
    if kind == "drop_member":
        return replace(proof, members=members[:j] + members[j + 1:])
    if kind == "add_mismatch":
        index = draw(st.sampled_from(eq))
        mismatch = rt.HashMismatch(index, sha256(member.value), member.ancestors)
        return replace(proof, mismatch=mismatch)
    if kind == "drop_mismatch":
        return replace(proof, mismatch=None)
    if kind == "mismatch_index":
        index = draw(st.one_of(
            st.integers(-2, geo.sizes[proof.layer] + 1).filter(lambda v: v not in eq),
            st.sampled_from([m.index for m in members]),
        ))
        return replace(proof, mismatch=replace(mm, index=index))
    if kind == "mismatch_hash_width":
        digest = mm.expected_hash[:-1] if draw(st.booleans()) else mm.expected_hash + b"\0"
        return replace(proof, mismatch=replace(mm, expected_hash=digest))
    if kind == "mismatch_hash":
        digest = _flip(mm.expected_hash, draw(st.integers(0, HASH_BYTES - 1)))
        return replace(proof, mismatch=replace(mm, expected_hash=digest))
    assert kind == "mismatch_path"
    ancestors = forged_ancestors(draw, mm.ancestors, members)
    return replace(proof, mismatch=replace(mm, ancestors=ancestors))


def forged_ancestors(draw, own, claims):
    """Ancestors other than a claim's ``own``: those of another of
    ``claims`` that differ, ``own`` with one byte flipped, or ``own`` with
    one ancestor too few or too many."""
    options = [claim.ancestors for claim in claims if claim.ancestors != own]
    options.append(own + (own[-1] if own else bytes(HASH_BYTES),))
    if own:
        k = draw(st.integers(0, len(own) - 1))
        flipped = _flip(own[k], draw(st.integers(0, len(own[k]) - 1)))
        options += [own[:-1], _replace_at(own, k, flipped)]
    return draw(st.sampled_from(options))


@pytest.mark.parametrize("flavour, kind", FRAUD_MUTATIONS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_each_single_field_mutation_of_a_fraud_proof_is_false(flavour, kind, data):
    commitment, params, proof = fraud_flavours()[flavour]
    assert rt.verify_fraud_proof(commitment, params, proof)
    bad = mutate_fraud(kind, commitment, params, proof, data.draw)
    assert not rt.verify_fraud_proof(commitment, params, bad)


class TestProofSize:
    def degree_d_fraud(self, params, block):
        """Corrupt the parity of a full-degree equation so the reported
        proof carries exactly max_eq_degree symbols."""
        base_size = params.layer_sizes(len(block))[-1]
        code = cit.layer_code(params, base_size)
        full = [
            eq
            for eq in code.parity_checks
            if len(eq) == params.max_eq_degree
        ]
        assert full, "reference code has no full-degree equation"
        target = full[0][-1]
        depth = cit.geometry(params, len(block)).depth
        tree = cit.build_tree(block, params, flipping({depth: [(target, 0x11)]}))
        out = rt.reconstruct(
            tree.commitment, params, chunkset_for(tree, range(base_size))
        )
        assert isinstance(out, rt.Fraud)
        assert len(code.parity_checks[out.proof.equation_no]) == params.max_eq_degree
        return out.proof

    @staticmethod
    def formula(params, block_len):
        # an equation fraud carries the d member values, each with its
        # ancestor at every layer above: q digests per layer
        levels = math.log(
            block_len
            / (params.symbol_size * params.root_size * float(params.rate)),
            params.batch * float(params.rate),
        )
        return params.max_eq_degree * (
            params.symbol_size + HASH_BYTES * params.batch * levels
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
        one_path = params.symbol_size + HASH_BYTES * params.batch * 5
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
        assert len(cit.layer_code(params, 32).parity_checks[out.proof.equation_no]) == 2


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

    @pytest.mark.xfail(
        raises=BadCode, strict=True,
        reason="the gate accepts a code that a stall at exactly alpha*m unknown indicts",
    )
    def test_a_gate_accepted_code_peels_from_one_minus_alpha_known(self, small_block):
        """A code the gate accepts never stalls with a BadCode from at least
        (1 - alpha)*m known symbols. The default 32-trial gate accepts the
        base code of BAD_BASE_CODE_SEED, yet withholding its stopping set,
        exactly alpha*m = 4 of the 32 symbols, stalls the peel: the gate
        calls a code bad only below alpha*m unknown, and reconstruction
        indicts it at up to alpha*m unknown."""
        params = cit.TreeParams(**{**SMALL, "code_seed": BAD_BASE_CODE_SEED})
        code = cit.layer_code(params, 32)
        assert params.gate_trials == 32
        assert not codec.is_bad_code(code, params.alpha, params.gate_trials, code.seed)
        tree = cit.build_tree(small_block, params)
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        assert len(keep) == (1 - params.alpha) * 32
        rt.reconstruct(tree.commitment, params, chunkset_for(tree, keep))

    def test_a_stall_at_exactly_one_minus_alpha_known_indicts_the_code(self):
        # alpha 0.7 over a 20-symbol base layer: 6 known symbols are exactly
        # 1 - alpha of it, though 6 / 20 < 1 - 0.7 in floats; 5 are below
        params = cit.TreeParams(
            symbol_size=16, root_size=10, rate=Fraction(1, 2), batch=4, max_eq_degree=4,
            alpha=0.7, code_seed=0, gate_trials=0,
        )
        tree = cit.build_tree(bytes(range(160)), params)
        assert cit.geometry(params, 160).sizes == (10, 20)
        assert 6 / 20 < 1 - params.alpha
        with pytest.raises(BadCode) as err:
            rt.reconstruct(tree.commitment, params, chunkset_for(tree, (0, 1, 2, 3, 6, 9)))
        assert (err.value.layer, err.value.layer_size, len(err.value.unknown)) == (1, 20, 14)
        assert err.value.known_fraction == 0.3
        out = rt.reconstruct(tree.commitment, params, chunkset_for(tree, (0, 1, 2, 3, 9)))
        assert out == rt.Insufficient(((0, 1.0), (1, 0.25)))

    def test_same_pattern_fine_on_gated_code(self, small_tree, small_params):
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        out = rt.reconstruct(
            small_tree.commitment, small_params, chunkset_for(small_tree, keep)
        )
        assert isinstance(out, rt.Block)
