"""Node behaviors, the trusted-chain mock, retrieval, audits, bad codes."""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from daoracle import cit, oracle as orc, retrieval as rt
from daoracle.dispersal import DispersalDesign, assign_chunks
from daoracle.errors import BadCode, ParameterError

from conftest import BAD_BASE_CODE_SEED, BAD_BASE_STOPPING_SET, SMALL, chunkset_for


@pytest.fixture()
def setup(small_block, small_params):
    design = assign_chunks(32, 4, 1.0, seed=21)  # 8 chunks per node
    tree, messages = orc.client_disperse(small_block, small_params, design)
    return design, tree, messages


class TestDisperse:
    def test_unit_count_follows_the_design(self, setup):
        design, _tree, messages = setup
        for node_id, msg in messages.items():
            assert len(msg.assigned) == design.k_per_node
            assert {i for i, _, _ in msg.units} == set(msg.assigned)

    def test_empty_assignment_gets_commitment_only(self, setup, small_tree):
        design, tree, _ = setup
        empty = DispersalDesign(32, 1, 0, np.zeros((1, 0), dtype=np.int64))
        messages = orc.messages_for_tree(tree, empty)
        assert messages[0].units == ()
        node = orc.OracleNode(0)
        vote = orc.node_on_dispersal(node, messages[0])
        assert vote is not None and node.stored == {}

    def test_a_design_for_another_chunk_count_is_refused(self, small_tree):
        design = assign_chunks(64, 4, 1.0, seed=21)
        with pytest.raises(ParameterError, match="^design covers 64 chunks but tree has 32$"):
            orc.messages_for_tree(small_tree, design)


class TestNodeBehavior:
    def test_honest_votes_and_stores(self, setup):
        _, tree, messages = setup
        node = orc.OracleNode(1)
        vote = orc.node_on_dispersal(node, messages[1])
        assert vote == orc.Vote(1, orc.commit_key(tree.commitment))
        assert len(node.stored) == len(messages[1].units)

    def test_honest_rejects_one_tampered_unit(self, setup):
        _, _tree, messages = setup
        msg = messages[2]
        idx, symbol, pom = msg.units[0]
        bad_pom = pom._replace(base_symbol=bytes(len(pom.base_symbol)))
        bad_units = ((idx, bytes(len(symbol)), bad_pom),) + msg.units[1:]
        tampered = dataclasses.replace(msg, units=bad_units)
        node = orc.OracleNode(2)
        assert orc.node_on_dispersal(node, tampered) is None
        assert node.stored == {}

    def test_silent_does_nothing(self, setup):
        _, _, messages = setup
        node = orc.OracleNode(3, orc.Behavior.SILENT)
        assert orc.node_on_dispersal(node, messages[3]) is None
        assert node.stored == {}

    def test_vote_without_store_votes_with_empty_storage(self, setup):
        _, tree, messages = setup
        node = orc.OracleNode(0, orc.Behavior.VOTE_WITHOUT_STORE)
        vote = orc.node_on_dispersal(node, messages[0])
        assert vote == orc.Vote(0, orc.commit_key(messages[0].commitment))
        assert node.stored == {}

    def test_withholder_stores_but_refuses_retrieval(self, setup):
        _, tree, messages = setup
        node = orc.OracleNode(1, orc.Behavior.WITHHOLD_AFTER_VOTE)
        assert orc.node_on_dispersal(node, messages[1]) is not None
        assert len(node.stored) > 0
        assert orc.node_on_retrieval(node, orc.commit_key(tree.commitment)) == ()


class TestChain:
    def votes(self, tree, ids):
        key = orc.commit_key(tree.commitment)
        return [orc.Vote(i, key) for i in ids]

    def test_exact_threshold_commits(self, setup):
        _, tree, _ = setup
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        assert chain.commit_threshold == 3
        status = orc.chain_submit_votes(chain, tree.commitment, self.votes(tree, [0, 1, 2]))
        assert status.committed and status.block_id == 0

    def test_threshold_is_exact_on_the_written_decimals(self):
        # (0.1 + 0.2) * 10 is 3.0000000000000004 in floats
        assert orc.TrustedChain(n_nodes=10, beta=0.1, gamma=0.2).commit_threshold == 3

    def test_below_threshold_pends(self, setup):
        _, tree, _ = setup
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        status = orc.chain_submit_votes(chain, tree.commitment, self.votes(tree, [0, 1]))
        assert not status.committed and status.block_id is None

    def test_duplicate_votes_count_once(self, setup):
        _, tree, _ = setup
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        status = orc.chain_submit_votes(
            chain, tree.commitment, self.votes(tree, [1, 1, 1, 2])
        )
        assert status.distinct_votes == 2 and not status.committed

    def test_commit_is_idempotent_and_ids_increase(self, setup, small_params):
        _, tree, _ = setup
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        first = orc.chain_submit_votes(chain, tree.commitment, self.votes(tree, [0, 1, 2]))
        again = orc.chain_submit_votes(chain, tree.commitment, self.votes(tree, [3]))
        assert again.block_id == first.block_id
        other = cit.build_tree(bytes(i % 251 for i in range(512)), small_params)
        second = orc.chain_submit_votes(
            chain, other.commitment, [orc.Vote(i, orc.commit_key(other.commitment)) for i in range(3)]
        )
        assert second.block_id == first.block_id + 1
        assert [type(r).__name__ for r in chain.records] == ["CommitRecord"] * 2

    def test_fraud_against_a_commitment_never_committed_is_false_unchecked(
        self, monkeypatch
    ):
        # the README's params at the longest block the base cap admits,
        # 2**16 bytes: checking a proof at the base layer would generate and
        # gate a code of 4096 symbols (about 0.4 s)
        params = cit.TreeParams(
            symbol_size=64, root_size=4, rate=Fraction(1, 4), batch=8,
            max_eq_degree=8, alpha=0.125, code_seed=5,
        )
        forged = cit.Commitment(root=(bytes(32),) * 4, params=params, block_len=1 << 16)
        depth = cit.geometry(params, forged.block_len).depth
        proof = rt.FraudProof(depth, 0, (), None)
        calls = []
        real = rt.layer_code
        monkeypatch.setattr(rt, "layer_code", lambda *args: calls.append(args) or real(*args))
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        start = time.perf_counter()
        assert not orc.chain_submit_fraud(chain, forged, proof)
        assert time.perf_counter() - start < 0.1
        assert calls == [] and chain.records == [] and chain.invalid == set()

    def test_a_failing_proof_against_a_committed_commitment_is_false(
        self, setup, small_block, small_params
    ):
        # a proof that verifies against the corrupted tree's commitment, sent
        # against the honest one the chain committed
        _, tree, _ = setup
        bad = orc.build_tree_with_base_corruption(small_block, small_params, xor_mask=0x3C)
        result = rt.reconstruct(bad.commitment, small_params, chunkset_for(bad, range(32)))
        assert rt.verify_fraud_proof(bad.commitment, small_params, result.proof)
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        votes = self.votes(tree, [0, 1, 2])
        assert orc.chain_submit_votes(chain, tree.commitment, votes).committed
        assert not orc.chain_submit_fraud(chain, tree.commitment, result.proof)
        assert [type(r).__name__ for r in chain.records] == ["CommitRecord"]
        assert orc.commit_key(tree.commitment) not in chain.invalid

    def test_log_lines(self, setup):
        _, tree, _ = setup
        chain = orc.TrustedChain(n_nodes=4, beta=0.25, gamma=0.5)
        orc.chain_submit_votes(chain, tree.commitment, self.votes(tree, [0, 1, 2]))
        assert chain.log_lines()[0].startswith("COMMIT id=0")


class TestRetrieve:
    def run_network(self, block, params, behaviors, design_seed=21, corrupt=False):
        design = assign_chunks(32, len(behaviors), 1.0, seed=design_seed)
        if corrupt:
            tree = orc.build_tree_with_base_corruption(block, params, xor_mask=0x3C)
            messages = orc.messages_for_tree(tree, design)
        else:
            tree, messages = orc.client_disperse(block, params, design)
        nodes = [orc.OracleNode(i, b) for i, b in enumerate(behaviors)]
        chain = orc.TrustedChain(len(nodes), beta=0.25, gamma=0.5)
        votes = [
            v
            for node in nodes
            if (v := orc.node_on_dispersal(node, messages[node.node_id])) is not None
        ]
        status = orc.chain_submit_votes(chain, tree.commitment, votes)
        return design, tree, nodes, chain, status

    def test_all_honest_end_to_end(self, small_block, small_params):
        _, tree, nodes, chain, status = self.run_network(
            small_block, small_params, [orc.Behavior.HONEST] * 4
        )
        assert status.committed
        out = orc.client_retrieve(chain, nodes, tree.commitment, small_params)
        assert isinstance(out, rt.Block) and out.data == small_block

    def test_withholders_cannot_block_retrieval(self, small_block, small_params):
        behaviors = [orc.Behavior.HONEST] * 3 + [orc.Behavior.WITHHOLD_AFTER_VOTE]
        _, tree, nodes, chain, status = self.run_network(
            small_block, small_params, behaviors
        )
        assert status.committed and status.distinct_votes == 4
        out = orc.client_retrieve(chain, nodes, tree.commitment, small_params)
        assert isinstance(out, rt.Block) and out.data == small_block

    def test_invalid_coding_lands_on_chain(self, small_block, small_params):
        _, tree, nodes, chain, status = self.run_network(
            small_block, small_params, [orc.Behavior.HONEST] * 4, corrupt=True
        )
        assert status.committed  # proofs verify; the code, not the hashes, lies
        out = orc.client_retrieve(chain, nodes, tree.commitment, small_params)
        assert isinstance(out, rt.Fraud)
        key = orc.commit_key(tree.commitment)
        assert key in chain.invalid
        assert any(isinstance(r, orc.FraudRecord) for r in chain.records)


class TestAudit:
    def test_probability_zero_never_audits(self, setup):
        design, tree, messages = setup
        nodes = [orc.OracleNode(i) for i in range(4)]
        chain = orc.TrustedChain(4, 0.25, 0.5)
        votes = [orc.node_on_dispersal(n, messages[n.node_id]) for n in nodes]
        orc.chain_submit_votes(chain, tree.commitment, votes)
        rng = np.random.default_rng(0)
        out = orc.audit(chain, nodes, tree.commitment, 0.0, rng, design)
        assert out == orc.AuditOutcome(None, None, 0.0)

    def test_freerider_is_slashed_and_honest_passes(self, setup):
        design, tree, messages = setup
        behaviors = [orc.Behavior.VOTE_WITHOUT_STORE] + [orc.Behavior.HONEST] * 3
        nodes = [orc.OracleNode(i, b) for i, b in enumerate(behaviors)]
        chain = orc.TrustedChain(4, 0.25, 0.5)
        votes = [orc.node_on_dispersal(n, messages[n.node_id]) for n in nodes]
        orc.chain_submit_votes(chain, tree.commitment, votes)
        slashed = honest_passes = 0
        rng = np.random.default_rng(7)
        for _ in range(40):
            out = orc.audit(chain, nodes, tree.commitment, 1.0, rng, design)
            assert out.audited is not None
            if out.audited == 0:
                assert out.passed is False and out.slashed > 0
                slashed += 1
            else:
                assert out.passed is True and out.slashed == 0
                honest_passes += 1
        assert slashed > 0 and honest_passes > 0

    def test_symbols_that_differ_from_their_proofs_fail(self, setup):
        # every node keeps its proofs but zeroes its symbols: it can serve
        # no block, so no audit may pass it
        design, tree, messages = setup
        nodes = [orc.OracleNode(i) for i in range(4)]
        chain = orc.TrustedChain(4, 0.25, 0.5)
        votes = [orc.node_on_dispersal(n, messages[n.node_id]) for n in nodes]
        orc.chain_submit_votes(chain, tree.commitment, votes)
        for node in nodes:
            for key, (idx, symbol, pom) in node.stored.items():
                node.stored[key] = (idx, bytes(len(symbol)), pom)
        rng = np.random.default_rng(7)
        for _ in range(5):
            out = orc.audit(chain, nodes, tree.commitment, 1.0, rng, design)
            assert out.audited is not None and out.passed is False


class TestBadCodeRound:
    def bad_network(self, small_block):
        params = cit.TreeParams(
            **{**SMALL, "code_seed": BAD_BASE_CODE_SEED, "gate_trials": 0}
        )
        tree = cit.build_tree(small_block, params)
        nodes = [orc.OracleNode(i) for i in range(4)]
        key = orc.commit_key(tree.commitment)
        base = tree.layers[-1].symbols
        keep = [i for i in range(32) if i not in BAD_BASE_STOPPING_SET]
        for rank, idx in enumerate(keep):
            node = nodes[rank % 4]
            node.stored[(key, idx)] = (idx, base[idx].tobytes(), cit.sample_pom(tree, idx))
        # each node answers for key from its assignment, as after dispersal
        for node in nodes:
            node.assigned[key] = tuple(keep[node.node_id::4])
        return params, tree, nodes

    def test_confirmed_stall_moves_the_seed(self, small_block):
        params, tree, nodes = self.bad_network(small_block)
        chain = orc.TrustedChain(4, 0.25, 0.5)
        with pytest.raises(BadCode) as err:
            orc.client_retrieve(chain, nodes, tree.commitment, params)
        new_seed = orc.bad_code_round(nodes, tree.commitment, err.value, chain)
        assert new_seed > params.code_seed
        regenerated = dataclasses.replace(params, code_seed=new_seed)
        assert cit.layer_code(regenerated, 32)  # passes the alpha gate
        assert any(isinstance(r, orc.BadCodeRecord) for r in chain.records)

    def test_a_second_round_reads_the_seed_by_key(self, small_block):
        # the agreed seed is looked up by commitment key, never by scanning
        # the record log; the second call has no nodes to pool, so only the
        # lookup can give it the agreed seed
        class NoScan(list):
            def __iter__(self):
                raise AssertionError("the record log was scanned")

        params, tree, nodes = self.bad_network(small_block)
        chain = orc.TrustedChain(4, 0.25, 0.5, records=NoScan())
        with pytest.raises(BadCode) as err:
            orc.client_retrieve(chain, nodes, tree.commitment, params)
        agreed = orc.bad_code_round(nodes, tree.commitment, err.value, chain)
        assert agreed > params.code_seed
        assert orc.bad_code_round([], tree.commitment, err.value, chain) == agreed
        key = orc.commit_key(tree.commitment)
        assert list.copy(chain.records) == [
            orc.BadCodeRecord(key, 32, params.code_seed, agreed)
        ]

    def test_replacement_is_the_same_at_every_node(self, small_block):
        params, tree, nodes = self.bad_network(small_block)
        with pytest.raises(BadCode) as err:
            orc.client_retrieve(
                orc.TrustedChain(4, 0.25, 0.5), nodes, tree.commitment, params
            )
        # a fresh chain per call, so each call pools and gates again
        seeds = {
            orc.bad_code_round(
                nodes, tree.commitment, err.value, orc.TrustedChain(4, 0.25, 0.5)
            )
            for _ in range(3)
        }
        assert len(seeds) == 1

    def test_no_replacement_seed_that_passes_the_gate_raises(self, small_block, monkeypatch):
        # the round tries one replacement seed, code_seed + 1; when its
        # layer_code search finds no code that passes the gate, that
        # search's BadCode is the round's, and nothing is recorded
        params, tree, nodes = self.bad_network(small_block)
        chain = orc.TrustedChain(4, 0.25, 0.5)
        with pytest.raises(BadCode) as err:
            orc.client_retrieve(chain, nodes, tree.commitment, params)
        seeds = []

        def unreachable_gate(candidate, layer_size):
            # the stall is confirmed through retrieval's own layer codes;
            # only the replacement's search meets alpha = 0.9
            seeds.append(candidate.code_seed)
            gated = dataclasses.replace(candidate, alpha=0.9, gate_trials=32)
            return cit.layer_code(gated, layer_size)

        monkeypatch.setattr(orc, "layer_code", unreachable_gate)
        attempts = params.max_code_attempts
        with pytest.raises(
            BadCode, match=rf"^no code of size 32 met alpha=0\.9 within {attempts} attempts$"
        ) as again:
            orc.bad_code_round(nodes, tree.commitment, err.value, chain)
        assert seeds == [params.code_seed + 1]
        assert again.value.layer_size == 32
        assert again.value.code_seed == params.code_seed + 1
        assert chain.records == [] and chain.new_seeds == {}

    @staticmethod
    def stalled_round(params, monkeypatch):
        """A commitment under params whose pooled reconstruct stalls at
        layer size 32, and the signal a client would have caught."""
        commitment = cit.Commitment((bytes(32),) * params.root_size, params, 512)

        def stall(*_args):
            raise BadCode("stalled", layer_size=32)

        monkeypatch.setattr(orc, "reconstruct", stall)
        return commitment, BadCode("stalled", layer_size=32)

    def test_replacement_seeds_wrap_within_a_u64(self, small_params, monkeypatch):
        # the seed after the top of its u64 is 0, a seed that TreeParams
        # admits and DAC2 holds
        params = dataclasses.replace(small_params, code_seed=2**64 - 1, alpha=0.9)
        commitment, signal = self.stalled_round(params, monkeypatch)
        seeds = []

        def spy(candidate, layer_size):
            seeds.append(candidate.code_seed)
            return cit.layer_code(candidate, layer_size)

        monkeypatch.setattr(orc, "layer_code", spy)
        with pytest.raises(BadCode, match=r"^no code of size 32 met alpha=0\.9 ") as err:
            orc.bad_code_round([], commitment, signal, orc.TrustedChain(4, 0.25, 0.5))
        assert seeds == [0]
        assert err.value.layer_size == 32 and err.value.code_seed == 0

    @pytest.mark.parametrize("max_attempts", (0, 4, cit.MAX_CODE_ATTEMPTS))
    def test_a_confirmed_round_runs_one_code_search(self, small_params, monkeypatch, max_attempts):
        # with every candidate code failing the gate, a confirmed round
        # costs one layer_code search: max(1, max_code_attempts) gated
        # codes, not one search per replacement seed
        params = dataclasses.replace(
            small_params, code_seed=0x5EED_B0B, alpha=0.9, max_code_attempts=max_attempts
        )
        commitment, signal = self.stalled_round(params, monkeypatch)
        searches, gated = [], []
        real_search, real_gate = orc.layer_code, cit.is_bad_code
        monkeypatch.setattr(
            orc, "layer_code", lambda *a: searches.append(a) or real_search(*a)
        )
        monkeypatch.setattr(
            cit, "is_bad_code", lambda *a, **k: gated.append(a) or real_gate(*a, **k)
        )
        chain = orc.TrustedChain(4, 0.25, 0.5)
        with pytest.raises(BadCode) as err:
            orc.bad_code_round([], commitment, signal, chain)
        assert len(searches) == 1
        assert len(gated) == max(1, max_attempts)
        assert str(err.value).startswith("no code of size 32 ")
        assert chain.records == [] and chain.new_seeds == {}

    def test_good_code_is_a_no_op(self, small_block, small_tree, small_params):
        design = assign_chunks(32, 4, 1.0, seed=3)
        _tree, messages = orc.client_disperse(small_block, small_params, design)
        nodes = [orc.OracleNode(i) for i in range(4)]
        for node in nodes:
            orc.node_on_dispersal(node, messages[node.node_id])
        signal = BadCode("spurious", layer=3, layer_size=32)
        assert (
            orc.bad_code_round(
                nodes, small_tree.commitment, signal, orc.TrustedChain(4, 0.25, 0.5)
            )
            == small_params.code_seed
        )
