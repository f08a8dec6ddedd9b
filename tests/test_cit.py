"""Tree construction, membership sampling/verification, index lemmas."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from daoracle import cit, retrieval as rt
from daoracle._kernels import PARALLEL_MIN_BYTES
from daoracle.errors import BadCode, ParameterError
from daoracle.util import sha256

from conftest import SMALL, chunkset_for, covered_layers, flipping, pairs_table, params_for
from conftest import random_geometries, sizes_for
from fraction_geometry import pom_pairs


def assert_proofs_share_rows(tree):
    """Every digest layer of ``tree`` is a tuple of bytes rows q * 32 bytes
    wide, and every ancestor and parity symbol of every proof sampled from
    it is the tree's own row object, not a copy."""
    params, depth = tree.commitment.params, len(tree.layers) - 1
    geo = cit.geometry(params, tree.commitment.block_len)
    for layer in tree.layers[:-1]:
        assert type(layer.symbols) is tuple
        assert all(type(row) is bytes and len(row) == params.batch * 32 for row in layer.symbols)
    for i in range(geo.sizes[-1]):
        pom = cit.sample_pom(tree, i)
        for j, ancestor in enumerate(pom.ancestors):
            u = depth - 1 - j
            assert ancestor is tree.layers[u].symbols[i % geo.sys_counts[u]]
        for j, parity in enumerate(pom.parities):
            u = depth - 1 - j
            s = geo.sys_counts[u]
            assert parity is tree.layers[u].symbols[s + i % (geo.sizes[u] - s)]


class TestGeometry:
    def test_reference_layer_sizes(self, small_params, small_block):
        assert small_params.layer_sizes(len(small_block)) == (4, 8, 16, 32)

    def test_rejects_batch_below_two(self):
        with pytest.raises(ParameterError):
            cit.TreeParams(**{**SMALL, "batch": 1})

    def test_rejects_rate_one(self):
        with pytest.raises(ParameterError):
            cit.TreeParams(**{**SMALL, "rate": Fraction(1)})

    def test_rejects_batch_times_rate_not_an_integer(self):
        # batch 3 at rate 1/2 shrinks each layer by 3/2: over 108 bytes of
        # 4-byte symbols the sizes are 16/24/36/54, layer 1's systematic
        # count 12 does not divide layer 2's 18, and the pair a proof
        # samples at layer 1 (i mod 12) is not the parent its digest chain
        # climbs through ((i mod 18) mod 12), so no honest proof verifies
        sizes, half = (16, 24, 36, 54), SimpleNamespace(rate=Fraction(1, 2))
        sampled = [pom_pairs(half, sizes, i)[1][0] for i in range(54)]
        assert [(i % 18) % 12 for i in range(54)] != sampled
        with pytest.raises(ParameterError, match=r"batch \* rate must be an integer"):
            cit.TreeParams(
                symbol_size=4, root_size=16, rate=Fraction(1, 2), batch=3,
                max_eq_degree=4, alpha=0.1,
            )

    def test_rejects_geometry_missing_the_root(self, small_params):
        # 3 base symbols -> 12 coded, and 12/(q*r) = 6 never reaches 4
        with pytest.raises(ParameterError):
            small_params.layer_sizes(3 * small_params.symbol_size)

    def test_padding_keeps_true_length(self, small_params):
        block = b"x" * 450  # pads to 8 symbols = 512 bytes
        tree = cit.build_tree(block, small_params)
        assert tree.commitment.block_len == 450
        assert tree.sizes == (4, 8, 16, 32)

    @pytest.mark.parametrize(
        "u, systematic",
        [pytest.param(u, False, id=f"{u}") for u in range(4)]
        + [pytest.param(u, True, id=f"{u}-systematic") for u in range(4)],
    )
    def test_tamper_applies_before_hashing(
        self, small_tree, small_block, small_params, u, systematic
    ):
        # a parity or a systematic symbol of layer u flipped: the hook sees
        # each layer once, base to root, the sampled proofs carry the
        # flipped row, and layer u violates its code, which a
        # reconstruction from every chunk convicts
        geo, seen = cit.geometry(small_params, len(small_block)), []
        s = geo.sys_counts[u]
        flipped = s - 1 if systematic else s + 1
        flip = flipping({u: [(flipped, 0x80)]})

        def tamper(w, symbols, code):
            seen.append((w, code))
            flip(w, symbols, code)

        tree = cit.build_tree(small_block, small_params, tamper)
        assert seen == [(w, cit.layer_code(small_params, geo.sizes[w])) for w in (3, 2, 1, 0)]
        for w in range(u, 4):
            pairs = zip(tree.layers[w].symbols, small_tree.layers[w].symbols)
            diff = [x for x, (a, b) in enumerate(pairs) if bytes(a) != bytes(b)]
            assert diff == ([flipped] if w == u else [])
        assert_proofs_share_rows(small_tree)
        assert_proofs_share_rows(tree)
        poms = [cit.sample_pom(tree, i) for i in range(32)]
        row = bytes(tree.layers[u].symbols[flipped])
        walks = [True] * 32
        if systematic and u == 3:
            assert poms[flipped].base_symbol == row
        elif systematic:
            # the ancestor at layer u of every proof under the flipped row
            # is that row, and the child at its slot 0, symbol ``flipped``
            # of layer u + 1, no longer hashes to that slot: exactly the
            # proofs climbing through that child fail
            assert [pom.ancestors[2 - u] == row for pom in poms] == [
                i % s == flipped for i in range(32)
            ]
            below = geo.sys_counts[u + 1] if u < 2 else 32
            walks = [i % below != flipped for i in range(32)]
        assert [cit.Frontier(tree.commitment).walk(pom) for pom in poms] == walks
        fraud = rt.reconstruct(tree.commitment, small_params, chunkset_for(tree, range(32)))
        assert fraud.proof.layer == u
        assert rt.verify_fraud_proof(tree.commitment, small_params, fraud.proof)

    def test_build_tree_hashes_each_row_once(self, small_tree, small_block, monkeypatch):
        # every row of every layer is hashed once, with a hook or without,
        # and only a hook's edits change the build; a parent is its q child
        # digests, read from the child layer's digests without hashing its
        # rows again, and the commitment is the root layer's digests
        geo, real = cit.geometry(small_tree.commitment.params, len(small_block)), cit.sha256
        parities = flipping({u: [(s, 0x0F)] for u, s in enumerate(geo.sys_counts)})
        for tamper in (None, lambda *_: None, parities):
            hashed = []
            monkeypatch.setattr(cit, "sha256", lambda d: hashed.append(bytes(d)) or real(d))
            tree = cit.build_tree(small_block, small_tree.commitment.params, tamper)
            monkeypatch.undo()
            rows = [bytes(row) for layer in tree.layers for row in layer.symbols]
            assert sorted(hashed) == sorted(rows)
            assert len(hashed) == sum(geo.sizes)
            for u, s in enumerate(geo.sys_counts[:-1]):
                for k in range(s):
                    joined = b"".join(map(sha256, tree.layers[u + 1].symbols[k::s]))
                    assert tree.layers[u].symbols[k] == joined
            assert tree.commitment.root == tuple(sha256(row) for row in rows[: geo.sizes[0]])
            assert (tree.commitment == small_tree.commitment) is (tamper is not parities)

    @pytest.mark.parametrize("width", (PARALLEL_MIN_BYTES, 2 * PARALLEL_MIN_BYTES + 3))
    def test_a_no_op_hook_builds_the_tree_the_pipelined_hash_builds(self, width):
        # base rows this wide are hashed while the encode runs without a
        # hook, and after it with one: both orders build the same tree;
        # a hook that edits a digest layer still leaves its proofs sharing
        # the tree's rows
        params = cit.TreeParams(**{**SMALL, "symbol_size": width})
        block = np.random.default_rng(width).bytes(8 * width - 5)
        plain = cit.build_tree(block, params)
        hooked = cit.build_tree(block, params, lambda *_: None)
        assert plain.commitment == hooked.commitment
        assert plain.sizes == hooked.sizes == (4, 8, 16, 32)
        for a, b in zip(plain.layers, hooked.layers):
            assert b"".join(a.symbols) == b"".join(b.symbols)
        for name in cit.SamplingTables.__slots__:
            assert getattr(plain.sampling, name) == getattr(hooked.sampling, name)
        edited = cit.build_tree(block, params, flipping({2: [(9, 0x01)]}))
        assert edited.commitment != plain.commitment
        for tree in (plain, hooked, edited):
            assert_proofs_share_rows(tree)

    def test_commitment_binds_every_byte(self, small_block, small_params):
        tree = cit.build_tree(small_block, small_params)
        flipped = bytearray(small_block)
        flipped[137] ^= 0x20
        other = cit.build_tree(bytes(flipped), small_params)
        assert other.commitment.root != tree.commitment.root


class TestPomIndices:
    # the index lemmas, on the reference pairs of tests/fraction_geometry.py
    REFERENCE = params_for(4, Fraction(1, 4), 8), sizes_for(4, Fraction(1, 4), 8, 3)

    def test_reference_pairs_for_index_15(self):
        assert pom_pairs(*self.REFERENCE, 15) == [(3, 7), (1, 5)]

    def test_index_zero_hits_first_systematic_and_first_parity(self):
        for m, (p, e) in zip((16, 8), pom_pairs(*self.REFERENCE, 0)):
            assert (p, e) == (0, m // 4)

    def test_sampled_pairs_share_a_parent(self):
        # every layer's sampled pair has one parent: the sampled systematic
        # symbol one layer up
        geometries = [(4, Fraction(1, 4), 8, 3)] + random_geometries()
        for t, r, q, levels in geometries:
            sizes, params = sizes_for(t, r, q, levels), params_for(t, r, q)
            for i in range(sizes[-1]):
                pairs = pom_pairs(params, sizes, i)
                chain = [i] + [p for p, _ in pairs]
                for depth, (p, e) in enumerate(pairs):
                    parent_size = sizes[len(sizes) - 2 - depth - 1]
                    s_par = int(r * parent_size)
                    assert p % s_par == e % s_par == chain[depth + 1] % s_par

    def test_projection_of_everything_is_everything(self):
        table = pairs_table(4, Fraction(1, 4), 8, 3)
        covered = covered_layers(table, range(32))
        assert covered[0] == set(range(16))
        assert covered[1] == set(range(8))

    def test_projection_keeps_the_coverage_fraction(self):
        # eta-dense base subsets stay eta-dense at every layer
        rng = np.random.default_rng(3)
        sizes = sizes_for(4, Fraction(1, 4), 8, 3)
        table = pairs_table(4, Fraction(1, 4), 8, 3)
        eta = 0.875
        for _ in range(300):
            take = rng.choice(32, size=28, replace=False)
            covered = covered_layers(table, take)
            for m, w in zip(sizes[-2:0:-1], covered):
                assert len(w) >= eta * m


class TestMembership:
    def test_honest_proofs_verify_everywhere(self, small_tree):
        for i in range(small_tree.sizes[-1]):
            pom = cit.sample_pom(small_tree, i)
            assert cit.Frontier(small_tree.commitment).walk(pom)

    def test_out_of_range_index(self, small_tree):
        with pytest.raises(ParameterError):
            cit.sample_pom(small_tree, 32)

    def test_zero_block_has_zero_base_parity(self, small_params):
        tree = cit.build_tree(bytes(512), small_params)
        base = tree.layers[-1].symbols
        assert not base.any()
        pom = cit.sample_pom(tree, 31)  # a parity index
        assert pom.base_symbol == bytes(64)
        assert cit.Frontier(tree.commitment).walk(pom)

    def test_tampered_sibling_fails(self, small_tree):
        # a sibling digest is a slot of the ancestor other than the one the
        # chain's own digest sits at: base 15 climbs through parent 3 of
        # layer 2, at slot 3, and that through parent 1 of layer 1, at slot 1
        pom = cit.sample_pom(small_tree, 15)
        ancestor = pom.ancestors[1]
        ancestor = ancestor[:64] + bytes(32) + ancestor[96:]
        bad = pom._replace(ancestors=(pom.ancestors[0], ancestor, pom.ancestors[2]))
        assert not cit.Frontier(small_tree.commitment).walk(bad)

    def test_tampered_pair_value_fails(self, small_tree, small_params):
        pom = cit.sample_pom(small_tree, 15)
        forged = sha256(b"not the value") * small_params.batch
        for field in ("ancestors", "parities"):
            symbols = getattr(pom, field)
            bad = pom._replace(**{field: (forged,) + symbols[1:]})
            assert not cit.Frontier(small_tree.commitment).walk(bad)

    def test_perturbed_indices_fail(self, small_tree, small_params):
        # the proof stores no index but its base index: the parity symbol
        # one index past the sampled one, with its true value, fails
        pom = cit.sample_pom(small_tree, 15)
        e = pom_pairs(small_params, small_tree.sizes, 15)[1][1]
        moved = small_tree.layers[1].symbols[e + 1]
        bad = pom._replace(parities=(pom.parities[0], moved))
        assert not cit.Frontier(small_tree.commitment).walk(bad)

    def test_tampered_base_symbol_fails(self, small_tree):
        pom = cit.sample_pom(small_tree, 7)
        bad = pom._replace(base_symbol=bytes(64))
        assert not cit.Frontier(small_tree.commitment).walk(bad)

    def test_wrong_block_len_fails(self, small_tree):
        pom = cit.sample_pom(small_tree, 7)
        bad = pom._replace(block_len=pom.block_len + 1)
        assert not cit.Frontier(small_tree.commitment).walk(bad)


class TestSiblingProperty:
    def geometries(self):
        return [(4, Fraction(1, 4), 8, 3)] + random_geometries()

    def test_pair_parents_collapse_to_the_chain(self):
        # parent(p_u(i)) == parent(e_u(i)) == p_{u-1}(i) at every layer,
        # exhaustively over all base indices
        for t, r, q, levels in self.geometries():
            sizes, params = sizes_for(t, r, q, levels), params_for(t, r, q)  # root .. base
            for i in range(sizes[-1]):
                # pairs at layers len-2 .. 1, then the root junction
                layer_ids = list(range(len(sizes) - 2, 0, -1))
                pairs = pom_pairs(params, sizes, i)
                prev_child = i
                for u, (p, e) in zip(layer_ids, pairs):
                    s_par = int(r * sizes[u])
                    assert prev_child % s_par == p
                    prev_child = p
                for u, (p, e) in zip(layer_ids, pairs):
                    parent_size = sizes[u - 1]
                    s_up = int(r * parent_size)
                    assert p % s_up == e % s_up


def test_gate_failure_raises_bad_code(small_block):
    # an unreachable gate: alpha = 0.9 rejects every candidate
    params = cit.TreeParams(**{**SMALL, "alpha": 0.9, "max_code_attempts": 3})
    with pytest.raises(BadCode):
        cit.build_tree(small_block, params)


@pytest.mark.parametrize("max_attempts, ran", ((0, 1), (1, 1), (3, 3)))
def test_gate_failure_reports_the_attempts_made(max_attempts, ran, monkeypatch):
    # max_code_attempts = 0 still tries the first seed, and the message
    # counts the candidates the gate actually rejected
    params = cit.TreeParams(**{**SMALL, "alpha": 0.9, "max_code_attempts": max_attempts})
    gated, real = [], cit.is_bad_code
    monkeypatch.setattr(cit, "is_bad_code", lambda *a, **k: gated.append(a) or real(*a, **k))
    with pytest.raises(BadCode, match=rf"alpha=0\.9 within {ran} attempts$"):
        cit.layer_code(params, 32)
    assert len(gated) == ran
