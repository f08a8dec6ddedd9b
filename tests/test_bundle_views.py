"""Retrieval from a decoded bundle, whose base symbols are read-only views
of the bundle bytes, against retrieval from the sampled units, and the
unit checks that compare a unit's symbol with its proof's, and the fraud
verifier over each kind of member value, at base symbol widths on both
sides of ``_kernels.INT_VALUE_MAX_BYTES``."""

from dataclasses import replace

import pytest

from daoracle import cli, oracle, retrieval as rt, serialize as sz
from daoracle.cit import build_tree
from daoracle.errors import ParameterError
from daoracle.oracle import build_tree_with_base_corruption

from conftest import chunkset_for, flipping, ingested
from test_peel import WIDE_PARAMS
from test_serialize import GOLDEN_FRAUD, sha

# (tree, kept chunks): base symbols 0-3 solved by peeling, the first
# failing equation of a base layer XORed with 0x5A, and too few chunks
CASES = {
    "block": ("honest", range(4, 28)),
    "fraud": ("corrupt", range(32)),
    "insufficient": ("honest", range(0, 32, 3)),
}


@pytest.fixture(scope="module")
def trees(small_tree, small_block, small_params):
    corrupt = build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)
    return {"honest": small_tree, "corrupt": corrupt}


@pytest.fixture(scope="module")
def wide_block():
    return bytes((i * 37 + 11) % 256 for i in range(8 * WIDE_PARAMS.symbol_size))


@pytest.fixture(scope="module")
def wide_trees(wide_block):
    """The ``trees`` pair in SMALL's layout with base symbols wider than
    the peel XORs as ints."""
    corrupt = build_tree_with_base_corruption(wide_block, WIDE_PARAMS, xor_mask=0x5A)
    return {"honest": build_tree(wide_block, WIDE_PARAMS), "corrupt": corrupt}


def both_ways(tree, keep):
    """The reconstructions from the sampled units and from those units
    through a DAB2 bundle."""
    sampled = chunkset_for(tree, keep)
    com, params = tree.commitment, tree.commitment.params
    decoded = rt.ChunkSet(com, sz.decode_chunk_bundle(sz.encode_chunk_bundle(sampled.units)))
    return rt.reconstruct(com, params, sampled), rt.reconstruct(com, params, decoded)


def base_through_a_bundle(tree, keep):
    """The decoded base layer of a reconstruction from ``keep`` through a
    DAB2 bundle, and the bundle's bytes."""
    blob = sz.encode_chunk_bundle(chunkset_for(tree, keep).units)
    com = tree.commitment
    reader = rt._Reconstructor(com, rt.ChunkSet(com, sz.decode_chunk_bundle(blob)))
    assert isinstance(reader.run(), rt.Block)
    return reader.layer_done[reader.depth], blob


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_decoded_bundle_reconstructs_as_the_sampled_units(trees, small_block, case):
    name, keep = CASES[case]
    tree = trees[name]
    sampled, decoded = both_ways(tree, keep)
    assert type(sampled) is type(decoded)
    if case == "block":
        assert sampled.data == decoded.data == small_block
        assert type(decoded.data) is bytes
        # 64-byte symbols peel as ints: a solved base symbol is the bytes
        # of its XOR, and a delivered one is still a view of the bundle
        rows, blob = base_through_a_bundle(tree, keep)
        kinds = [memoryview if x in keep else bytes for x in range(32)]
        assert [type(row) for row in rows] == kinds
        assert all(rows[x].obj is blob and rows[x].readonly for x in keep)
    elif case == "fraud":
        blobs = [sz.encode_fraud_proof(r.proof) for r in (sampled, decoded)]
        assert sha(blobs[0]) == sha(blobs[1]) == GOLDEN_FRAUD
        for result in (sampled, decoded):
            assert rt.verify_fraud_proof(tree.commitment, tree.commitment.params, result.proof)
        # every member was delivered, so each is a view of the bundle
        assert all(type(m.value) is memoryview for m in decoded.proof.members)
    else:
        assert sampled.known_fractions == decoded.known_fractions
        # 11 chunks delivered and one more solved by peeling
        assert sampled.known_fractions[-1] == (3, 12 / 32)


def test_wide_base_symbols_are_views_until_the_blocks_join(wide_trees, wide_block):
    """Symbols wider than ``INT_VALUE_MAX_BYTES`` peel as uint8 rows, and no
    base symbol is copied before the block's join: a delivered one is a
    view of the bundle, a solved one a read-only view of its XOR."""
    tree = wide_trees["honest"]
    keep = CASES["block"][1]
    sampled, decoded = both_ways(tree, keep)
    assert sampled.data == decoded.data == wide_block
    rows, blob = base_through_a_bundle(tree, keep)
    assert all(type(row) is memoryview and row.readonly for row in rows)
    assert [row.obj is blob for row in rows] == [x in keep for x in range(32)]


@pytest.mark.parametrize("case", ("block", "fraud"))
def test_cli_retrieve_from_a_bundle_writes_the_library_outputs(trees, tmp_path, case):
    name, keep = CASES[case]
    tree = trees[name]
    sampled, _decoded = both_ways(tree, keep)
    (tmp_path / "c.bin").write_bytes(sz.encode_commitment(tree.commitment))
    (tmp_path / "in.bundle").write_bytes(sz.encode_chunk_bundle(chunkset_for(tree, keep).units))
    out_block, out_fraud = tmp_path / "block.bin", tmp_path / "fraud.bin"
    code = cli.main([
        "retrieve", "--commitment", str(tmp_path / "c.bin"),
        "--chunks", str(tmp_path / "in.bundle"),
        "--out-block", str(out_block), "--out-fraud", str(out_fraud),
    ])
    if case == "block":
        assert code == cli.EXIT_OK
        assert out_block.read_bytes() == sampled.data
    else:
        assert code == cli.EXIT_FRAUD
        assert out_fraud.read_bytes() == sz.encode_fraud_proof(sampled.proof)


def equal_copy(symbol, kind):
    """A distinct object equal to ``symbol``: bytes, or a view of them."""
    fresh = bytes(bytearray(symbol))
    return fresh if kind == "bytes" else memoryview(fresh)


def one_byte_off(symbol, kind):
    edited = bytearray(symbol)
    edited[len(edited) // 2] ^= 1
    return bytes(edited) if kind == "bytes" else memoryview(bytes(edited))


def units_of(tree, indices, pom_kind):
    """Units whose proofs hold bytes base symbols, as sampled, or views,
    as decoded."""
    units = chunkset_for(tree, indices).units
    if pom_kind == "view":
        units = sz.decode_chunk_bundle(sz.encode_chunk_bundle(units))
    return units


@pytest.mark.parametrize("pom_kind", ("bytes", "view"))
@pytest.mark.parametrize("kind", ("bytes", "view"))
def test_unit_checks_accept_an_equal_symbol_and_reject_a_changed_byte(small_tree, pom_kind, kind):
    """The checks test identity before ==; an equal symbol that is another
    object passes each of them, and one byte off fails each of them."""
    com = small_tree.commitment
    units = units_of(small_tree, range(32), pom_kind)
    at = 5
    for make, agrees in ((equal_copy, True), (one_byte_off, False)):
        index, old, pom = units[at]
        symbol = make(old, kind)
        assert symbol is not pom.base_symbol
        edited = units[:at] + ((index, symbol, pom),) + units[at + 1:]

        # encode_chunk_bundle: a changed symbol is rejected
        if agrees:
            assert sz.encode_chunk_bundle(edited) == sz.encode_chunk_bundle(units)
        else:
            with pytest.raises(ParameterError, match="disagrees with its proof"):
                sz.encode_chunk_bundle(edited)

        # dispersal and audit: the node's units are all or nothing
        assert oracle._units_check(com, range(32), edited) is agrees

        # client ingest: a changed unit is skipped, the rest are walked
        values = ingested(rt._Reconstructor(com, rt.ChunkSet(com, edited)).frontier)
        base = {x for (u, x) in values if u == len(small_tree.layers) - 1}
        assert (at in base) is agrees
        assert base | {at} == set(range(32))


def with_first_member(proof, value):
    return replace(proof, members=(replace(proof.members[0], value=value),) + proof.members[1:])


@pytest.mark.parametrize("flipped", (False, True), ids=("as_built", "one_member_flipped"))
@pytest.mark.parametrize(
    "case", ("base_views", "base_bytes", "digest_layer", "wide_base_views", "wide_base_bytes")
)
def test_fraud_proof_verdict_over_each_member_value_kind(
    trees, wide_trees, small_block, small_params, case, flipped
):
    """``verify_fraud_proof`` XORs the members in the form the peel XORs
    their width in, ints or uint8 rows, whatever holds their values: a
    base-layer proof from a decoded bundle, whose members are read-only
    views, the same proof with bytes values, each at 64 bytes (ints) and
    above ``INT_VALUE_MAX_BYTES`` (uint8 rows), and a digest-layer proof
    each verify, and each fails with one member value a byte off."""
    if case == "digest_layer":
        tree = build_tree(small_block, small_params, flipping({2: [(0, 0x5A)]}))
        chunks = chunkset_for(tree, range(32))
        proof = rt.reconstruct(tree.commitment, small_params, chunks).proof
        assert 0 < proof.layer < len(tree.layers) - 1
    else:
        tree = (wide_trees if case.startswith("wide") else trees)["corrupt"]
        proof = both_ways(tree, CASES["fraud"][1])[1].proof
        assert proof.layer == len(tree.layers) - 1
        if case.endswith("bytes"):
            members = tuple(replace(m, value=bytes(m.value)) for m in proof.members)
            proof = replace(proof, members=members)
        kinds = {type(m.value) for m in proof.members}
        assert (memoryview in kinds) is case.endswith("views")
    if flipped:
        first = proof.members[0].value
        kind = "view" if type(first) is memoryview else "bytes"
        proof = with_first_member(proof, one_byte_off(first, kind))
    assert rt.verify_fraud_proof(tree.commitment, tree.commitment.params, proof) is not flipped
