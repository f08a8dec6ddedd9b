"""Byte-exact golden vectors and round trips for the wire formats."""

import dataclasses
import hashlib
import re
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daoracle import cit, retrieval as rt, serialize as sz
from daoracle.errors import BadCode, ParameterError
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.util import HASH_BYTES, as_rate

from conftest import SMALL, chunkset_for
from hostile import hostile, hostile_files, time_bound
from test_retrieval import fraud_flavours
from test_withholding import PARAMS as HONEST_ROUND_PARAMS
from test_withholding import SMALL_PARAMS, tampered_tree, tampers_and_withholdings

# frozen digests of the canonical encodings for the reference tree; any
# change to the wire layout must update these deliberately
GOLDEN_COMMITMENT = "cc5194c959cf883da69cf38c8963eeadb668748fbe00a85440dbe760904d65de"
GOLDEN_POM_15 = "c0f27db58497c81ee1dd4ceabc11f1f6c3802c34476267d5cd33d0de42425008"
GOLDEN_FRAUD = "bc67f21ccd141ff685b9026f83860392c730cda0afc0de54be6a2ede1624bd66"
# DAB2 bundle of every base symbol of the reference tree, in index order
GOLDEN_BUNDLE = "21bb8ee3e95282d613475448bd4394516d090d0b2b64b54149259abfa3d8b2e5"
# a DAP2 proof's fixed fields: magic, base index, block length, symbol
# length, and the u16 count and u32 width before its ancestors and before
# its parity symbols
POM_HEADER = 4 + 3 * 8 + 2 * (2 + 4)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_commitment_golden_and_round_trip(small_tree):
    blob = sz.encode_commitment(small_tree.commitment)
    assert len(blob) == 200
    assert sha(blob) == GOLDEN_COMMITMENT
    assert sz.decode_commitment(blob) == small_tree.commitment


def test_pom_golden_and_round_trip(small_tree):
    pom = cit.sample_pom(small_tree, 15)
    blob = sz.encode_pom(pom)
    assert sha(blob) == GOLDEN_POM_15
    assert sz.decode_pom(blob) == pom


@pytest.mark.parametrize("shape", ("small", "round"))
def test_pom_size_is_the_header_and_2L_minus_1_symbols_above_the_base(small_tree, shape):
    """A proof holds its base symbol, its ancestor at each of the L layers
    above the base and its parity symbol at each of the L - 1 below the
    root: c + (2L - 1) q 32 bytes behind the fixed header, at every base
    index."""
    if shape == "small":
        tree = small_tree
    else:
        block = np.random.default_rng(0).bytes(256 * 1024)
        tree = cit.build_tree(block, HONEST_ROUND_PARAMS)
    p, depth = tree.commitment.params, len(tree.layers) - 1
    want = POM_HEADER + p.symbol_size + (2 * depth - 1) * p.batch * HASH_BYTES
    for i in range(0, tree.sizes[-1], 7):
        assert len(sz.encode_pom(cit.sample_pom(tree, i))) == want
    assert (shape, depth, want) in (("small", 3, 1384), ("round", 8, 4904))


def test_fraud_proof_golden(small_block, small_params):
    bad = build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)
    result = rt.reconstruct(bad.commitment, small_params, chunkset_for(bad, range(32)))
    blob = sz.encode_fraud_proof(result.proof)
    assert sha(blob) == GOLDEN_FRAUD
    assert sz.decode_fraud_proof(blob) == result.proof


@pytest.mark.parametrize("length", (HASH_BYTES - 1, HASH_BYTES + 1))
def test_a_mismatch_digest_of_another_length_is_not_encoded(length):
    """The decoder reads a mismatch's expected hash as exactly HASH_BYTES
    bytes, so the encoder writes no file of another length."""
    _commitment, _params, proof = fraud_flavours()["mismatch"]
    digest = (proof.mismatch.expected_hash * 2)[:length]
    mismatch = dataclasses.replace(proof.mismatch, expected_hash=digest)
    with pytest.raises(ParameterError, match="expected hash"):
        sz.encode_fraud_proof(dataclasses.replace(proof, mismatch=mismatch))


def daf3_size(proof) -> int:
    """The bytes of DAF3's fields as FORMATS.md lists them: magic, u32
    layer, u32 equation_no, u16 n_members; each member's u64 index, u64
    value_len, value and symbol list; u8 has_mismatch, then the mismatch's
    u64 index, 32-byte digest and symbol list. A symbol list is a u16
    count, a u32 width and its symbols."""

    def symbol_list(symbols) -> int:
        return 2 + 4 + sum(map(len, symbols))

    size = 4 + 4 + 4 + 2 + 1
    for member in proof.members:
        size += 8 + 8 + len(member.value) + symbol_list(member.ancestors)
    mm = proof.mismatch
    if mm is not None:
        size += 8 + HASH_BYTES + symbol_list(mm.ancestors)
    return size


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(("equation", "mismatch", "root")), tampers_and_withholdings()))
def test_an_emitted_fraud_proof_is_exactly_its_daf3_fields(case):
    """Over the fraud proofs ``reconstruct`` emits, from the tamper and
    withholding draws of test_withholding on the reference tree and from
    ``fraud_flavours`` (whose root-layer proof carries empty paths), the
    encoding is the sum of DAF3's fields, decodes back to the proof, and
    the decoded proof gets the same verdict."""
    if isinstance(case, str):
        commitment, params, proof = fraud_flavours()[case]
    else:
        tampers, delivered = case
        tree = tampered_tree(tampers)
        commitment, params = tree.commitment, SMALL_PARAMS
        try:
            result = rt.reconstruct(commitment, params, chunkset_for(tree, delivered))
        except BadCode:
            result = None
        assume(isinstance(result, rt.Fraud))
        proof = result.proof
    blob = sz.encode_fraud_proof(proof)
    assert len(blob) == daf3_size(proof)
    decoded = sz.decode_fraud_proof(blob)
    assert decoded == proof
    verdict = rt.verify_fraud_proof(commitment, params, proof)
    assert rt.verify_fraud_proof(commitment, params, decoded) is verdict


def test_chunk_bundle_round_trip(small_tree):
    base = small_tree.layers[-1].symbols
    units = tuple(
        (i, base[i].tobytes(), cit.sample_pom(small_tree, i)) for i in (0, 7, 31)
    )
    blob = sz.encode_chunk_bundle(units)
    assert sz.decode_chunk_bundle(blob) == units


def bundle_units(tree, indices):
    poms = [cit.sample_pom(tree, i) for i in indices]
    return tuple((p.base_index, p.base_symbol, p) for p in poms)


def test_chunk_bundle_golden(small_tree):
    blob = sz.encode_chunk_bundle(bundle_units(small_tree, range(small_tree.sizes[-1])))
    assert len(blob) == 4 + 4 + 32 * (8 + 1384)
    assert sha(blob) == GOLDEN_BUNDLE


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chunk_bundle_round_trip_over_unit_subsets(small_tree, data):
    n = small_tree.sizes[-1]
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    units = bundle_units(small_tree, picks)
    blob = sz.encode_chunk_bundle(units)
    # a bundle is its units' DAP2 proofs, each behind a u64 length
    assert blob == b"DAB2" + struct.pack("<I", len(units)) + b"".join(
        struct.pack("<Q", len(pom)) + pom for pom in map(sz.encode_pom, (u[2] for u in units))
    )
    assert sz.decode_chunk_bundle(blob) == units


@pytest.mark.parametrize(
    "decoder",
    [sz.decode_commitment, sz.decode_pom, sz.decode_fraud_proof, sz.decode_chunk_bundle],
)
def test_malformed_input_raises_parameter_error(decoder):
    with pytest.raises(ParameterError):
        decoder(b"BOGUS BYTES")
    with pytest.raises(ParameterError):
        decoder(b"")


def test_truncation_detected(small_tree):
    blob = sz.encode_commitment(small_tree.commitment)
    with pytest.raises(ParameterError):
        sz.decode_commitment(blob[:-1])
    with pytest.raises(ParameterError):
        sz.decode_commitment(blob + b"\x00")


@pytest.mark.parametrize("num,den", [(5, 4), (1, 0), (0, 4), (4, 4)])
def test_hostile_rate_bytes_raise_parameter_error(small_tree, num, den):
    # the rate sits at offset 16 of a DAC2 commitment: u32 num, u32 den
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    blob[16:24] = struct.pack("<II", num, den)
    with pytest.raises(ParameterError):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize(
    "offset,fmt,values", [(16, "<III", (2, 3, 6)), (28, "<I", (1,))], ids=["rate_2_3", "degree_1"]
)
def test_params_without_layer_codes_raise_parameter_error(small_tree, offset, fmt, values):
    # DAC2 tree parameters: u32 rate num at offset 16, den at 20, batch at
    # 24, max_eq_degree at 28; rate 2/3 at batch 6 shrinks each layer by the
    # integer 4 and a degree cap of 1 is a plain u32, but no layer code
    # exists for either
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    struct.pack_into(fmt, blob, offset, *values)
    with pytest.raises(ParameterError):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize(
    "offset,fmt,value,message",
    [
        (4, "<Q", 0, "symbol_size"),
        (12, "<I", 0, "root_size"),
        (32, "<d", 1.0, "alpha"),
    ],
    ids=["symbol_size_0", "root_size_0", "alpha_1"],
)
def test_tree_params_out_of_range_raise_parameter_error(small_tree, offset, fmt, value, message):
    # DAC2 tree parameters: u64 symbol_size at offset 4, u32 root_size at
    # 12 and f64 alpha at 32
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    struct.pack_into(fmt, blob, offset, value)
    with pytest.raises(ParameterError, match=message):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize("count,width", [(0, 5), (3, 0)])
def test_a_symbol_list_whose_count_and_width_disagree_raises(small_tree, count, width):
    # the ancestor list of a DAP2 proof begins right after its base
    # symbol: a u16 count, then a u32 width, 0 exactly when the count is
    blob = bytearray(sz.encode_pom(cit.sample_pom(small_tree, 15)))
    at = 4 + 3 * 8 + small_tree.commitment.params.symbol_size
    depth, batch = len(small_tree.sizes) - 1, small_tree.commitment.params.batch
    assert struct.unpack_from("<HI", blob, at) == (depth, batch * HASH_BYTES)
    struct.pack_into("<HI", blob, at, count, width)
    with pytest.raises(ParameterError, match="symbol width must be 0 exactly when the count"):
        sz.decode_pom(bytes(blob))


@pytest.mark.parametrize("hash_size", [0, 31, 33, 2**32 - 1])
def test_hash_size_other_than_32_raises_parameter_error(small_tree, hash_size):
    # u32 hash_size at offset 40 of a DAC2 commitment has one legal value
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    assert struct.unpack_from("<I", blob, 40) == (32,)
    struct.pack_into("<I", blob, 40, hash_size)
    with pytest.raises(ParameterError, match="hash_size is fixed at 32"):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize(
    "offset", [52, 56], ids=["commitment-gate_trials", "commitment-max_code_attempts"]
)
def test_hostile_gate_counts_raise_parameter_error(small_tree, offset):
    # gate_trials and max_code_attempts are the last two u32 fields of the
    # tree parameters, at offsets 52 and 56 of a DAC2 file; a count of
    # 2^32 - 1 would drive billions of gate trials, so decoding rejects it
    # before any code is generated
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    assert struct.unpack_from("<II", blob, 52) == (
        small_tree.commitment.params.gate_trials, small_tree.commitment.params.max_code_attempts
    )
    blob[offset : offset + 4] = struct.pack("<I", 2**32 - 1)
    with pytest.raises(ParameterError, match="must be an integer in"):
        sz.decode_commitment(bytes(blob))


def test_gate_count_caps_admit_their_bound_only(small_params):
    for name, cap in (
        ("gate_trials", cit.MAX_GATE_TRIALS), ("max_code_attempts", cit.MAX_CODE_ATTEMPTS)
    ):
        for ok in (0, 3, 24, cap):
            assert getattr(dataclasses.replace(small_params, **{name: ok}), name) == ok
        for bad in (cap + 1, -1, 2**32 - 1, 2.0, "24"):
            with pytest.raises(ParameterError):
                dataclasses.replace(small_params, **{name: bad})


@pytest.mark.parametrize(
    "field,top,past,block_len",
    [
        ("symbol_size", {"symbol_size": 2**64 - 1}, {"symbol_size": 2**64}, None),
        ("root_size", {"root_size": 2**32 - 1}, {"root_size": 2**32}, None),
        # the largest e that leaves room for a batch of at least 2e
        ("rate denominator", {"rate": Fraction(1, 2**31 - 1), "batch": 2**32 - 2},
         {"rate": Fraction(1, 2**32), "batch": 2**33}, None),
        ("batch", {"rate": Fraction(1, 3), "batch": 2**32 - 1},
         {"rate": Fraction(1, 4), "batch": 2**32}, None),
        ("max_eq_degree", {"max_eq_degree": 2**32 - 1}, {"max_eq_degree": 2**32}, 512),
        ("code_seed", {"code_seed": 2**64 - 1}, {"code_seed": 2**64}, 512),
        ("code_seed", {"code_seed": 0}, {"code_seed": -1}, 512),
    ],
    ids=["symbol_size", "root_size", "rate_denominator", "batch", "max_eq_degree",
         "code_seed", "code_seed_negative"],
)
def test_tree_params_hold_each_integer_within_its_dac2_width(
    small_params, field, top, past, block_len
):
    """Each integer of the tree parameters at the end of its width in
    FORMATS.md is admitted, and round-trips through a DAC2 commitment of
    ``block_len`` bytes where it has a geometry (None: no block shorter
    than 2^64 bytes has one); one past that raises ParameterError."""
    params = dataclasses.replace(small_params, **top)
    if block_len is not None:
        com = cit.Commitment((bytes(HASH_BYTES),) * params.root_size, params, block_len)
        assert sz.decode_commitment(sz.encode_commitment(com)) == com
    with pytest.raises(ParameterError, match=field):
        dataclasses.replace(params, **past)


def test_a_commitment_holds_its_block_len_within_a_u64(small_params):
    # at symbols of 2^62 bytes, 2^64 - 1 bytes and 2^64 bytes are both 16
    # base symbols, a geometry
    params = dataclasses.replace(small_params, symbol_size=2**62)
    com = cit.Commitment((bytes(HASH_BYTES),) * params.root_size, params, 2**64 - 1)
    assert sz.decode_commitment(sz.encode_commitment(com)) == com
    assert cit.geometry(params, 2**64) == cit.geometry(params, 2**64 - 1)
    with pytest.raises(ParameterError, match="block_len"):
        dataclasses.replace(com, block_len=2**64)


@pytest.mark.parametrize("value", ["5/4", "1/0", "one quarter", float("nan"), float("inf"), 1.5, -1, None])
def test_as_rate_rejects_with_parameter_error(value):
    with pytest.raises(ParameterError):
        as_rate(value)


# every decoder, with one valid file of its format for the fuzz below
DECODERS = {
    "DAC2": sz.decode_commitment,
    "DAP2": sz.decode_pom,
    "DAF3": sz.decode_fraud_proof,
    "DAB2": sz.decode_chunk_bundle,
}
# wall-clock bound on one decode; valid files here decode in well under a
# millisecond, so only a loop or an allocation sized by a field read from
# the file can reach it
DECODE_BOUND_S = 2.0


@pytest.fixture(scope="module")
def valid_files(small_tree, small_block, small_params):
    bad = build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)
    fraud = rt.reconstruct(bad.commitment, small_params, chunkset_for(bad, range(32)))
    return {
        "DAC2": sz.encode_commitment(small_tree.commitment),
        "DAP2": sz.encode_pom(cit.sample_pom(small_tree, 15)),
        "DAF3": sz.encode_fraud_proof(fraud.proof),
        "DAB2": sz.encode_chunk_bundle(bundle_units(small_tree, (0, 7, 31))),
    }


@pytest.mark.parametrize("kind", sorted(DECODERS))
@pytest.mark.parametrize("wrap", (bytearray, memoryview), ids=("bytearray", "memoryview"))
def test_every_decoder_reads_any_buffer_as_the_same_immutable_value(valid_files, kind, wrap):
    """A decode of a bytearray or a memoryview equals and hashes as the
    decode of the same bytes, and editing the buffer afterwards changes
    nothing decoded from it."""
    blob = valid_files[kind]
    want = DECODERS[kind](blob)
    buffer = bytearray(blob)
    got = DECODERS[kind](wrap(buffer))
    assert got == want and hash(got) == hash(want)
    buffer[:] = bytes(len(buffer))
    assert got == want and hash(got) == hash(want)


def test_a_bundle_decodes_its_base_symbols_in_place():
    """Each decoded base symbol is a read-only view of the bundle bytes, so
    decoding copies none of them. The other fields are copied, 5 x 256
    bytes a proof at this shape, so the symbols are 32 KiB wide to leave
    those copies well under the bound."""
    params = cit.TreeParams(**{**SMALL, "symbol_size": 32 * 1024})
    tree = cit.build_tree(np.random.default_rng(3).bytes(8 * params.symbol_size), params)
    blob = sz.encode_chunk_bundle(bundle_units(tree, range(tree.sizes[-1])))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        units = sz.decode_chunk_bundle(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(units) == 32
    for _index, symbol, pom in units:
        view = pom.base_symbol
        assert symbol is view and type(view) is memoryview
        assert view.readonly and view.obj is blob and len(view) == params.symbol_size
    assert peak < len(blob) // 10


@settings(max_examples=600, deadline=None)
@given(hostile_files(DECODERS))
def test_hostile_bytes_decode_or_raise_parameter_error(valid_files, case):
    kind, how, edits = case
    blob = hostile(valid_files[kind], how, edits)
    with time_bound(DECODE_BOUND_S):
        try:
            DECODERS[kind](blob)
        except ParameterError:
            pass


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_every_proper_prefix_raises_parameter_error(valid_files, kind):
    """A file cut short anywhere, its magic included, is refused with a
    ParameterError, never a ``struct.error``."""
    blob = valid_files[kind]
    golden = {"DAC2": GOLDEN_COMMITMENT, "DAP2": GOLDEN_POM_15, "DAF3": GOLDEN_FRAUD}
    if kind in golden:
        assert sha(blob) == golden[kind]
    for n in range(len(blob)):
        with pytest.raises(ParameterError):
            DECODERS[kind](blob[:n])


# magics whose layouts were replaced or removed; no file in them decodes any more
RETIRED_MAGICS = ("DAC1", "DAP1", "DAF1", "DAF2", "DAB1", "DAT1")
FORMATS_MD = Path(__file__).resolve().parent.parent / "FORMATS.md"


def test_formats_md_documents_every_magic_and_no_retired_one():
    text = FORMATS_MD.read_text()
    magics = [v.decode() for k, v in vars(sz).items() if k.startswith("MAGIC_")]
    assert len(magics) == 4
    headings = re.findall(r"^## .*\(`(\w{4})`\)$", text, flags=re.M)
    assert sorted(headings) == sorted(magics)
    for magic in magics:
        assert f'magic "{magic}"' in text
    for magic in RETIRED_MAGICS:
        assert magic not in text


def test_tree_params_record_is_the_56_bytes_formats_md_lists():
    text = FORMATS_MD.read_text()
    size = re.search(r"^## Tree parameters \(embedded struct, (\d+) bytes\)$", text, flags=re.M)
    listing = text.split("## Tree parameters", 1)[1].split("```")[1]
    fields = re.findall(r"^(u32|u64|f64) ", listing, flags=re.M)
    assert struct.calcsize(sz._TREE_PARAMS.format) == int(size[1]) == 56
    codes = {"u32": "I", "u64": "Q", "f64": "d"}
    assert sz._TREE_PARAMS.format == "<" + "".join(codes[f] for f in fields)
