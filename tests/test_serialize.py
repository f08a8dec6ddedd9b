"""Byte-exact golden vectors and round trips for the wire formats."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daoracle import cit, retrieval as rt, serialize as sz
from daoracle.errors import ParameterError
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.util import as_rate

from conftest import chunkset_for
from hostile import hostile, hostile_files, time_bound

# frozen digests of the canonical encodings for the reference tree; any
# change to the wire layout must update these deliberately
GOLDEN_COMMITMENT = "d46ccbe1240c6e05f5ce297622f2bf722c2c40ec6868386dc3ee58d90a499074"
GOLDEN_POM_15 = "7fab6325af2d9eae0b369c79d47f6457bc31d3244869c5f0e88acc5459ccf2ba"
GOLDEN_FRAUD = "1ee31c4db835689d7553871c3f58ff7858a5042f26d06ddac1821abe22031187"
# DAB1 bundle of every base symbol of the reference tree, in index order
GOLDEN_BUNDLE = "4ea32393d8e018b3256a4d6bc8be0200021b1cc8afd0f009acf87388c92a2b83"


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


def test_fraud_proof_golden(small_block, small_params):
    bad = build_tree_with_base_corruption(small_block, small_params, xor_mask=0x5A)
    result = rt.reconstruct(bad.commitment, small_params, chunkset_for(bad, range(32)))
    blob = sz.encode_fraud_proof(result.proof)
    assert sha(blob) == GOLDEN_FRAUD
    assert sz.decode_fraud_proof(blob) == result.proof


def test_chunk_bundle_round_trip(small_tree):
    base = small_tree.layers[-1].symbols
    units = tuple(
        (i, base[i].tobytes(), cit.sample_pom(small_tree, i)) for i in (0, 7, 31)
    )
    blob = sz.encode_chunk_bundle(units)
    assert sz.decode_chunk_bundle(blob) == units


def bundle_units(tree, indices):
    return tuple((p.base_index, p.base_symbol, p) for p in cit.sample_poms(tree, indices))


def test_chunk_bundle_golden(small_tree):
    blob = sz.encode_chunk_bundle(bundle_units(small_tree, range(small_tree.sizes[-1])))
    assert len(blob) == 30152
    assert sha(blob) == GOLDEN_BUNDLE


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chunk_bundle_round_trip_over_unit_subsets(small_tree, data):
    n = small_tree.sizes[-1]
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    units = bundle_units(small_tree, picks)
    blob = sz.encode_chunk_bundle(units)
    # a bundle is its units' DAP1 proofs, each behind a u64 length
    assert blob == b"DAB1" + struct.pack("<I", len(units)) + b"".join(
        struct.pack("<Q", len(pom)) + pom for pom in map(sz.encode_pom, (u[2] for u in units))
    )
    assert sz.decode_chunk_bundle(blob) == units


def test_tree_cache_round_trip(small_block, small_params):
    blob = sz.encode_tree_cache(small_params, small_block)
    params, block = sz.decode_tree_cache(blob)
    assert params == small_params and block == small_block


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
    # the rate sits at offset 16 of a DAC1 commitment: u32 num, u32 den
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    blob[16:24] = struct.pack("<II", num, den)
    with pytest.raises(ParameterError):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize(
    "offset,fmt,values", [(16, "<III", (2, 3, 6)), (28, "<I", (1,))], ids=["rate_2_3", "degree_1"]
)
def test_params_without_layer_codes_raise_parameter_error(small_tree, offset, fmt, values):
    # DAC1 tree parameters: u32 rate num at offset 16, den at 20, batch at
    # 24, max_eq_degree at 28; rate 2/3 at batch 6 shrinks each layer by the
    # integer 4 and a degree cap of 1 is a plain u32, but no layer code
    # exists for either
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    struct.pack_into(fmt, blob, offset, *values)
    with pytest.raises(ParameterError):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize("hash_size", [0, 31, 33, 2**32 - 1])
def test_hash_size_other_than_32_raises_parameter_error(small_tree, hash_size):
    # u32 hash_size at offset 40 of a DAC1 commitment has one legal value
    blob = bytearray(sz.encode_commitment(small_tree.commitment))
    assert struct.unpack_from("<I", blob, 40) == (32,)
    struct.pack_into("<I", blob, 40, hash_size)
    with pytest.raises(ParameterError, match="hash_size is fixed at 32"):
        sz.decode_commitment(bytes(blob))


@pytest.mark.parametrize("offset", [52, 56], ids=["gate_trials", "max_code_attempts"])
@pytest.mark.parametrize("which", ["commitment", "tree_cache"])
def test_hostile_gate_counts_raise_parameter_error(small_tree, small_block, offset, which):
    # gate_trials and max_code_attempts are the last two u32 fields of the
    # tree parameters, at offsets 52 and 56 of a DAC1 or DAT1 file; a count
    # of 2^32 - 1 would drive billions of gate trials, so decoding rejects
    # it before any code is generated
    if which == "commitment":
        blob, decode = sz.encode_commitment(small_tree.commitment), sz.decode_commitment
    else:
        blob = sz.encode_tree_cache(small_tree.params, small_block)
        decode = sz.decode_tree_cache
    blob = bytearray(blob)
    assert struct.unpack_from("<II", blob, 52) == (
        small_tree.params.gate_trials, small_tree.params.max_code_attempts
    )
    blob[offset : offset + 4] = struct.pack("<I", 2**32 - 1)
    with pytest.raises(ParameterError, match="must be an integer in"):
        decode(bytes(blob))


def test_gate_count_caps_admit_their_bound_only(small_params):
    import dataclasses

    for name, cap in (
        ("gate_trials", cit.MAX_GATE_TRIALS), ("max_code_attempts", cit.MAX_CODE_ATTEMPTS)
    ):
        for ok in (0, 3, 24, cap):
            assert getattr(dataclasses.replace(small_params, **{name: ok}), name) == ok
        for bad in (cap + 1, -1, 2**32 - 1, 2.0, "24"):
            with pytest.raises(ParameterError):
                dataclasses.replace(small_params, **{name: bad})


@pytest.mark.parametrize("value", ["5/4", "1/0", "one quarter", float("nan"), float("inf"), 1.5, -1, None])
def test_as_rate_rejects_with_parameter_error(value):
    with pytest.raises(ParameterError):
        as_rate(value)


# every decoder, with one valid file of its format for the fuzz below
DECODERS = {
    "DAC1": sz.decode_commitment,
    "DAP1": sz.decode_pom,
    "DAF1": sz.decode_fraud_proof,
    "DAB1": sz.decode_chunk_bundle,
    "DAT1": sz.decode_tree_cache,
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
        "DAC1": sz.encode_commitment(small_tree.commitment),
        "DAP1": sz.encode_pom(cit.sample_pom(small_tree, 15)),
        "DAF1": sz.encode_fraud_proof(fraud.proof),
        "DAB1": sz.encode_chunk_bundle(bundle_units(small_tree, (0, 7, 31))),
        "DAT1": sz.encode_tree_cache(small_params, small_block),
    }


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
