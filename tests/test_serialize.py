"""Byte-exact golden vectors and round trips for the wire formats."""

import hashlib
import struct
from fractions import Fraction

import pytest

from daoracle import cit, retrieval as rt, serialize as sz
from daoracle.errors import ParameterError
from daoracle.oracle import build_tree_with_base_corruption
from daoracle.util import as_rate, exact_int

from conftest import chunkset_for

# frozen digests of the canonical encodings for the reference tree; any
# change to the wire layout must update these deliberately
GOLDEN_COMMITMENT = "d46ccbe1240c6e05f5ce297622f2bf722c2c40ec6868386dc3ee58d90a499074"
GOLDEN_POM_15 = "7fab6325af2d9eae0b369c79d47f6457bc31d3244869c5f0e88acc5459ccf2ba"
GOLDEN_FRAUD = "1ee31c4db835689d7553871c3f58ff7858a5042f26d06ddac1821abe22031187"


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


@pytest.mark.parametrize("value", ["5/4", "1/0", "one quarter", float("nan"), float("inf"), 1.5, -1, None])
def test_as_rate_rejects_with_parameter_error(value):
    with pytest.raises(ParameterError):
        as_rate(value)


def test_exact_int_rejects_with_parameter_error():
    assert exact_int(Fraction(8, 4)) == 2
    with pytest.raises(ParameterError):
        exact_int(Fraction(1, 4) * 30)
