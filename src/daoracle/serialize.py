"""Canonical binary encodings: commitments, membership proofs, fraud proofs.

All integers are little-endian and fixed-width; variable fields carry a
length prefix. Layouts are documented byte-by-byte in FORMATS.md and frozen
by golden digests in the test suite. Encodings are self-describing enough
to decode without out-of-band parameters.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .cit import Commitment, MembershipPath, ProofOfMembership, TreeParams
from .codec import ParityEquation
from .errors import ParameterError
from .retrieval import FraudMember, FraudProof, HashMismatch
from .util import HASH_BYTES

MAGIC_COMMITMENT = b"DAC1"
MAGIC_POM = b"DAP1"
MAGIC_FRAUD = b"DAF1"
MAGIC_BUNDLE = b"DAB1"
MAGIC_TREE = b"DAT1"


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParameterError("truncated encoding")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.data)


def _u8(v):
    return struct.pack("<B", v)


def _u16(v):
    return struct.pack("<H", v)


def _u32(v):
    return struct.pack("<I", v)


def _u64(v):
    return struct.pack("<Q", v)


def _f64(v):
    return struct.pack("<d", v)


def encode_tree_params(p: TreeParams) -> bytes:
    return b"".join(
        (
            _u64(p.symbol_size),
            _u32(p.root_size),
            _u32(p.rate.numerator),
            _u32(p.rate.denominator),
            _u32(p.batch),
            _u32(p.max_eq_degree),
            _f64(p.alpha),
            _u32(p.hash_size),
            _u64(p.code_seed),
            _u32(p.gate_trials),
            _u32(p.max_code_attempts),
        )
    )


def decode_tree_params(r: _Reader) -> TreeParams:
    symbol_size = r.u64()
    root_size = r.u32()
    num, den = r.u32(), r.u32()
    if den == 0:
        raise ParameterError("rate denominator is zero")
    batch = r.u32()
    max_eq_degree = r.u32()
    alpha = r.f64()
    hash_size = r.u32()
    code_seed = r.u64()
    gate_trials = r.u32()
    max_code_attempts = r.u32()
    return TreeParams(
        symbol_size=symbol_size,
        root_size=root_size,
        rate=Fraction(num, den),
        batch=batch,
        max_eq_degree=max_eq_degree,
        alpha=alpha,
        hash_size=hash_size,
        code_seed=code_seed,
        gate_trials=gate_trials,
        max_code_attempts=max_code_attempts,
    )


def encode_commitment(com: Commitment) -> bytes:
    out = bytearray(MAGIC_COMMITMENT)
    out += encode_tree_params(com.params)
    out += _u64(com.block_len)
    out += _u32(len(com.root))
    for val in com.root:
        if len(val) != HASH_BYTES:
            raise ParameterError("root entries must be digest-sized")
        out += val
    return bytes(out)


def decode_commitment(data: bytes) -> Commitment:
    r = _Reader(data)
    if r.take(4) != MAGIC_COMMITMENT:
        raise ParameterError("not a commitment file")
    params = decode_tree_params(r)
    block_len = r.u64()
    count = r.u32()
    root = tuple(r.take(HASH_BYTES) for _ in range(count))
    if count != params.root_size or not r.done():
        raise ParameterError("malformed commitment")
    return Commitment(root=root, params=params, block_len=block_len)


def encode_pom(pom: ProofOfMembership) -> bytes:
    out = bytearray(MAGIC_POM)
    out += _u64(pom.base_index)
    out += _u64(pom.block_len)
    out += _u64(len(pom.base_symbol))
    out += pom.base_symbol
    out += _u16(len(pom.pairs))
    for p_idx, e_idx, p_val, e_val in pom.pairs:
        out += _u64(p_idx) + _u64(e_idx) + p_val + e_val
    _put_levels(out, pom.levels)
    return bytes(out)


def decode_pom(data: bytes) -> ProofOfMembership:
    r = _Reader(data)
    if r.take(4) != MAGIC_POM:
        raise ParameterError("not a membership proof file")
    base_index = r.u64()
    block_len = r.u64()
    base_symbol = r.take(r.u64())
    pairs = tuple(
        (r.u64(), r.u64(), r.take(HASH_BYTES), r.take(HASH_BYTES))
        for _ in range(r.u16())
    )
    levels = _take_levels(r)
    if not r.done():
        raise ParameterError("trailing bytes in membership proof")
    return ProofOfMembership(base_index, base_symbol, block_len, pairs, levels)


def _put_levels(out: bytearray, levels) -> None:
    """Sibling digest tuples: u16 tuple count, then per tuple a u16 digest
    count and the 32-byte digests."""
    out += _u16(len(levels))
    for level in levels:
        out += _u16(len(level))
        for h in level:
            out += h


def _take_levels(r: _Reader) -> tuple[tuple[bytes, ...], ...]:
    return tuple(
        tuple(r.take(HASH_BYTES) for _ in range(r.u16())) for _ in range(r.u16())
    )


def _encode_path(path: MembershipPath) -> bytes:
    out = bytearray(_u32(path.layer) + _u64(path.index))
    _put_levels(out, path.levels)
    return bytes(out)


def _decode_path(r: _Reader) -> MembershipPath:
    layer = r.u32()
    index = r.u64()
    return MembershipPath(layer, index, _take_levels(r))


def encode_fraud_proof(proof: FraudProof) -> bytes:
    out = bytearray(MAGIC_FRAUD)
    out += _u32(proof.layer)
    out += _u32(proof.equation_no)
    out += _u16(len(proof.equation.symbol_indices))
    for i in proof.equation.symbol_indices:
        out += _u64(i)
    out += _u16(len(proof.members))
    for member in proof.members:
        out += _u64(member.index)
        out += _u64(len(member.value))
        out += member.value
        out += _u8(1 if member.path is not None else 0)
        if member.path is not None:
            out += _encode_path(member.path)
    out += _u8(1 if proof.mismatch is not None else 0)
    if proof.mismatch is not None:
        out += _u64(proof.mismatch.index)
        out += proof.mismatch.expected_hash
        out += _encode_path(proof.mismatch.path)
    return bytes(out)


def decode_fraud_proof(data: bytes) -> FraudProof:
    r = _Reader(data)
    if r.take(4) != MAGIC_FRAUD:
        raise ParameterError("not a fraud proof file")
    layer = r.u32()
    equation_no = r.u32()
    equation = ParityEquation(tuple(r.u64() for _ in range(r.u16())))
    members = []
    for _ in range(r.u16()):
        index = r.u64()
        value = r.take(r.u64())
        path = _decode_path(r) if r.u8() else None
        members.append(FraudMember(index, value, path))
    mismatch = None
    if r.u8():
        mismatch = HashMismatch(r.u64(), r.take(HASH_BYTES), _decode_path(r))
    if not r.done():
        raise ParameterError("trailing bytes in fraud proof")
    return FraudProof(layer, equation_no, equation, tuple(members), mismatch)


def encode_tree_cache(params: TreeParams, block: bytes) -> bytes:
    """CLI cache: parameters plus the raw block; the tree itself is
    rebuilt deterministically on load."""
    out = bytearray(MAGIC_TREE)
    out += encode_tree_params(params)
    out += _u64(len(block))
    out += block
    return bytes(out)


def decode_tree_cache(data: bytes) -> tuple[TreeParams, bytes]:
    r = _Reader(data)
    if r.take(4) != MAGIC_TREE:
        raise ParameterError("not a tree cache file")
    params = decode_tree_params(r)
    block = r.take(r.u64())
    if not r.done():
        raise ParameterError("trailing bytes in tree cache")
    return params, block


def encode_chunk_bundle(units) -> bytes:
    """Units as (base_index, base_symbol, pom) triples."""
    out = bytearray(MAGIC_BUNDLE)
    out += _u32(len(units))
    for index, symbol, pom in units:
        if index != pom.base_index or symbol != pom.base_symbol:
            raise ParameterError("bundle unit disagrees with its proof")
        blob = encode_pom(pom)
        out += _u64(len(blob))
        out += blob
    return bytes(out)


def decode_chunk_bundle(data: bytes):
    r = _Reader(data)
    if r.take(4) != MAGIC_BUNDLE:
        raise ParameterError("not a chunk bundle file")
    units = []
    for _ in range(r.u32()):
        pom = decode_pom(r.take(r.u64()))
        units.append((pom.base_index, pom.base_symbol, pom))
    if not r.done():
        raise ParameterError("trailing bytes in chunk bundle")
    return tuple(units)
