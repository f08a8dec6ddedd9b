"""Canonical binary encodings: commitments, membership proofs, bundles, fraud proofs.

All integers are little-endian and fixed-width; variable fields carry a
length prefix. Layouts are documented byte-by-byte in FORMATS.md and frozen
by golden digests in the test suite. Encodings are self-describing enough
to decode without out-of-band parameters.

Each fixed-width record is one module-level ``struct.Struct``, which its
encoder packs and its decoder unpacks, so its layout is stated once.
Encoders collect their fields as a list of parts and join it once, so each
symbol is copied once into the output; a bundle's proofs share one list.
Decoders read through a bounds-checked ``_Reader`` over ``bytes``, which
copies any other buffer once, so no decoded field can change under its
caller. A bundle's proofs are read in place through readers windowed on the
bundle bytes. A proof's base symbol is not copied out: it is a read-only
``memoryview`` of the input, which keeps the whole input alive and does not
pickle. Every other field is ``bytes``.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .cit import Commitment, ProofOfMembership, TreeParams, unit_agrees
from .errors import ParameterError
from .retrieval import FraudMember, FraudProof, HashMismatch
from .util import HASH_BYTES

MAGIC_COMMITMENT = b"DAC2"
MAGIC_POM = b"DAP2"
MAGIC_FRAUD = b"DAF3"
MAGIC_BUNDLE = b"DAB2"


# one Struct per fixed-width record of FORMATS.md, packed by its encoder
# and unpacked by its decoder
_TREE_PARAMS = struct.Struct("<QIIIIIdIQII")  # the 56-byte tree parameters
_ROOT_HEAD = struct.Struct("<QI")  # DAC2: block_len, root count
_POM_HEAD = struct.Struct("<QQQ")  # DAP2: base_index, block_len, symbol_len
_SYMBOLS_HEAD = struct.Struct("<HI")  # symbol list: count, width
_FRAUD_HEAD = struct.Struct("<IIH")  # DAF3: layer, equation_no, member count
_MEMBER_HEAD = struct.Struct("<QQ")  # fraud member: index, value_len
# lone counts, lengths and indices
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class _Reader:
    """Bounds-checked reads over ``data[start:end]``; a buffer other than
    ``bytes`` is copied to ``bytes`` first."""

    def __init__(self, data: bytes, start: int = 0, end: int = -1):
        if not isinstance(data, bytes):
            data = memoryview(data).tobytes()
        self.data = data
        self.pos = start
        self.end = len(data) if end < 0 else end

    def _advance(self, n: int) -> int:
        """Skip n bytes; returns where they start."""
        pos = self.pos
        end = pos + n
        if end > self.end:
            raise ParameterError("truncated encoding")
        self.pos = end
        return pos

    def magic(self, magic: bytes, what: str) -> None:
        """Read the 4-byte magic, which must be ``magic``."""
        if self.take(4) != magic:
            raise ParameterError(f"not a {what} file")

    def take(self, n: int) -> bytes:
        pos = self._advance(n)
        return self.data[pos : self.pos]

    def view(self, n: int) -> memoryview:
        """The next n bytes as a read-only view of the input, not a copy."""
        pos = self._advance(n)
        return memoryview(self.data)[pos : self.pos]

    def digests(self, count: int) -> tuple[bytes, ...]:
        """``count`` 32-byte digests, behind one bounds check."""
        pos = self._advance(count * HASH_BYTES)
        data = self.data
        return tuple(data[k : k + HASH_BYTES] for k in range(pos, self.pos, HASH_BYTES))

    def symbols(self) -> tuple[bytes, ...]:
        """A u16 count and a u32 width, then that many symbols of that
        width, behind one bounds check; the width is 0 exactly when the
        count is."""
        count, width = self.unpack(_SYMBOLS_HEAD)
        if (count == 0) != (width == 0):
            raise ParameterError("symbol width must be 0 exactly when the count is")
        pos = self._advance(count * width)
        data = self.data
        return tuple(data[k : k + width] for k in range(pos, self.pos, width or 1))

    def window(self, n: int) -> "_Reader":
        """A reader over the next n bytes, which this one skips."""
        pos = self._advance(n)
        return _Reader(self.data, pos, self.pos)

    def unpack(self, fmt: struct.Struct) -> tuple:
        """The next ``fmt.size`` bytes, unpacked by ``fmt``."""
        return fmt.unpack_from(self.data, self._advance(fmt.size))

    def done(self) -> bool:
        return self.pos == self.end


def encode_tree_params(p: TreeParams) -> bytes:
    return _TREE_PARAMS.pack(
        p.symbol_size, p.root_size, p.rate.numerator, p.rate.denominator, p.batch,
        p.max_eq_degree, p.alpha, HASH_BYTES, p.code_seed, p.gate_trials, p.max_code_attempts,
    )


def decode_tree_params(r: _Reader) -> TreeParams:
    (symbol_size, root_size, num, den, batch, max_eq_degree, alpha, hash_size,
     code_seed, gate_trials, max_code_attempts) = r.unpack(_TREE_PARAMS)
    if den == 0:
        raise ParameterError("rate denominator is zero")
    params = TreeParams(
        symbol_size=symbol_size, root_size=root_size, rate=Fraction(num, den), batch=batch,
        max_eq_degree=max_eq_degree, alpha=alpha, code_seed=code_seed,
        gate_trials=gate_trials, max_code_attempts=max_code_attempts,
    )
    if hash_size != HASH_BYTES:
        raise ParameterError(f"hash_size is fixed at {HASH_BYTES}")
    return params


def encode_commitment(com: Commitment) -> bytes:
    return b"".join(
        (
            MAGIC_COMMITMENT,
            encode_tree_params(com.params),
            _ROOT_HEAD.pack(com.block_len, len(com.root)),
            *com.root,
        )
    )


def decode_commitment(data: bytes) -> Commitment:
    r = _Reader(data)
    r.magic(MAGIC_COMMITMENT, "commitment")
    params = decode_tree_params(r)
    block_len, count = r.unpack(_ROOT_HEAD)
    root = r.digests(count)
    if not r.done():
        raise ParameterError("trailing bytes in commitment")
    return Commitment(root=root, params=params, block_len=block_len)


def _put_symbols(parts: list, symbols: tuple[bytes, ...]) -> None:
    """Append the symbols as ``_Reader.symbols`` reads them: a u16 count,
    a u32 width they all share, then the symbols."""
    width = len(symbols[0]) if symbols else 0
    for symbol in symbols:
        if len(symbol) != width:
            raise ParameterError("symbols of one list must share one width")
    parts += (_SYMBOLS_HEAD.pack(len(symbols), width), *symbols)


def _put_pom(parts: list, pom: ProofOfMembership) -> None:
    """Append the parts of ``pom``'s DAP2 encoding to ``parts``."""
    index, symbol, block_len, ancestors, parities = pom
    parts += (MAGIC_POM, _POM_HEAD.pack(index, block_len, len(symbol)), symbol)
    _put_symbols(parts, ancestors)
    _put_symbols(parts, parities)


def encode_pom(pom: ProofOfMembership) -> bytes:
    parts: list = []
    _put_pom(parts, pom)
    return b"".join(parts)


def decode_pom(data: bytes) -> ProofOfMembership:
    return _take_pom(_Reader(data))


def _take_pom(r: _Reader) -> ProofOfMembership:
    """The DAP2 proof that fills all of ``r``."""
    r.magic(MAGIC_POM, "membership proof")
    base_index, block_len, symbol_len = r.unpack(_POM_HEAD)
    base_symbol = r.view(symbol_len)
    ancestors = r.symbols()
    parities = r.symbols()
    if not r.done():
        raise ParameterError("trailing bytes in membership proof")
    return ProofOfMembership(base_index, base_symbol, block_len, ancestors, parities)


def encode_fraud_proof(proof: FraudProof) -> bytes:
    parts = [MAGIC_FRAUD, _FRAUD_HEAD.pack(proof.layer, proof.equation_no, len(proof.members))]
    for member in proof.members:
        parts += (_MEMBER_HEAD.pack(member.index, len(member.value)), member.value)
        _put_symbols(parts, member.ancestors)
    mm = proof.mismatch
    parts.append(_U8.pack(1 if mm is not None else 0))
    if mm is not None:
        # the decoder reads exactly one digest
        if len(mm.expected_hash) != HASH_BYTES:
            raise ParameterError(f"a mismatch's expected hash must be {HASH_BYTES} bytes")
        parts += (_U64.pack(mm.index), mm.expected_hash)
        _put_symbols(parts, mm.ancestors)
    return b"".join(parts)


def decode_fraud_proof(data: bytes) -> FraudProof:
    r = _Reader(data)
    r.magic(MAGIC_FRAUD, "fraud proof")
    layer, equation_no, n_members = r.unpack(_FRAUD_HEAD)
    members = []
    for _ in range(n_members):
        index, value_len = r.unpack(_MEMBER_HEAD)
        members.append(FraudMember(index, r.take(value_len), r.symbols()))
    mismatch = None
    if r.unpack(_U8)[0]:
        index = r.unpack(_U64)[0]
        mismatch = HashMismatch(index, r.take(HASH_BYTES), r.symbols())
    if not r.done():
        raise ParameterError("trailing bytes in fraud proof")
    return FraudProof(layer, equation_no, tuple(members), mismatch)


def encode_chunk_bundle(units) -> bytes:
    """Units as (base_index, base_symbol, pom) triples. Every unit's parts
    go into one list, and one join copies each byte once."""
    parts = [MAGIC_BUNDLE, _U32.pack(len(units))]
    for index, symbol, pom in units:
        if not unit_agrees(index, symbol, pom):
            raise ParameterError("bundle unit disagrees with its proof")
        pom_parts: list = []
        _put_pom(pom_parts, pom)
        parts.append(_U64.pack(sum(map(len, pom_parts))))
        parts += pom_parts
    return b"".join(parts)


def decode_chunk_bundle(data: bytes):
    r = _Reader(data)
    r.magic(MAGIC_BUNDLE, "chunk bundle")
    units = []
    for _ in range(r.unpack(_U32)[0]):
        pom = _take_pom(r.window(r.unpack(_U64)[0]))
        units.append((pom.base_index, pom.base_symbol, pom))
    if not r.done():
        raise ParameterError("trailing bytes in chunk bundle")
    return tuple(units)
