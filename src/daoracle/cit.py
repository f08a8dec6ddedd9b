"""Coded interleaving tree: layered coded commitments and membership proofs.

Layout. A tree over a block of ``block_len`` bytes has coded layers indexed
by depth u = 0..L, where u = L is the base layer (symbols of ``symbol_size``
bytes) and u = 0 is the root layer of exactly ``root_size`` y-byte values,
stored verbatim as the commitment. Every layer code has rate 1/e for an
integer e >= 2 (k systematic symbols, k * e coded), and the batch q is a
multiple of e larger than e, so layer u has ``sizes[u]`` coded symbols and
``sizes[u-1] = sizes[u] / (q / e)`` by the integer shrink q / e;
geometries where the shrink never lands exactly on the root size are
rejected.

Aggregation. Child x of layer u+1 feeds the parent systematic symbol
``x mod s`` of layer u, where s is layer u's systematic count. A parent's
value is the digest of its q children's digests concatenated in ascending
child index. ``aggregate`` reads those digests from the child layer's
``Layer.hashes``, so ``build_tree`` hashes each row of each layer once and
each parent's joined q-tuple once, the count of one hash per symbol per
layer that Coded Merkle Tree commitments cost.

Membership. One digest chain runs from a symbol to the root: at each level
the running digest takes its child position in a q-tuple of child digests,
and the tuple's digest is the parent's value. ``Frontier._climb`` is its one
implementation, behind one admission guard, ``commitment_geometry``.
``verify_membership`` climbs from a bare digest at any (layer, index).
``walk_pom`` climbs from a base symbol, then checks the proof's one
(systematic, parity) value pair per intermediate layer, sampled by pure
index arithmetic, against the climbed tuples: the systematic symbol is the
parent, and the parity symbol shares that parent one level up.

Geometry. ``geometry(params, block_len)`` derives every size from the
integer e once: the base layer holds ceil(block_len / c) * e symbols, at
most ``MAX_BASE_SYMBOLS``, each layer up shrinks by q // e, and a layer of
m symbols has m // e systematic ones (each divisibility checked with
``%``). It caches the frozen result, whose ``pom_pairs`` gives a proof's
sample indices. Tree building, proof sampling and walking, reconstruction
and fraud-proof checks all read it, so the tree does no Fraction
arithmetic beyond coercing the rate.

Sampling. Above its base symbol, a proof's sibling levels depend only on
its base index, and its pairs only on that index modulo m - s of layer
depth-1. So each tree builds its sampling tables once, on its first proof
(``CodedTree.sampling``), top down, one pass per layer: the levels of
every base index and the pairs of every residue, each entry its own
tuple followed by the shared entry one layer up. Every proof sampled from
the tree, by any call, shares those tuples; its own cost is a range
check, one lookup in each table and a copy of its base row.

Batches. ``walk_poms`` walks its proofs against one ``Frontier``, as
client ingest does across one reconstruction's ``walk_pom`` calls. The
frontier holds, by position, what the proofs that passed so far
authenticated: each climbed q-tuple with the sibling levels above it, and
each pairs suffix.
A climb stops at the first position the frontier holds, and the pair
checks at the first pairs key it holds; the rest of the proof must then
equal what was authenticated there, which is one tuple comparison each.
Its hash memo hashes each distinct q-tuple and 32-byte value once. So
each proof's verdict is that of a walk on its own, and the delivered
values and tuples are derived once per distinct position. A
frontier is never kept past its batch, so never shared across nodes or
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ._kernels import digest_from_int, int_from_digest, xor_members
from .codec import CodeSpec, encode_array, generate_code, is_bad_code
from .errors import BadCode, IndexOutOfRange, ParameterError
from .util import HASH_BYTES, as_rate, derive_seed, sha256


# caps on the alpha gate's loop counts: one layer size costs at most
# MAX_CODE_ATTEMPTS * MAX_GATE_TRIALS peels
MAX_GATE_TRIALS = 128
MAX_CODE_ATTEMPTS = 32
# cap on a tree's coded base symbols, and so on every layer size, e and
# root_size: block_len and the rate are read from files, and each layer's
# code is generated and gated before anything a proof carries is checked
MAX_BASE_SYMBOLS = 1 << 12


@dataclass(frozen=True)
class TreeParams:
    """Geometry and code knobs for one tree family.

    symbol_size: bytes per base symbol (c); root_size: symbol count of the
    root layer (t); rate: coding ratio (r), 1/e for an integer e >= 2;
    batch: aggregation batch (q), a multiple of e larger than e;
    max_eq_degree: parity equation cap (d), at least 2; alpha: required
    undecodable ratio for every layer code. Digests are HASH_BYTES (32)
    wide.
    code_seed seeds deterministic per-layer code generation; gate_trials
    and max_code_attempts drive the bad-code gate (gate_trials=0 disables
    gating). Both are loop counts read from files, so they are capped at
    MAX_GATE_TRIALS and MAX_CODE_ATTEMPTS.
    """

    symbol_size: int
    root_size: int
    rate: Fraction
    batch: int
    max_eq_degree: int
    alpha: float
    code_seed: int = 0
    gate_trials: int = 32
    max_code_attempts: int = 16

    def __post_init__(self):
        rate = as_rate(self.rate)
        object.__setattr__(self, "rate", rate)
        # exactly the params layer codes exist for (codec.generate_code)
        if rate.numerator != 1 or rate.denominator < 2:
            raise ParameterError("tree rate must be 1/e for an integer e >= 2")
        if self.batch <= rate.denominator:
            raise ParameterError("batch * rate must exceed 1 so layers shrink")
        if self.batch % rate.denominator:
            # only then does each layer's systematic count divide the one
            # below, so the pair a proof samples at a layer (i mod s_u) is
            # the parent its digest chain climbs through
            raise ParameterError("batch * rate must be an integer")
        if self.max_eq_degree < 2:
            raise ParameterError("max_eq_degree (d) must be >= 2")
        if self.root_size < 1:
            raise ParameterError("root_size (t) must be >= 1")
        if self.symbol_size < 1:
            raise ParameterError("symbol_size (c) must be >= 1")
        if not 0 <= self.alpha < 1:
            raise ParameterError("alpha must lie in [0, 1)")
        for name, cap in (
            ("gate_trials", MAX_GATE_TRIALS),
            ("max_code_attempts", MAX_CODE_ATTEMPTS),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or not 0 <= value <= cap:
                raise ParameterError(f"{name} must be an integer in [0, {cap}]")

    def layer_sizes(self, block_len: int) -> tuple[int, ...]:
        """Coded layer sizes from root to base for a block of this length."""
        return geometry(self, block_len).sizes


@dataclass(frozen=True)
class Geometry:
    """Integer shape of one tree: ``sizes[u]`` coded and ``sys_counts[u]``
    systematic symbols at depth u, from the root (u = 0) to the base
    (u = depth)."""

    sizes: tuple[int, ...]
    sys_counts: tuple[int, ...]
    depth: int

    def pom_pairs(self, base_index: int) -> list[tuple[int, int]]:
        """(systematic, parity) sample indices of a proof, for layers
        depth-1 down to 1."""
        out = []
        for u in range(self.depth - 1, 0, -1):
            m, s = self.sizes[u], self.sys_counts[u]
            out.append((base_index % s, s + base_index % (m - s)))
        return out


def geometry(params: TreeParams, block_len: int) -> Geometry:
    """Layer sizes and systematic counts for a block of ``block_len``
    bytes. Raises ParameterError when the base layer would exceed
    ``MAX_BASE_SYMBOLS`` or the sizes are not all integral or never land
    exactly on ``root_size``."""
    return _geometry(
        params.symbol_size, params.root_size, params.rate.denominator, params.batch, block_len
    )


@lru_cache(maxsize=256)
def _geometry(symbol_size, root_size, e, batch, block_len) -> Geometry:
    # keyed on the plain ints the shape depends on, so a lookup never
    # hashes the params (a Fraction's hash is recomputed on every call);
    # validated params only, so the shrink batch // e is at least 2
    if block_len < 1:
        raise ParameterError("block must be non-empty")
    sizes = [-(-block_len // symbol_size) * e]
    if sizes[0] > MAX_BASE_SYMBOLS:
        raise ParameterError(
            f"base layer of {sizes[0]} symbols exceeds the cap of {MAX_BASE_SYMBOLS}"
        )
    shrink = batch // e
    while sizes[-1] > root_size:
        nxt, rem = divmod(sizes[-1], shrink)
        if rem:
            raise ParameterError("layer sizes must stay integral")
        sizes.append(nxt)
    if sizes[-1] != root_size or len(sizes) < 2:
        raise ParameterError(
            f"layer sizes {sizes[::-1]} never land on root_size {root_size}"
        )
    sys_counts = []
    for m in sizes:
        s, rem = divmod(m, e)
        if rem:
            raise ParameterError(
                f"layer of {m} symbols has non-integral systematic count"
            )
        sys_counts.append(s)
    return Geometry(tuple(reversed(sizes)), tuple(reversed(sys_counts)), len(sizes) - 1)


@dataclass(frozen=True)
class Layer:
    symbols: np.ndarray  # (size, width) uint8, read-only
    hashes: np.ndarray  # (size, 32) uint8, digests of the rows
    code: CodeSpec


@dataclass(frozen=True)
class Commitment:
    root: tuple[bytes, ...]
    params: TreeParams
    block_len: int


@dataclass(frozen=True)
class ProofOfMembership:
    """Base symbol plus its sampled pairs and sibling digests.

    pairs[j] is (p_index, e_index, p_value, e_value) for layer L-1-j, for
    j = 0..L-2. levels[j] holds the q-1 sibling digests of the aggregation
    at parent layer L-1-j, for j = 0..L-1 (position of the on-path child is
    implied by index arithmetic).
    """

    base_index: int
    base_symbol: bytes
    block_len: int
    pairs: tuple[tuple[int, int, bytes, bytes], ...]
    levels: tuple[tuple[bytes, ...], ...]


@dataclass(frozen=True)
class MembershipPath:
    """Sibling digests binding one symbol (or just its digest) at
    (layer, index) to the commitment: one q-1 tuple per aggregation level
    from the symbol's own layer up to the root."""

    layer: int
    index: int
    levels: tuple[tuple[bytes, ...], ...]


@dataclass(frozen=True)
class CodedTree:
    params: TreeParams
    layers: tuple[Layer, ...]  # depth 0 = root layer ... depth L = base
    commitment: Commitment
    block_len: int

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(layer.symbols.shape[0] for layer in self.layers)

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    @cached_property
    def sampling(self) -> "SamplingTables":
        """This tree's proof sampling tables, built on first use."""
        return SamplingTables(self)


def _hash_rows(rows) -> np.ndarray:
    """(rows, 32) digests of the rows of a C-contiguous 2-D uint8 array, or
    of a list of bytes; each row is a contiguous buffer, hashed in place."""
    digests = b"".join(map(sha256, rows))
    return np.frombuffer(digests, dtype=np.uint8).reshape(-1, HASH_BYTES)


@lru_cache(maxsize=512)
def layer_code(params: TreeParams, layer_size: int) -> CodeSpec:
    """Deterministic, gate-checked code for one layer size.

    Candidate seeds start at a stable derivation of (code_seed, layer_size)
    and advance by one per failed gate, so every party regenerating from
    the same parameters lands on the same accepted code.
    """
    k, rem = divmod(layer_size, params.rate.denominator)
    if rem:
        raise ParameterError(
            f"layer of {layer_size} symbols has non-integral systematic count"
        )
    base_seed = derive_seed("cit-code", params.code_seed, layer_size)
    for attempt in range(max(1, params.max_code_attempts)):
        seed = (base_seed + attempt) & ((1 << 64) - 1)
        cand = generate_code(k, params.rate, params.max_eq_degree, seed)
        if params.gate_trials == 0 or not is_bad_code(
            cand, params.alpha, params.gate_trials, rng_seed=seed
        ):
            return cand
    raise BadCode(
        f"no code of size {layer_size} met alpha={params.alpha} "
        f"within {params.max_code_attempts} attempts",
        layer_size=layer_size,
        code_seed=params.code_seed,
    )


def aggregate(child_hashes: np.ndarray, parent_size: int, params: TreeParams) -> np.ndarray:
    """Parent systematic symbols from the (size, 32) digests of one coded
    child layer: parent k is the digest of children k, k + s, k + 2s, ...
    joined, for s = the parent layer's systematic count."""
    s_par = parent_size // params.rate.denominator
    # child x = pos * s_par + k sits at [pos, k]; gather each parent's q
    # digests into one contiguous row
    q = child_hashes.shape[0] // s_par
    joined = child_hashes.reshape(q, s_par, HASH_BYTES).swapaxes(0, 1)
    return _hash_rows(joined.reshape(s_par, q * HASH_BYTES))


def _encode_digests(code: CodeSpec, inputs: np.ndarray) -> list[bytes]:
    """The rows of ``encode_array(code, inputs)`` for a (k, 32) array of
    digests, as bytes: at this width one Python int XOR beats a numpy call,
    as in the peel of a digest layer."""
    values = [*map(int_from_digest, _split(inputs)), *[0] * (code.n_coded - code.n_systematic)]
    for eq in code.tables.members:
        values[eq[-1]] = xor_members(values, eq)  # its parity member is still 0
    return list(map(digest_from_int, values))


def build_tree(
    block: bytes,
    params: TreeParams,
    base_tamper: Optional[Callable[[np.ndarray, CodeSpec], None]] = None,
) -> CodedTree:
    """Encode, hash and aggregate every layer of the tree over ``block``.

    ``base_tamper(symbols, code)``, when given, edits the encoded base
    layer in place before anything is hashed, so the tree stays
    self-consistent (every proof verifies) while the base layer may
    violate its code."""
    geo = geometry(params, len(block))
    sizes, depth = geo.sizes, geo.depth
    padded = block + bytes(-len(block) % params.symbol_size)
    # a read-only view: encode_array copies it into the codeword once
    base_inputs = np.frombuffer(padded, dtype=np.uint8).reshape(-1, params.symbol_size)

    layers: dict[int, Layer] = {}
    code = layer_code(params, sizes[depth])
    cur = encode_array(code, base_inputs)
    if base_tamper is not None:
        base_tamper(cur, code)
    layers[depth] = Layer(cur, _hash_rows(cur), code)
    for u in range(depth - 1, -1, -1):
        parent_sys = aggregate(layers[u + 1].hashes, sizes[u], params)
        code = layer_code(params, sizes[u])
        rows = _encode_digests(code, parent_sys)
        cur = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, HASH_BYTES)
        layers[u] = Layer(cur, _hash_rows(rows), code)
    for layer in layers.values():
        layer.symbols.setflags(write=False)
        layer.hashes.setflags(write=False)

    root_vals = tuple(row.tobytes() for row in layers[0].symbols)
    commitment = Commitment(root=root_vals, params=params, block_len=len(block))
    return CodedTree(
        params=params,
        layers=tuple(layers[u] for u in range(depth + 1)),
        commitment=commitment,
        block_len=len(block),
    )


def _split(arr: np.ndarray) -> list[bytes]:
    """The rows of a (rows, 32) uint8 array as bytes, from one copy."""
    flat = arr.tobytes()
    return [flat[k : k + HASH_BYTES] for k in range(0, len(flat), HASH_BYTES)]


class SamplingTables:
    """What every proof sampled from one tree shares (the module's
    Sampling): ``levels[x]``, the sibling levels of base index x, and
    ``pairs[r]``, the pairs of each base index i with i mod ``pair_mod`` =
    r, each entry its own tuple followed by the entry one layer up."""

    __slots__ = ("levels", "pairs", "pair_mod")

    def __init__(self, tree: CodedTree):
        geo = geometry(tree.params, tree.block_len)
        sizes, sys_counts, q = geo.sizes, geo.sys_counts, tree.params.batch
        # child x of layer w + 1 sits at position x // s_w under parent
        # x mod s_w, after levels[par] of the layer above
        levels = [()] * sizes[0]
        for w in range(geo.depth):
            s_par = sys_counts[w]
            digests = _split(tree.layers[w + 1].hashes)
            below = [()] * sizes[w + 1]
            for par in range(s_par):
                children, above = tuple(digests[par::s_par]), levels[par]
                for pos in range(q):
                    below[pos * s_par + par] = (children[:pos] + children[pos + 1 :],) + above
            levels = below
        self.levels = levels
        # the pair at layer u of residue r mod m_u - s_u is (r mod s_u,
        # s_u + r); s_{u-1} divides s_u, so m_{u-1} - s_{u-1} divides m_u - s_u
        pairs, mod = [()], 1
        for u in range(1, geo.depth):
            s = sys_counts[u]
            rows = _split(tree.layers[u].symbols)
            pairs = [
                ((r % s, s + r, rows[r % s], rows[s + r]),) + pairs[r % mod]
                for r in range(sizes[u] - s)
            ]
            mod = sizes[u] - s
        self.pairs, self.pair_mod = pairs, mod


def sample_pom(tree: CodedTree, base_index: int) -> ProofOfMembership:
    """Membership proof of base symbol ``base_index``, read from the tree's
    sampling tables, so it shares every pair and sibling tuple it has in
    common with any proof sampled from this tree before."""
    base = tree.layers[-1].symbols
    if not 0 <= base_index < base.shape[0]:
        raise IndexOutOfRange(f"base index {base_index} not in [0, {base.shape[0]})")
    tables = tree.sampling
    return ProofOfMembership(
        base_index=base_index,
        base_symbol=base[base_index].tobytes(),
        block_len=tree.block_len,
        pairs=tables.pairs[base_index % tables.pair_mod],
        levels=tables.levels[base_index],
    )


def sample_poms(tree: CodedTree, base_indices: Iterable[int]) -> list[ProofOfMembership]:
    """``[sample_pom(tree, i) for i in base_indices]``; the proofs share
    what the tree's sampling tables hold, as proofs of separate calls do."""
    return [sample_pom(tree, i) for i in base_indices]


@dataclass
class PomHarvest:
    """Everything a verified proof pins down: symbol values keyed by
    (layer, index) and full q-digest child tuples keyed by
    (parent_layer, parent_index)."""

    values: dict[tuple[int, int], bytes] = field(default_factory=dict)
    tuples: dict[tuple[int, int], tuple[bytes, ...]] = field(default_factory=dict)


def commitment_geometry(commitment: Commitment, params: TreeParams) -> Optional[Geometry]:
    """The commitment's geometry, or None when no proof can match it: the
    params are not the ones the commitment echoes, the root has the wrong
    length, or the geometry is invalid. Every membership and fraud-proof
    check starts here."""
    if params != commitment.params or len(commitment.root) != params.root_size:
        return None
    try:
        return geometry(params, commitment.block_len)
    except ParameterError:
        return None


class Frontier:
    """What the passing proofs of one batch authenticated against one
    commitment, keyed by position, never by content:

    - ``paths[(w, p)]``: the q-tuple of child digests under parent p of
      layer w, its digest, and the sibling levels from there to the root;
    - ``pairs[(u, r)]`` for r = i mod (m_u - s_u), which decides a proof's
      pairs from layer u up to layer 1: those pairs;
    - ``base[i]``: base symbol i;
    - ``digests``: sha256 of each q-tuple and 32-byte value the walks met,
      keyed by content (a pure function, so any walk may add to it).

    Only a proof whose whole walk passed adds positions, so ``paths`` is
    upward-closed: with (w, p) it holds every position above. Each symbol
    it holds was certified by its walk, against the committed digest in its
    parent's climbed tuple. A frontier is bound to the commitment and
    params it was made for, and lives for one batch (one node's units, one
    audit, one reconstruction)."""

    __slots__ = ("commitment", "params", "geo", "paths", "pairs", "base", "digests")

    def __init__(self, commitment: Commitment, params: TreeParams):
        self.commitment = commitment
        self.params = params
        self.geo = commitment_geometry(commitment, params)
        self.paths: dict[tuple[int, int], tuple] = {}
        self.pairs: dict[tuple[int, int], tuple] = {}
        self.base: dict[int, bytes] = {}
        self.digests: dict = {}

    def _climb(self, u, x, h, levels) -> Optional[list]:
        """The digest chain of digest ``h`` of symbol ``x`` of layer ``u``
        through ``levels`` (u tuples of q-1 sibling digests): a list of
        ((parent layer, parent index), q-tuple, its digest), bottom up, of
        the levels below the first position the frontier holds, or None
        when the chain does not reach ``commitment.root``. At a held
        position the chain's tuple and the levels above must be the ones
        authenticated there."""
        if len(levels) != u:
            return None
        sys_counts = self.geo.sys_counts
        paths, digests = self.paths, self.digests
        n_sibs = self.params.batch - 1
        climbed = []
        for j, (sibs, w) in enumerate(zip(levels, range(u - 1, -1, -1))):
            s_par = sys_counts[w]
            par, pos = x % s_par, x // s_par
            tup = sibs[:pos] + (h,) + sibs[pos:]
            key = (w, par)
            known = paths.get(key)
            if known is not None:
                # any other tuple here, or other levels above, could only
                # reach the root through a sha256 collision
                if tup == known[0] and levels[j + 1 :] == known[2]:
                    return climbed
                return None
            value = digests.get(tup)
            if value is None:
                # only q-tuples of digests enter the memo, so a tuple found
                # there has passed these checks
                if len(sibs) != n_sibs:
                    return None
                for sib in sibs:
                    if len(sib) != HASH_BYTES:
                        return None
                value = digests[tup] = sha256(b"".join(tup))
            climbed.append((key, tup, value))
            if w == 0:
                return climbed if value == self.commitment.root[par] else None
            h = digests.get(value)
            if h is None:
                h = digests[value] = sha256(value)
            x = par
        return None  # unreachable for u >= 1: the loop ends at w == 0

    def walk(self, pom: ProofOfMembership) -> bool:
        """True iff ``pom`` is consistent with the commitment. A proof that
        passes adds what it authenticated.

        The proof carries the field types ``ProofOfMembership`` declares,
        as ``serialize.decode_pom`` builds them; every value in it is
        checked, either here or by equality with what the frontier holds."""
        geo = self.geo
        if geo is None:
            return False
        depth, sizes, sys_counts = geo.depth, geo.sizes, geo.sys_counts
        i, pairs = pom.base_index, pom.pairs
        if pom.block_len != self.commitment.block_len or not 0 <= i < sizes[depth]:
            return False
        if len(pom.base_symbol) != self.params.symbol_size or len(pairs) != depth - 1:
            return False
        h = sha256(pom.base_symbol)
        climbed = self._climb(depth, i, h, pom.levels)
        if climbed is None:
            return False

        # the pair sampled at layer u, (i mod s, s + i mod (m - s)): the
        # systematic symbol is the parent of the tuple climbed below it, and
        # the parity symbol's digest sits at its child position one up
        # (admitted params make s_{u-1} divide both s and m - s, so that is
        # the parent the chain climbs through)
        paths, known_pairs, digests = self.paths, self.pairs, self.digests
        n_new = len(climbed)
        checked = []
        for j, u in enumerate(range(depth - 1, 0, -1)):
            s_par = sys_counts[u]
            key = (u, i % (sizes[u] - s_par))
            suffix = known_pairs.get(key)
            if suffix is not None:
                if pairs[j:] != suffix:
                    return False
                break
            p_idx, e_idx, p_val, e_val = pairs[j]
            if p_idx != i % s_par or e_idx != s_par + key[1] or len(e_val) != HASH_BYTES:
                return False
            value = climbed[j][2] if j < n_new else paths[(u, p_idx)][1]
            if value != p_val:
                return False
            e_hash = digests.get(e_val)
            if e_hash is None:
                e_hash = digests[e_val] = sha256(e_val)
            s_up = sys_counts[u - 1]
            up = climbed[j + 1][1] if j + 1 < n_new else paths[(u - 1, i % s_up)][0]
            if up[e_idx // s_up] != e_hash:
                return False
            checked.append(key)

        levels = pom.levels
        for j, (key, tup, value) in enumerate(climbed):
            paths[key] = (tup, value, levels[j + 1 :])
        for j, key in enumerate(checked):
            known_pairs[key] = pairs[j:]
        self.base.setdefault(i, pom.base_symbol)
        return True

    def known(self):
        """(values, tuples) of everything the passing proofs delivered, each
        certified symbol by (layer, index) and each climbed q-tuple by
        (parent layer, parent index); each entry is derived once, however
        many proofs carried it."""
        tuples = {key: entry[0] for key, entry in self.paths.items()}
        values = {}
        if self.geo is None:
            return values, tuples
        depth = self.geo.depth
        for i, symbol in self.base.items():
            values[(depth, i)] = symbol
        for (u, _), suffix in self.pairs.items():
            p_idx, e_idx, p_val, e_val = suffix[0]
            values.setdefault((u, p_idx), p_val)
            values.setdefault((u, e_idx), e_val)
        return values, tuples


def walk_poms(
    commitment: Commitment, params: TreeParams, poms: Sequence[ProofOfMembership]
) -> list[bool]:
    """Each proof's verdict, ``walk_pom(commitment, params, pom) is not
    None``, walked against one ``Frontier``: a proof stops climbing where
    an earlier passing proof already reached the root, and each distinct
    q-tuple and 32-byte value is hashed once across the proofs."""
    frontier = Frontier(commitment, params)
    return [frontier.walk(pom) for pom in poms]


def walk_pom(
    commitment: Commitment,
    params: TreeParams,
    pom: ProofOfMembership,
    frontier: Optional[Frontier] = None,
) -> Union[Optional[PomHarvest], bool]:
    """Recompute the digest chain of a proof. Returns a PomHarvest when the
    proof is consistent with the commitment, else None.

    With a ``frontier``, made for this very commitment and params, the
    proof is walked against it and the verdict is returned as a bool; a
    caller walking many proofs reads what they delivered from
    ``frontier.known()``."""
    if frontier is not None:
        if commitment is not frontier.commitment or params is not frontier.params:
            raise ValueError("the frontier was made for another commitment")
        return frontier.walk(pom)
    frontier = Frontier(commitment, params)
    if not frontier.walk(pom):
        return None
    return PomHarvest(*frontier.known())


def verify_symbol(commitment: Commitment, params: TreeParams, pom: ProofOfMembership) -> bool:
    """True iff the proof's digest chain reproduces a commitment entry."""
    return walk_pom(commitment, params, pom) is not None


def verify_membership(
    commitment: Commitment, params: TreeParams, leaf_hash: bytes, path: MembershipPath
) -> bool:
    """Check a bare digest claim: the commitment binds a symbol hashing to
    ``leaf_hash`` at (path.layer, path.index)."""
    frontier = Frontier(commitment, params)
    geo = frontier.geo
    if geo is None:
        return False
    u = path.layer
    if not 1 <= u <= geo.depth or not 0 <= path.index < geo.sizes[u]:
        return False
    return frontier._climb(u, path.index, leaf_hash, path.levels) is not None
