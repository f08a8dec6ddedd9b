"""Coded interleaving tree: layered coded commitments and membership proofs.

Layout. A tree over a block of ``block_len`` bytes has coded layers indexed
by depth u = 0..L, where u = L is the base layer (symbols of ``symbol_size``
bytes), u = 0 is the root layer of exactly ``root_size`` symbols, and
every layer above the base holds symbols of q * y bytes. Every layer code
has rate 1/e for an integer e >= 2 (k systematic symbols, k * e coded),
and the batch q is a multiple of e larger than e, so layer u has
``sizes[u]`` coded symbols and ``sizes[u-1] = sizes[u] / (q / e)`` by the
integer shrink q / e; geometries where the shrink never lands exactly on
the root size are rejected.

Aggregation. Child x of layer u+1 feeds the parent systematic symbol
``x mod s`` of layer u, where s is layer u's systematic count, at slot
``x // s``: a parent is its q children's digests concatenated in ascending
child index, q * 32 bytes, as in Coded Merkle Trees. So a layer above the
base stays one tuple of bytes rows from its encode (``codec.encode_rows``)
to its proofs: ``build_tree`` hashes each row of a layer once into a list
of digests, held only until the parent layer is built, and ``aggregate``
joins them into the parent rows, so a tree costs one hash per symbol per
layer, as Coded Merkle Tree commitments do. Rows of at least
``PARALLEL_MIN_BYTES`` (16 KiB), as ``bulk_block``'s 64 KiB base rows
are, are hashed on two threads, and the base layer's while it is encoded
(``_kernels.pipelined_map``): a helper hashes the systematic rows at once
and each parity row as soon as ``xor_encode`` has written it, and the
encoding thread joins in once the last equation is written. A round's
1 KiB base rows and every digest layer's rows are hashed on one thread,
after their encode (``_kernels.map_rows``). A ``tamper`` hook sees a
whole encoded layer, as one array, before any row of it is hashed, so
with a hook the base layer is encoded, handed to it, and then hashed. A
tree's ``Layer`` keeps the base layer as its read-only codeword array and
a digest layer as the bytes rows its proofs share. The commitment holds
the digests of the root layer's t symbols.

Membership. One digest chain runs from a symbol to the commitment: at each
layer up, the running digest must sit at its slot of the ancestor symbol,
and the ancestor's digest is the running digest one layer up; at the root
layer it must be the commitment's entry. ``Frontier._climb`` is its one
implementation, on the geometry of the params the commitment carries: a
``Commitment`` names a tree by construction, so it has one. A
claim is (layer, index, digest, ancestors): ``Frontier.claim`` climbs from
a bare digest at any (layer, index) through its ancestors, one per layer
up to the root layer (none at the root layer). ``Frontier.walk`` climbs
from a base symbol through the proof's ancestors, then checks the proof's
one parity symbol per intermediate layer, sampled by pure index
arithmetic: its digest sits at its slot of the ancestor one layer up.
``walk_pom`` and ``verify_membership`` are these two methods under the
module names that timers and call counters wrap.

Geometry. ``geometry(params, block_len)`` derives every size from the
integer e once: the base layer holds ceil(block_len / c) * e symbols, at
most ``MAX_BASE_SYMBOLS``, each layer up shrinks by q // e, and a layer of
m symbols has m // e systematic ones (each divisibility checked with
``%``). It caches the frozen result. Tree building, proof sampling and
walking, reconstruction and fraud-proof checks all read it, so the tree
does no Fraction arithmetic beyond coercing the rate.

Sampling. A proof's ancestors depend only on its base index modulo the
systematic count s of layer depth-1, and its parity symbols only on that
index modulo m - s of that layer. So ``build_tree`` makes each tree's
sampling tables (``CodedTree.sampling``) from its digest layers' rows,
after any tamper hook, top down, one pass per layer: the ancestors of
every residue and the parity symbols of every residue, each entry its own
symbol followed by the shared entry one layer up. Every proof sampled from
the tree, by any call, shares those symbols; its own cost is a range
check, one lookup in each table, its base row and one tuple
(``ProofOfMembership`` is a ``NamedTuple``, built positionally). A base
row wider than ``INT_VALUE_MAX_BYTES``, the width above which the peel
keeps its solved rows as views too, is handed out as a read-only
``memoryview`` of the tree's own codeword, sliced from one flat view the
tables make once per tree, so a proof keeps the whole codeword alive. A
narrower row, such as a round's 1 KiB one, is copied to ``bytes``: nodes
keep a round's proofs across rounds, and a copy pins only its own row.
The boundary is not tuned for sampling: the benchmark's rows are 1 KiB
or 64 KiB, and any width between them sorts them alike, so the package's
one stated width between a small row and a wide one is reused rather
than a second constant added. Retuning the peel's constant moves it too.

Batches. A ``Frontier``, made from a commitment alone, is the one claim
checker: a node walks its units on one, an audit a voter's units, a
reconstruction what it collected, and a fraud-proof check claims each of
the proof's members and its mismatch on one. The frontier holds what the
claims that passed so far authenticated in one list per layer, indexed
by position and sized from the commitment's geometry: each ancestor with
the ancestors above it, each parity symbol with the parity symbols above
it, and each base symbol alone. Its constructor works out once the
systematic counts and periods each climb step and parity check reads, so
a claim's step is index arithmetic and one list read. A climb stops at
the first position the frontier holds, and the parity checks at the
first one they hold; the rest of the claim must then equal what was
authenticated there, which is one tuple comparison each. So each claim's
verdict is that of a check on its own, and a symbol a passing claim
delivered is not hashed again in its batch. ``Frontier.rows(u)`` gives
layer u's certified symbols by index, which a reconstruction peels from.
A frontier is never kept past its batch, so never shared across nodes or
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._kernels import INT_VALUE_MAX_BYTES, PARALLEL_MIN_BYTES, map_rows, pipelined_map
from .codec import CodeSpec, encode_array, encode_rows, generate_code, is_bad_code
from .errors import BadCode, ParameterError
from .util import HASH_BYTES, MASK64, as_rate, derive_seed, sha256


# caps on the alpha gate's loop counts: one layer size costs at most
# MAX_CODE_ATTEMPTS * MAX_GATE_TRIALS peels, and so does a confirmed
# bad-code round, whose one replacement seed runs one layer_code search
MAX_GATE_TRIALS = 128
MAX_CODE_ATTEMPTS = 32
# cap on a tree's coded base symbols, and so on every layer size, e and
# root_size: block_len and the rate are read from files, and each layer's
# code is generated and gated before anything a proof carries is checked
MAX_BASE_SYMBOLS = 1 << 12
U32_MAX = (1 << 32) - 1


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
        e = rate.denominator
        # exactly the params layer codes exist for (codec.generate_code),
        # each integer within its width in the DAC2 record (FORMATS.md)
        if rate.numerator != 1 or e < 2:
            raise ParameterError("tree rate must be 1/e for an integer e >= 2")
        for name, value, low, high in (
            ("rate denominator (e)", e, 2, U32_MAX),
            ("batch (q)", self.batch, e + 1, U32_MAX),  # so layers shrink
            ("max_eq_degree (d)", self.max_eq_degree, 2, U32_MAX),
            ("root_size (t)", self.root_size, 1, U32_MAX),
            ("symbol_size (c)", self.symbol_size, 1, MASK64),
            ("code_seed", self.code_seed, 0, MASK64),
            ("gate_trials", self.gate_trials, 0, MAX_GATE_TRIALS),
            ("max_code_attempts", self.max_code_attempts, 0, MAX_CODE_ATTEMPTS),
        ):
            if not isinstance(value, int) or not low <= value <= high:
                raise ParameterError(f"{name} must be an integer in [{low}, {high}]")
        if self.batch % e:
            # only then does each layer's systematic count divide the one
            # below, so the ancestor a proof carries at a layer (i mod s_u)
            # is the parent its digest chain climbs through
            raise ParameterError("batch * rate must be an integer")
        if not 0 <= self.alpha < 1:
            raise ParameterError("alpha must lie in [0, 1)")

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
    """A layer's symbols by index: the base layer's read-only uint8
    codeword array, or a digest layer's bytes rows, which its proofs share."""

    symbols: np.ndarray | tuple[bytes, ...]


@dataclass(frozen=True)
class Commitment:
    """One tree's root-layer digests, params and block length: values that
    name no tree raise ParameterError, so every commitment has a geometry."""

    root: tuple[bytes, ...]
    params: TreeParams
    block_len: int

    def __post_init__(self):
        geometry(self.params, self.block_len)
        if self.block_len >= 1 << 64:  # DAC2's u64
            raise ParameterError("block_len must be below 2**64")
        t = self.params.root_size
        if len(self.root) != t or any(len(entry) != HASH_BYTES for entry in self.root):
            raise ParameterError(f"root must be root_size = {t} digests of {HASH_BYTES} bytes")


class ProofOfMembership(NamedTuple):
    """Base symbol plus the symbols that bind it to the commitment.

    ancestors[j] is the symbol ``base_index mod s`` of layer L-1-j, for
    j = 0..L-1: the parent the digest chain climbs through. parities[j] is
    the parity symbol ``s + base_index mod (m - s)`` of layer L-1-j, for
    j = 0..L-2. Every index follows from the base index, so none is stored.
    A decoded proof's base symbol is a read-only view of the bytes it was
    decoded from (see ``serialize``), and a sampled one wider than
    ``INT_VALUE_MAX_BYTES`` a read-only view of its tree's codeword (see
    ``sample_pom``); either keeps what it views alive and does not pickle.

    An immutable tuple in this field order: ``sample_pom`` and
    ``serialize`` build it positionally, ``Frontier.walk`` unpacks it, and
    ``_replace`` makes an edited copy.
    """

    base_index: int
    base_symbol: bytes | memoryview
    block_len: int
    ancestors: tuple[bytes, ...]
    parities: tuple[bytes, ...]


def unit_agrees(index: int, symbol, pom: ProofOfMembership) -> bool:
    """True iff a (base index, base symbol, proof) unit's index and symbol
    are its proof's. A memoryview's == compares byte by byte, even with
    itself, so identity is tested first (a decoded or sampled unit's symbol
    is its proof's own object), and a ``bytes`` symbol on either side is
    compared by ``bytes.startswith`` on equal lengths, which compares the
    buffers whole; only two views meet at ==."""
    own = pom.base_symbol
    if index != pom.base_index:
        return False
    if symbol is own:
        return True
    if type(own) is bytes:
        symbol, own = own, symbol
    if type(symbol) is bytes and type(own) in (bytes, memoryview):
        return len(symbol) == len(own) and symbol.startswith(own)
    return symbol == own


@dataclass(frozen=True)
class CodedTree:
    layers: tuple[Layer, ...]  # depth 0 = root layer ... depth L = base
    commitment: Commitment
    sampling: SamplingTables  # built with the tree, from its digest rows

    @property
    def sizes(self) -> tuple[int, ...]:
        return geometry(self.commitment.params, self.commitment.block_len).sizes


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
    attempts = max(1, params.max_code_attempts)  # 0 still tries the first seed
    for attempt in range(attempts):
        seed = (base_seed + attempt) & MASK64
        cand = generate_code(k, params.rate, params.max_eq_degree, seed)
        if params.gate_trials == 0 or not is_bad_code(
            cand, params.alpha, params.gate_trials, rng_seed=seed
        ):
            return cand
    raise BadCode(
        f"no code of size {layer_size} met alpha={params.alpha} "
        f"within {attempts} attempts",
        layer_size=layer_size,
        code_seed=params.code_seed,
    )


def aggregate(child_hashes: list[bytes], parent_size: int, params: TreeParams) -> list[bytes]:
    """Parent systematic symbols from the digests of one coded child layer:
    parent k is the digests of children k, k + s, k + 2s, ... concatenated,
    for s = the parent layer's systematic count."""
    s_par = parent_size // params.rate.denominator
    return [b"".join(child_hashes[k::s_par]) for k in range(s_par)]


def build_tree(
    block: bytes,
    params: TreeParams,
    tamper: Optional[Callable[[int, np.ndarray, CodeSpec], None]] = None,
) -> CodedTree:
    """Encode, hash and aggregate every layer of the tree over ``block``,
    from the base layer up.

    ``tamper(u, symbols, code)``, when given, is called once per layer,
    from the base (u = depth) up to the root (u = 0), with the layer's
    encoded (m, width) uint8 array, which it may edit in place before
    anything is hashed, so the tree commits to the edited rows (a digest
    layer's rows are joined into that array for the call and split back
    after it). An edited parity symbol, or any edited base symbol, leaves
    every proof verifying while its layer violates its code; an edited
    systematic symbol above the base also unbinds the child whose digest
    sat in the edited slot."""
    geo = geometry(params, len(block))
    sizes, depth = geo.sizes, geo.depth
    padded = block + bytes(-len(block) % params.symbol_size)
    # a read-only view: encode_array copies it into the codeword once
    base_inputs = np.frombuffer(padded, dtype=np.uint8).reshape(-1, params.symbol_size)

    code = layer_code(params, sizes[depth])
    if tamper is None and params.symbol_size >= PARALLEL_MIN_BYTES:
        # a helper thread hashes each row as soon as it is final, the
        # systematic ones at once, while this thread encodes the rest
        with pipelined_map(sha256, base_inputs, code.n_coded) as (put, hashes):
            cur = encode_array(code, base_inputs, put)
    else:
        # narrower rows are hashed on this thread alone, after the whole
        # encode: overlapping them gains nothing, and collecting their
        # parity rows in a list grown during the encode left a round's
        # heap in a layout with more page faults (ROADMAP, "Measuring on
        # this host")
        cur = encode_array(code, base_inputs)
        if tamper is not None:
            tamper(depth, cur, code)
        hashes = map_rows(sha256, cur)
    cur.setflags(write=False)
    layers = [None] * depth + [Layer(cur)]
    for u in range(depth - 1, -1, -1):
        code = layer_code(params, sizes[u])
        rows = encode_rows(code, aggregate(hashes, sizes[u], params))
        if tamper is not None:
            cur = np.frombuffer(bytearray().join(rows), dtype=np.uint8).reshape(len(rows), -1)
            tamper(u, cur, code)
            rows = [row.tobytes() for row in cur]
        hashes = map_rows(sha256, rows)
        layers[u] = Layer(tuple(rows))

    commitment = Commitment(root=tuple(hashes), params=params, block_len=len(block))
    return CodedTree(tuple(layers), commitment, SamplingTables(geo, layers))


class SamplingTables:
    """What every proof sampled from one tree shares (the module's
    Sampling): ``ancestors[r]``, the ancestors of each base index i with
    i mod ``len(ancestors)`` = r, and ``parities[r]``, the parity symbols
    of each i with i mod ``len(parities)`` = r, each entry its own symbol
    followed by the entry one layer up; and ``wide_base``, the base
    codeword as one flat read-only view when its rows are wider than
    ``INT_VALUE_MAX_BYTES``, else None."""

    __slots__ = ("ancestors", "parities", "wide_base")

    def __init__(self, geo: Geometry, layers: list[Layer]):
        # only the digest layers' bytes rows are read; the ancestor at
        # layer u of residue r mod s_u is r mod s_u, and the parity symbol
        # of residue r mod m_u - s_u is s_u + r; s_{u-1} divides s_u, and
        # m_{u-1} - s_{u-1} divides m_u - s_u
        ancestors, parities = [()], [()]
        for u in range(geo.depth):
            s, layer = geo.sys_counts[u], layers[u].symbols
            ancestors = [(layer[r],) + ancestors[r % len(ancestors)] for r in range(s)]
            if u:
                parities = [
                    (layer[s + r],) + parities[r % len(parities)] for r in range(len(layer) - s)
                ]
        self.ancestors, self.parities = ancestors, parities
        base = layers[-1].symbols  # read-only, so each view of it is too
        wide = base.shape[1] > INT_VALUE_MAX_BYTES
        self.wide_base = memoryview(base).cast("B") if wide else None


def sample_pom(tree: CodedTree, base_index: int) -> ProofOfMembership:
    """Membership proof of base symbol ``base_index``, read from the tree's
    sampling tables, so it shares every symbol it has in common with any
    proof sampled from this tree before. Its base symbol is a read-only
    view of the tree's codeword row when rows are wider than
    ``INT_VALUE_MAX_BYTES``, else a ``bytes`` copy of the row (the
    module's Sampling)."""
    base = tree.layers[-1].symbols
    m, width = base.shape
    if not 0 <= base_index < m:
        raise ParameterError(f"base index {base_index} not in [0, {m})")
    tables = tree.sampling
    flat = tables.wide_base
    if flat is None:
        symbol = base[base_index].tobytes()
    else:
        at = base_index * width
        symbol = flat[at : at + width]
    return ProofOfMembership(
        base_index,
        symbol,
        tree.commitment.block_len,
        tables.ancestors[base_index % len(tables.ancestors)],
        tables.parities[base_index % len(tables.parities)],
    )


def echoes_params(commitment: Commitment, params: TreeParams) -> bool:
    """True iff ``params`` are the tree params ``commitment`` carries, the
    check every entry point that takes both makes once; identity first, as
    callers pass ``commitment.params`` itself."""
    return params is commitment.params or params == commitment.params


class Frontier:
    """What the passing claims of one batch authenticated against one
    commitment, by position, never by content: ``held[u][x]`` is symbol x
    of layer u followed by the symbols of its kind that its claim
    authenticated above it, ancestors up to the root layer or parity
    symbols up to layer 1, or None while no claim delivered it; a base
    symbol is held alone. ``held`` has one list per layer of the
    commitment's geometry, sized by it.

    Only a claim that passed whole adds positions, so the ancestors held are
    upward-closed: with ancestor a of layer w the frontier holds every
    ancestor position above. Each symbol it holds was certified by its
    claim, against the committed digest at its slot of its parent. A
    frontier is made from a commitment alone, whose params it reads, is
    bound to it, and lives for one batch (one node's units, one audit, one
    reconstruction, one fraud proof), and its ``geo`` is the geometry of the
    tree the commitment names."""

    __slots__ = ("commitment", "geo", "width", "held", "_steps", "_checks")

    def __init__(self, commitment: Commitment):
        self.commitment = commitment
        self.width = commitment.params.batch * HASH_BYTES
        geo = geometry(commitment.params, commitment.block_len)
        self.geo: Geometry = geo
        held = self.held = tuple([None] * m for m in geo.sizes)
        sys_counts, depth = geo.sys_counts, geo.depth
        # a climb's step into layer w, from the base layer up: the running
        # index's systematic count there, and w's list
        self._steps = tuple((sys_counts[w], held[w]) for w in range(depth - 1, -1, -1))
        # a walk's parity check at layer u, from the base layer up: the
        # sampled index is s_u + i mod (m_u - s_u), under its parent of
        # systematic count s_{u-1}
        self._checks = tuple(
            (sys_counts[u], geo.sizes[u] - sys_counts[u], sys_counts[u - 1], held[u])
            for u in range(depth - 1, 0, -1)
        )

    def _climb(self, steps, x, h, ancestors) -> Optional[list]:
        """The indices, one per step, of the leading ``ancestors`` below the
        first position the frontier holds, when digest ``h`` of symbol
        ``x`` climbs through them by ``steps`` (a tail of ``_steps``) to
        the commitment, else None: at each layer the running digest sits
        at its slot of the ancestor, whose digest runs on. At a held
        position the ancestors from there up must be the ones
        authenticated there."""
        if len(ancestors) != len(steps):
            return None
        width = self.width
        fresh = []
        for ancestor, (s_par, row) in zip(ancestors, steps):
            at = x // s_par * HASH_BYTES
            x %= s_par
            # h is 32 bytes wide, so this is the slot's comparison
            if len(ancestor) != width or not ancestor.startswith(h, at):
                return None
            above = row[x]
            if above is not None:
                # other ancestors above could only reach the commitment
                # through a sha256 collision
                return fresh if ancestors[len(fresh):] == above else None
            fresh.append(x)
            h = sha256(ancestor)
        return fresh if h == self.commitment.root[x] else None

    def claim(self, u: int, x: int, h: bytes, ancestors) -> bool:
        """True iff the commitment binds a symbol hashing to the 32-byte
        digest ``h`` at (u, x) through ``ancestors``, one per layer from
        u - 1 up to the root layer. A claim that passes holds the ancestors
        it authenticated."""
        geo = self.geo
        if not 0 <= u <= geo.depth or not 0 <= x < geo.sizes[u] or len(h) != HASH_BYTES:
            return False
        steps = self._steps[geo.depth - u :]
        fresh = self._climb(steps, x, h, ancestors)
        if fresh is None:
            return False
        for j, x in enumerate(fresh):
            steps[j][1][x] = ancestors[j:]
        return True

    def walk(self, pom: ProofOfMembership, digest: Optional[bytes] = None) -> bool:
        """True iff ``pom`` is consistent with the commitment. A proof that
        passes adds what it authenticated. ``digest``, when given, is the
        sha256 of the proof's base symbol, which the caller hashed already
        (a reconstruction hashes its delivered symbols in one batch).

        The proof carries the field types ``ProofOfMembership`` declares,
        as ``serialize.decode_pom`` builds them; every value in it is
        checked, either here or by equality with what the frontier holds."""
        # one unpacking: a NamedTuple's attribute loads are not specialised
        i, symbol, block_len, ancestors, parities = pom
        base, checks = self.held[-1], self._checks
        if block_len != self.commitment.block_len or not 0 <= i < len(base):
            return False
        if len(symbol) != self.commitment.params.symbol_size or len(parities) != len(checks):
            return False
        steps = self._steps
        if digest is None:
            digest = sha256(symbol)
        fresh = self._climb(steps, i, digest, ancestors)
        if fresh is None:
            return False

        # the parity symbol sampled at layer u is a child of the proof's
        # ancestor one layer up (admitted params make s_{u-1} divide both s
        # and m - s), and its digest sits at its slot there
        width = self.width
        checked = []
        for j, (s, period, s_up, row) in enumerate(checks):
            x = s + i % period
            above = row[x]
            if above is not None:
                if parities[j:] != above:
                    return False
                break
            parity = parities[j]
            if len(parity) != width or not ancestors[j + 1].startswith(
                sha256(parity), x // s_up * HASH_BYTES
            ):
                return False
            checked.append(x)

        for j, x in enumerate(fresh):
            steps[j][1][x] = ancestors[j:]
        for j, x in enumerate(checked):
            checks[j][3][x] = parities[j:]
        if base[i] is None:
            base[i] = (symbol,)
        return True

    def rows(self, u: int) -> list:
        """Layer u's certified symbols by index, None where no passing
        claim delivered one: a new list, which the caller may fill in."""
        # a held entry is a non-empty tuple, so ``and`` picks its symbol
        return [held and held[0] for held in self.held[u]]


# the per-proof timers and the claim counters wrap these module names
walk_pom = Frontier.walk
verify_membership = Frontier.claim
