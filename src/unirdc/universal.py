"""The parse-length-induced universal distribution over reproduction blocks.

Every block of length n gets weight 2^-L where L is its bit-exact parse code
length (or the capped variant); the Kraft inequality makes the weights sum to
at most one, and normalizing yields an exact rational distribution. Spheres
are weighed exactly, and two samplers are provided: an exact one driven by
integer cumulative inversion, and a faster approximate one that feeds fair
bits straight into the phrase decoder. Each draws arrays, by one method
draw(count); only sample_exact and sample_bitfeed turn draws into Blocks.
"""
from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from statistics import NormalDist

import numpy as np

from .core import Block, block_indices, blocks_at, check_blocks_enumerable, enumerate_blocks
from .distortion import _INT64_MAX, DistortionSpec, sphere_indicator, within
from .errors import CapacityError, PreconditionError
from . import lz78

__all__ = [
    "UniversalTable",
    "SphereMass",
    "SphereMasses",
    "MassEstimate",
    "LENGTH_MODES",
    "build_universal_table",
    "kraft_sum",
    "sphere_mass",
    "row_mass",
    "sample_exact",
    "sample_bitfeed",
    "bitfeed_distribution",
    "estimate_sphere_mass",
    "total_variation",
]


def _scaled_sum(bits: np.ndarray, top: int) -> int:
    """Exact sum of 2^(top - b) over the code lengths b, as a Python int."""
    counts = np.bincount(bits).tolist()
    return sum(c << (top - b) for b, c in enumerate(counts) if c)


@dataclass(frozen=True, eq=False)
class UniversalTable:
    """Exact weight table over all blocks of one length, in lexicographic order.

    Block i is the base-K digits of i, so only the code lengths are kept:
    bits[i] is the length of block i, in a read-only int64 array. Tables
    compare and hash by identity.
    """

    n: int
    alphabet_size: int
    length_mode: str
    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=np.int64)
        if bits.shape != (self.alphabet_size**self.n,):
            raise PreconditionError("a table needs one code length per block")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def size(self) -> int:
        return len(self.bits)

    @cached_property
    def max_bits(self) -> int:
        return int(self.bits.max())

    @cached_property
    def _total(self) -> int:
        # weight of block i is 2^(max_bits - bits[i]) / 2^max_bits, an exact dyadic
        return _scaled_sum(self.bits, self.max_bits)

    @cached_property
    def _weights(self) -> np.ndarray:
        """Read-only (max_bits + 1) x 2 matrix: row b holds 2^(max_bits - b)
        and 1, so counts by code length times it are scaled masses and sizes.
        In int64 while the total fits, clipped at 2^62 (no length 63 below the
        longest occurs, as its weight alone would pass the total), and in
        Python ints beyond."""
        fits = self._total <= _INT64_MAX
        weights = np.array(
            [[1 << (min(s, 62) if fits else s), 1] for s in range(self.max_bits, -1, -1)],
            dtype=np.int64 if fits else object,
        )
        weights.flags.writeable = False
        return weights

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """Running sums of the scaled weights as a read-only int64 array:
        cum[i] is the scaled weight of blocks 0..i, so block i owns the values
        [cum[i-1], cum[i]) below the total. Every exact sampler of the table
        inverts it through _invert; CapacityError beyond int64."""
        if self._total > _INT64_MAX:
            raise CapacityError(
                f"the scaled table total needs {self._total.bit_length()} bits; "
                "the exact sampler works in int64"
            )
        cum = np.cumsum(np.left_shift(1, self.max_bits - self.bits))
        cum.flags.writeable = False
        return cum

    @cached_property
    def _guide(self) -> tuple[int, np.ndarray]:
        """Guide table of the inversion (Chen and Asau's indexed search): a
        shift s and a read-only array G, where G[j] is the first index whose
        cumulative weight exceeds j * 2^s. s is the smallest shift that keeps
        G to at most 4 * size entries, each in the narrowest unsigned type."""
        cum, total = self._cumulative, self._total
        # ceil(total / 2^s) <= 4 size holds exactly when (total - 1) // (4 size) < 2^s
        shift = ((total - 1) // (4 * self.size)).bit_length()
        # block i owns the buckets j with ceil(cum[i-1] / 2^s) <= j < ceil(cum[i] / 2^s):
        # its count is one difference of the ceilings, freed before the repeat
        counts = np.diff(-(-cum >> shift), prepend=0)
        index = np.arange(self.size, dtype=np.min_scalar_type(self.size - 1))
        guide = np.repeat(index, counts)
        guide.flags.writeable = False
        return shift, guide

    def _invert(self, r: np.ndarray) -> np.ndarray:
        """Table index of each scaled value in r (integers in [0, total)): the
        first index whose cumulative weight exceeds it, as
        searchsorted(cum, r, side="right") gives it, in an int64 array.

        The guide entry of r's bucket is a lower bound that is already the
        answer unless the bucket holds the end of a block's interval below r;
        only those values are searched. At shift 0 a bucket is one value, so
        the guide entry is the answer.
        """
        shift, guide = self._guide
        at = guide[r >> shift].astype(np.int64)
        if not shift:
            return at
        cum = self._cumulative
        low = cum[at] <= r
        at[low] = np.searchsorted(cum, r[low], side="right")
        return at

    @cached_property
    def normalizer(self) -> Fraction:
        """Exact total weight; at most 1 by the Kraft inequality."""
        return Fraction(self._total, 1 << self.max_bits)

    def require_fit(self, n: int, alphabet_size: int) -> None:
        """Refuse blocks of another length or alphabet than the table's."""
        if n != self.n:
            raise PreconditionError("block length does not match the table")
        if alphabet_size != self.alphabet_size:
            raise PreconditionError("reproduction alphabet does not match the table")

    def bit_length_of(self, block: Block) -> int:
        self.require_fit(block.n, self.alphabet_size)
        return int(self.bits[block_indices([block.symbols], self.alphabet_size)[0]])

    def prob(self, block: Block) -> Fraction:
        """Exact normalized probability of one block."""
        return Fraction(1 << (self.max_bits - self.bit_length_of(block)), self._total)

    def probs(self) -> dict[Block, Fraction]:
        top, total = self.max_bits, self._total
        return {
            b: Fraction(1 << (top - bits), total)
            for b, bits in zip(enumerate_blocks(self.n, self.alphabet_size), self.bits.tolist())
        }

    @property
    def length_excess(self) -> float:
        """Measured (max bits) / (n * log2 K) - 1, the worst-case length overhead."""
        return self.max_bits / (self.n * math.log2(self.alphabet_size)) - 1.0

    def to_csv(self, f, alphabet=None) -> None:
        """Rows of block, bit length, and the dyadic weight 1 * 2^-bits."""
        f.write("block,bits,weight_numerator,weight_exponent\n")
        for b, bits in zip(enumerate_blocks(self.n, self.alphabet_size), self.bits.tolist()):
            text = alphabet.to_text(b) if alphabet else "".join(str(s) for s in b)
            f.write(f"{text},{bits},1,{bits}\n")


def _parse_lengths(n: int, alphabet_size: int) -> np.ndarray:
    """Plain parse code length of every block of length n, in lexicographic order.

    Blocks with a common prefix share the incremental parse of that prefix,
    so the prefix tree is walked one depth at a time in arrays instead of
    parsing K^n blocks. At depth d the K^d prefixes stand in lexicographic
    order, each with its own parse trie (a rows x K table of child phrase
    numbers, 0 for no edge), the node it stands at, its next phrase number
    and the bits of the phrases it has completed. A step repeats every prefix
    K times and pushes one symbol: it follows the trie edge where there is
    one, and otherwise writes the edge, adds the new phrase's pointer and
    symbol bits and goes back to the root. The last two symbols are read off
    the depth n-2 tries, so no depth n-1 trie is built. Phrase numbers and
    bits are kept in the narrowest unsigned types that hold them.
    """
    k = alphabet_size
    sym_w = lz78.symbol_width(k)
    if n == 1:
        return np.full(k, sym_w)  # one new phrase: symbol only
    phrase_t = np.min_scalar_type(n + 1)
    bits_t = np.min_scalar_type(n * (lz78.pointer_width(n + 1) + sym_w))
    pointer_bits = np.array([lz78.pointer_width(i) for i in range(n + 1)], dtype=bits_t)
    trie = np.zeros((1, 1, k), dtype=phrase_t)
    node = np.zeros(1, dtype=phrase_t)
    next_id = np.ones(1, dtype=phrase_t)
    done = np.zeros(1, dtype=bits_t)

    def widen(trie: np.ndarray, next_id: np.ndarray) -> np.ndarray:
        # every node a prefix can reach is below its next phrase number
        rows = int(next_id.max())
        if trie.shape[1] >= rows:
            return trie
        grown = np.zeros((len(trie), rows, k), dtype=phrase_t)
        grown[:, : trie.shape[1]] = trie
        return grown

    for _ in range(n - 2):
        trie = np.repeat(widen(trie, next_id), k, axis=0)
        node, next_id, done = (np.repeat(a, k) for a in (node, next_id, done))
        at = np.arange(len(node))
        sym = at % k
        child = trie[at, node, sym]
        new = child == 0
        trie[at[new], node[new], sym[new]] = next_id[new]
        done += new * (pointer_bits[next_id] + sym_w)
        next_id += new
        node = child  # a new phrase sends the walk back to the root, node 0

    # Symbol n-1 moves each prefix to the row of its child, or to the root
    # row, which gains the edge just written when the phrase began there.
    trie = widen(trie, next_id)
    at = np.arange(len(node))
    child = trie[at, node]
    new = child == 0
    edge = trie[at[:, None], child] != 0
    symbols = np.arange(k)
    edge[:, symbols, symbols] |= new & (node == 0)[:, None]
    done = done[:, None] + new * (pointer_bits[next_id] + sym_w)[:, None]
    next_id = next_id[:, None] + new
    del trie, child
    # The last symbol either completes a new phrase (pointer and symbol) or
    # leaves a final duplicate phrase (pointer only).
    last = (done + pointer_bits[next_id])[:, :, None]
    return np.where(edge, last, last + sym_w).reshape(-1)


# Code lengths a table can record: the LZ78 parse code, or lz78.lz_capped_length.
LENGTH_MODES = ("plain", "capped")


def build_universal_table(n: int, alphabet_size: int, length_mode: str = "plain") -> UniversalTable:
    """The code length of every block of length n, in the process's one table
    of the key (n, alphabet_size, length_mode). Each call checks the key and
    the cap as it stands, so a lowered cap refuses a table already built."""
    if n < 1:
        raise PreconditionError("table needs n >= 1")
    if alphabet_size < 2:
        raise PreconditionError("alphabet size must be at least 2")
    if length_mode not in LENGTH_MODES:
        raise PreconditionError(f"unknown length mode {length_mode!r}")
    check_blocks_enumerable(alphabet_size, n, "universal table")
    return _table(n, alphabet_size, length_mode)  # positional: one cache entry per key


@lru_cache(maxsize=1)
def _table(n: int, alphabet_size: int, length_mode: str) -> UniversalTable:
    bits = _parse_lengths(n, alphabet_size)
    if length_mode == "capped":
        bits = lz78.capped_bits(bits, n, alphabet_size)
    return UniversalTable(n=n, alphabet_size=alphabet_size, length_mode=length_mode, bits=bits)


def kraft_sum(n: int, alphabet_size: int, length_mode: str = "plain") -> Fraction:
    """Exact sum of 2^-length over every block of length n."""
    return build_universal_table(n, alphabet_size, length_mode).normalizer


def _neg_log2(numerator: int, denominator: int) -> float:
    """-log2 of the reduced fraction numerator / denominator, inf for 0."""
    if not numerator:
        return math.inf
    return -math.log2(float(numerator)) + math.log2(float(denominator))


@dataclass(frozen=True)
class SphereMass:
    """Exact universal mass of a distortion sphere around one source block."""

    mass: Fraction
    sphere_size: int
    min_bits: int | None

    @property
    def empty(self) -> bool:
        return self.sphere_size == 0

    def neg_log2_mass(self) -> float:
        return _neg_log2(self.mass.numerator, self.mass.denominator)


def _sphere_mass(scaled: int, size: int, min_bits: int, total: int) -> SphereMass:
    """The SphereMass of mass scaled / total, size blocks and minimum code
    length min_bits, which an empty sphere does not have."""
    return SphereMass(
        mass=Fraction(scaled, total), sphere_size=size, min_bits=min_bits if size else None
    )


@dataclass(frozen=True, eq=False)
class SphereMasses(Sequence):
    """The SphereMass of each row of a stack, held as arrays, read-only.

    scaled holds each sphere's mass times total, the table's scaled total,
    in int64, or as Python ints in an object array when the table's
    _weights are; sizes and min_bits are int64 arrays (min_bits is 0 for an
    empty sphere). Indexing or iterating builds each SphereMass, and the
    sequence equals any sequence of the same SphereMass values; floats(),
    neg_log2() and texts() give the columns of float(m.mass),
    m.neg_log2_mass() and str(m.mass) without building one.
    """

    scaled: np.ndarray
    sizes: np.ndarray
    min_bits: np.ndarray
    total: int

    @classmethod
    def of(cls, masses) -> SphereMasses:
        """masses itself when it is a SphereMasses, else the SphereMasses of a
        sequence of SphereMass, over the least common denominator."""
        if isinstance(masses, SphereMasses):
            return masses
        masses = list(masses)
        total = math.lcm(*(m.mass.denominator for m in masses))
        scaled = [m.mass.numerator * (total // m.mass.denominator) for m in masses]
        return cls(
            np.array(scaled, dtype=object),
            np.array([m.sphere_size for m in masses], dtype=np.int64),
            np.array([m.min_bits or 0 for m in masses], dtype=np.int64),
            total,
        )

    @classmethod
    def joined(cls, parts, table: UniversalTable, order) -> SphereMasses:
        """The masses of parts, weighed against table, end to end and then
        taken at the int array order."""
        def column(name):
            joined = np.concatenate([np.empty(0, np.int64), *(getattr(p, name) for p in parts)])
            return joined[order]

        return cls(column("scaled"), column("sizes"), column("min_bits"), table._total)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, p):
        if isinstance(p, slice):  # a list of SphereMass, as a list's slice
            return [self[q] for q in range(len(self))[p]]
        p = range(len(self))[p]  # IndexError past either end, as a list
        return _sphere_mass(
            int(self.scaled[p]), int(self.sizes[p]), int(self.min_bits[p]), self.total
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    @cached_property
    def _reduced(self) -> tuple[list[int], list[int]]:
        """Each mass as its Fraction holds it: numerators and denominators
        divided by their gcd, a mass of 0 as 0/1."""
        common = np.gcd(self.scaled, self.total)
        return (self.scaled // common).tolist(), (self.total // common).tolist()

    def floats(self) -> np.ndarray:
        """float(m.mass) of each mass: the correctly rounded quotient of the
        Python ints scaled / total."""
        total = self.total
        return np.array([s / total for s in self.scaled.tolist()], dtype=float)

    def neg_log2(self) -> np.ndarray:
        """m.neg_log2_mass() of each mass, inf for 0."""
        return np.array(list(map(_neg_log2, *self._reduced)), dtype=float)

    def texts(self) -> list[str]:
        """str(m.mass) of each mass."""
        return [str(a) if b == 1 else f"{a}/{b}" for a, b in zip(*self._reduced)]


def sphere_mass(x, level, spec: DistortionSpec, table: UniversalTable) -> SphereMass:
    """Exact mass, size, and minimum code length of the sphere around x, a
    Block or one row of a symbol array."""
    table.require_fit(len(x), spec.repro_size)
    return row_mass(sphere_indicator(x, level, spec), table)


# Table entries a row_mass slice covers: rows are weighed a slice at a time,
# one row at least, so the keys of a large codec group are never held at once.
_MASS_KEYS = 1 << 18


def row_mass(rows: np.ndarray, table: UniversalTable):
    """Exact mass, size, and minimum code length of the blocks each bool
    sphere row marks, in the table's lexicographic order: a SphereMasses
    for a (rows x K^n) stack, one SphereMass for one row.

    A slice of rows is one gather of the code lengths they mark, offset by
    (max_bits + 1) per row, and one bincount into a (rows x lengths) count
    matrix. Minimum lengths are read off it, and sizes and scaled masses are
    its product with the table's _weights.
    """
    width = table.max_bits + 1
    one = np.ndim(rows) == 1
    if one:
        counts = np.bincount(table.bits[rows], minlength=width)[None]
    else:
        counts = np.empty((len(rows), width), dtype=np.int64)
        step = max(1, _MASS_KEYS // table.size)
        for lo in range(0, len(rows), step):
            part = rows[lo : lo + step]
            keys = np.broadcast_to(table.bits, part.shape)[part]
            keys += np.repeat(np.arange(0, len(part) * width, width), part.sum(axis=1))
            counts[lo : lo + len(part)] = np.bincount(
                keys, minlength=len(part) * width
            ).reshape(-1, width)
    low = (counts != 0).argmax(axis=1)
    weights = table._weights
    if weights.dtype == object:
        counts = counts.astype(object)
    if one:
        scaled, size = (counts @ weights)[0].tolist()
        return _sphere_mass(scaled, size, int(low[0]), table._total)
    scaled, sizes = (counts @ weights).T
    return SphereMasses(scaled.copy(), sizes.astype(np.int64), low, table._total)


def require_seed(seed: int) -> None:
    """Refuse a negative seed: random.Random seeds by the absolute value, so
    -s would replay the stream of s."""
    if seed < 0:
        raise PreconditionError("seed must be non-negative")


# Attempts per bulk call of the exact sampler: a refill holds at most 2^16
# attempts (two MT19937 words each at most), so a large draw never holds much
# more than its output.
_REFILL = 1 << 16


class _ExactSampler:
    """Seeded stream of table indices drawn i.i.d. with their exact probabilities.

    Cumulative inversion runs on scaled integer weights: a uniform integer
    below the scaled total is drawn by rejection from the seeded bit stream,
    and the table's guided inversion (UniversalTable._invert, one guide and
    one int64 cumulative array that all samplers of the table share) maps it
    to its block's index, so every block comes out with exactly its rational
    probability. Totals beyond int64 raise CapacityError rather than round.

    The stream is that of one random.Random(seed).getrandbits(nbits) per
    attempt, nbits the total's bit length, redrawn while it is at least the
    total. The attempts are read in bulk: getrandbits(32 m) holds the next m
    MT19937 words, the first in the lowest 32 bits, and getrandbits(nbits) is
    one word shifted right by 32 - nbits up to 32 bits, and above 32 bits two
    words, low word first: w0 | (w1 >> (64 - nbits)) << 32. Accepted draws not
    yet asked for are kept for the next draw().
    """

    def __init__(self, table: UniversalTable, seed: int):
        require_seed(seed)
        self._table = table
        table._guide  # CapacityError here, before any draw
        self.rng = random.Random(seed)
        self._total = table._total
        self._nbits = self._total.bit_length()
        self._left = np.empty(0, dtype=np.int64)

    def _refill(self, need: int) -> np.ndarray:
        """Table indices of the accepted attempts of one bulk call, sized from
        the acceptance rate total / 2^nbits to give an eighth more than need
        and 16 more on average, so that one call rarely falls short."""
        nbits, total = self._nbits, self._total
        attempts = min(((need + need // 8 + 16) << nbits) // total, _REFILL)
        wide = nbits > 32
        words = 2 * attempts if wide else attempts
        w = np.frombuffer(
            self.rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        )
        if wide:
            w = w.astype(np.int64)
            r = w[0::2] | (w[1::2] >> (64 - nbits)) << 32
        else:
            r = w >> (32 - nbits)  # uint32, as the total is below 2^32
        return self._table._invert(r[r < total])

    def draw(self, count: int) -> np.ndarray:
        """The next count table indices of the stream, as an int64 array."""
        out = np.empty(count, dtype=np.int64)
        have, left = 0, self._left
        while len(left) < count - have:
            out[have : have + len(left)] = left
            have += len(left)
            left = self._refill(count - have)
        out[have:] = left[: count - have]
        self._left = left[count - have :]
        return out


def sample_exact(table: UniversalTable, seed: int, count: int) -> list[Block]:
    """Draw count blocks i.i.d. with their exact table probabilities.

    Repeated draws share one Block object per distinct index.
    """
    if count < 0:
        raise PreconditionError("count must be non-negative")
    drawn = _ExactSampler(table, seed).draw(count)
    distinct, inverse = np.unique(drawn, return_inverse=True)
    blocks = blocks_at(distinct, table.n, table.alphabet_size)
    return [blocks[i] for i in inverse.tolist()]


class _BitfeedSampler:
    """Fair bits from random.Random(seed) fed into the phrase decoder loop."""

    def __init__(self, n: int, alphabet_size: int, seed: int):
        if n < 1:
            raise PreconditionError("sampler needs n >= 1")
        require_seed(seed)
        self.n = n
        self.alphabet_size = alphabet_size
        self.rng = random.Random(seed)

    def draw(self, count: int) -> np.ndarray:
        """The next count blocks of the stream as a (count x n) symbol array,
        one block per row, in the narrowest unsigned type."""
        getrandbits, n, k = self.rng.getrandbits, self.n, self.alphabet_size
        sym_w = lz78.symbol_width(k)
        widths = [lz78.pointer_width(i) for i in range(n + 1)]
        out = np.empty((count, n), dtype=np.min_scalar_type(k - 1))
        for row in out:
            strings: list[tuple[int, ...]] = [()]
            symbols: list[int] = []
            i, left = 1, n  # phrases so far (the empty one too), symbols still to fill
            while left:
                pointer = getrandbits(widths[i])  # 0 bits give 0 and use no state
                while pointer >= i:
                    pointer = getrandbits(widths[i])
                s = strings[pointer]
                if len(s) >= left:
                    symbols += s[:left]
                    break
                symbol = getrandbits(sym_w)
                while symbol >= k:
                    symbol = getrandbits(sym_w)
                s += (symbol,)
                strings.append(s)
                symbols += s
                i, left = i + 1, left - len(s)
            row[:] = symbols
        return out


def sample_bitfeed(n: int, alphabet_size: int, seed: int, count: int) -> list[Block]:
    """Approximate sampler: feed fair bits into the phrase decoder loop.

    Each phrase reads a pointer and, while the budget allows, an innovation
    symbol; bit patterns that name an unseen phrase or an out-of-range symbol
    are redrawn within the phrase, and the final phrase is truncated at n.
    The resulting law is close to, but not exactly, the table distribution;
    see bitfeed_distribution for the exact law at small n.
    """
    sampler = _BitfeedSampler(n, alphabet_size, seed)
    if count < 0:
        raise PreconditionError("count must be non-negative")
    return [Block(tuple(row)) for row in sampler.draw(count).tolist()]


def bitfeed_distribution(n: int, alphabet_size: int) -> dict[Block, Fraction]:
    """Exact law of the bitfeed sampler, by enumerating every phrase path.

    After rejection the pointer of phrase i is uniform over i choices and each
    innovation symbol is uniform over the alphabet, so every generation path
    has an exact rational probability. Path counts grow roughly factorially
    in the phrase count; intended for small n (the enumeration cap applies).
    """
    if n < 1:
        raise PreconditionError("distribution needs n >= 1")
    check_blocks_enumerable(alphabet_size, n, "bitfeed law")
    out: dict[Block, Fraction] = {}

    def visit(strings, emitted, i, prob):
        for pointer in range(i):
            s = strings[pointer]
            p = prob / i
            remaining = n - len(emitted)
            if len(s) >= remaining:
                block = Block(tuple(emitted + list(s[:remaining])))
                out[block] = out.get(block, Fraction(0)) + p
                continue
            for symbol in range(alphabet_size):
                q = p / alphabet_size
                new = s + (symbol,)
                nxt = emitted + list(new)
                if len(nxt) == n:
                    block = Block(tuple(nxt))
                    out[block] = out.get(block, Fraction(0)) + q
                else:
                    visit(strings + [new], nxt, i + 1, q)

    visit([()], [], 1, Fraction(1))
    return out


def total_variation(p: dict, q: dict) -> Fraction:
    """Exact total variation distance between two block distributions."""
    keys = set(p) | set(q)
    diff = sum(abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0))) for k in keys)
    return diff / 2


@dataclass(frozen=True)
class MassEstimate:
    """Monte Carlo sphere-mass estimate from the approximate sampler."""

    estimate: float
    low: float
    high: float
    trials: int
    hits: int
    note: str = "approximate-sampler bias not corrected"


def estimate_sphere_mass(
    x: Block,
    level,
    spec: DistortionSpec,
    seed: int,
    trials: int,
    confidence: float = 0.99,
) -> MassEstimate:
    """Estimate the sphere mass by counting bitfeed draws inside the sphere.

    The draws are tested against x with one within() call. The interval is
    a Wilson score interval for the hit rate; it covers the sampler's own hit
    probability, not the exact table mass, since the bitfeed law is biased.
    """
    if trials <= 0:
        raise PreconditionError("trials must be positive")
    if not 0 < confidence < 1:
        raise PreconditionError("confidence must be in (0, 1)")
    draws = _BitfeedSampler(x.n, spec.repro_size, seed).draw(trials)
    hits = int(within([x.symbols], draws, level, spec).sum())
    p = hits / trials
    # Wilson score interval
    z = NormalDist().inv_cdf(0.5 + confidence / 2)
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return MassEstimate(
        estimate=p,
        low=max(0.0, center - half),
        high=min(1.0, center + half),
        trials=trials,
        hits=hits,
    )
