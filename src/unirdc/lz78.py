"""Incremental (LZ78) parsing with a bit-exact, decodable length function.

The parse splits a block into phrases, each the shortest prefix not seen as an
earlier phrase; the final phrase may duplicate an earlier one when the block
ends mid-phrase. Phrase i is coded as a pointer to its longest proper prefix
phrase in ceil(log2 i) bits (0 bits for the first phrase) followed, only when
the phrase introduces a new symbol, by that symbol in ceil(log2 K) bits. The
resulting code is prefix free over blocks of a fixed length, so the lengths
satisfy the Kraft inequality exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitString, Block
from .errors import CorruptStreamError, PreconditionError, TruncationError

__all__ = [
    "LzParse",
    "LzLengthBound",
    "lz_parse",
    "lz_encode",
    "lz_decode",
    "lz_bit_length",
    "lz_capped_length",
    "lz_length_bound",
    "parse_overhead",
]


def pointer_width(i: int) -> int:
    """Bits needed for a pointer in phrase i, i.e. ceil(log2 i)."""
    return (i - 1).bit_length()


def symbol_width(alphabet_size: int) -> int:
    """Bits for one innovation symbol, i.e. ceil(log2 K)."""
    return (alphabet_size - 1).bit_length()


def capped_bits(plain_bits, n: int, alphabet_size: int):
    """The flagged variant's length from the parse code's: min(plain, raw) + 1.

    One extra bit selects between the parse-based code and the raw block at
    n * ceil(log2 K) bits, so pathological blocks never cost more than raw
    plus the flag. plain_bits is one length or an array of them.
    """
    return np.minimum(plain_bits, n * symbol_width(alphabet_size)) + 1


@dataclass(frozen=True)
class LzParse:
    """Result of incrementally parsing one block.

    phrases holds (pointer, innovation) pairs in order; pointer 0 is the empty
    phrase and innovation is None only for a final duplicate phrase.
    """

    phrases: tuple[tuple[int, int | None], ...]
    alphabet_size: int
    bit_length: int
    final_is_duplicate: bool

    @property
    def phrase_count(self) -> int:
        return len(self.phrases)

    def phrase_strings(self) -> list[tuple[int, ...]]:
        """Reconstruct each phrase as a symbol tuple."""
        strings: list[tuple[int, ...]] = [()]
        out = []
        for pointer, innovation in self.phrases:
            s = strings[pointer] if innovation is None else strings[pointer] + (innovation,)
            if innovation is not None:
                strings.append(s)
            out.append(s)
        return out

    def block(self) -> Block:
        symbols: list[int] = []
        for s in self.phrase_strings():
            symbols.extend(s)
        return Block(tuple(symbols))


def lz_parse(block: Block, alphabet_size: int) -> LzParse:
    """Incrementally parse a nonempty block over an alphabet of the given size."""
    if block.n == 0:
        raise PreconditionError("cannot parse an empty block")
    block.validate(alphabet_size)
    sym_w = symbol_width(alphabet_size)

    trie: dict[tuple[int, int], int] = {}
    phrases: list[tuple[int, int | None]] = []
    next_id = 1
    node = 0
    pointer_bits = 0
    innovations = 0
    for s in block.symbols:
        child = trie.get((node, s))
        if child is not None:
            node = child
            continue
        trie[(node, s)] = next_id
        phrases.append((node, s))
        pointer_bits += pointer_width(next_id)
        innovations += 1
        next_id += 1
        node = 0
    final_is_duplicate = node != 0
    if final_is_duplicate:
        phrases.append((node, None))
        pointer_bits += pointer_width(next_id)

    return LzParse(
        phrases=tuple(phrases),
        alphabet_size=alphabet_size,
        bit_length=pointer_bits + innovations * sym_w,
        final_is_duplicate=final_is_duplicate,
    )


def lz_bit_length(block: Block, alphabet_size: int) -> int:
    return lz_parse(block, alphabet_size).bit_length


def lz_encode(block: Block, alphabet_size: int) -> BitString:
    """Emit the parse as bits; the total equals the parse's bit_length."""
    parse = lz_parse(block, alphabet_size)
    sym_w = symbol_width(alphabet_size)
    value = 0
    for i, (pointer, innovation) in enumerate(parse.phrases, start=1):
        value = (value << pointer_width(i)) | pointer
        if innovation is not None:
            value = (value << sym_w) | innovation
    return BitString(value, parse.bit_length)


def lz_decode(bits: BitString, n: int, alphabet_size: int) -> Block:
    """Invert lz_encode for a block of known length n.

    The phrase loop reads a pointer, and reads an innovation symbol only when
    the pointed-to string is shorter than the remaining output budget; a
    pointed-to string that exactly fills the budget is the final duplicate
    phrase. All bits must be consumed: each field is read off the top of the
    bits not yet read, the low `left` bits of the code's value.
    """
    if n < 0:
        raise PreconditionError("block length must be non-negative")
    value, left = bits.value, bits.length
    sym_w = symbol_width(alphabet_size)
    strings: list[tuple[int, ...]] = [()]
    out: list[int] = []
    i = 1
    while len(out) < n:
        width = pointer_width(i)
        if width > left:
            raise TruncationError("bit stream exhausted mid-read")
        left -= width
        pointer = (value >> left) & ((1 << width) - 1)
        if pointer >= i:
            raise CorruptStreamError(f"phrase {i} points at unseen phrase {pointer}")
        s = strings[pointer]
        remaining = n - len(out)
        if len(s) == remaining:
            out.extend(s)
            break
        if len(s) > remaining:
            raise CorruptStreamError("phrase overruns the block length")
        if sym_w > left:
            raise TruncationError("bit stream exhausted mid-read")
        left -= sym_w
        symbol = (value >> left) & ((1 << sym_w) - 1)
        if symbol >= alphabet_size:
            raise CorruptStreamError(f"symbol value {symbol} outside alphabet")
        s = s + (symbol,)
        strings.append(s)
        out.extend(s)
        i += 1
    if left:
        raise CorruptStreamError(f"{left} unread bits after final phrase")
    return Block(tuple(out))


def lz_capped_length(block: Block, alphabet_size: int) -> int:
    """Length of the flagged variant (capped_bits) of the block's parse code."""
    return int(capped_bits(lz_bit_length(block, alphabet_size), block.n, alphabet_size))


@dataclass(frozen=True)
class LzLengthBound:
    """Closed-form ceiling on the parse code length and its decomposition.

    bound_bits dominates the realized bit length for every block. epsilon_n
    collects the per-symbol overhead terms, so phrase_count * log2(phrase_count)
    + n * epsilon_n is the standard decomposition; with the default overhead
    convention that decomposition is reported, not guaranteed, at small n.
    """

    bound_bits: float
    epsilon_n: float
    decomposed_bits: float


def parse_overhead(n: int, alphabet_size: int, one_minus_eps: float = 1.0) -> float:
    """Per-symbol overhead epsilon(n) in the phrase-count decomposition.

    one_minus_eps is the discount factor applied to log2 n in the phrase-count
    ceiling; the default 1.0 means no discount. Requires n >= 2 so log2 n > 0.
    """
    if n < 2:
        raise PreconditionError("overhead decomposition needs n >= 2")
    if not 0 < one_minus_eps <= 1:
        raise PreconditionError("one_minus_eps must be in (0, 1]")
    k = alphabet_size
    log2k = math.log2(k)
    return (math.log2(math.e) + math.log2(2 * k * (n + 1))) / n + (
        log2k * math.log2(2 * k)
    ) / (one_minus_eps * math.log2(n))


def lz_length_bound(
    phrase_count: int, n: int, alphabet_size: int, one_minus_eps: float = 1.0
) -> LzLengthBound:
    """Bound the parse code length from the phrase count alone."""
    if phrase_count < 1:
        raise PreconditionError("phrase count must be positive")
    c = phrase_count
    k = alphabet_size
    bound = (c + 1) * math.log2(2 * k * (c + 1))
    eps = parse_overhead(n, k, one_minus_eps)
    clogc = c * math.log2(c) if c > 1 else 0.0
    return LzLengthBound(bound_bits=bound, epsilon_n=eps, decomposed_bits=clogc + n * eps)
