"""Alphabets, fixed-length symbol blocks, bit strings, and empirical statistics.

Blocks are immutable tuples of symbol indices; text conversion goes through an
Alphabet. Counts in empirical distributions stay integers and probabilities are
exact Fractions, so equality between distributions is exact.
"""
from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .errors import EnumerationCapError, PreconditionError, TruncationError

__all__ = [
    "Alphabet",
    "BINARY",
    "Block",
    "enumerate_blocks",
    "BitString",
    "BitWriter",
    "BitReader",
    "EmpiricalDistribution",
    "empirical_distribution",
    "joint_empirical_distribution",
    "marginalize",
    "enumeration_cap",
]

DEFAULT_ENUMERATION_CAP = 1 << 20


def enumeration_cap() -> int:
    """Current cap on exhaustive enumerations; UNIRDC_CAP overrides the default."""
    raw = os.environ.get("UNIRDC_CAP", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise PreconditionError(f"UNIRDC_CAP must be an integer, got {raw!r}")
        if cap <= 0:
            raise PreconditionError("UNIRDC_CAP must be positive")
        return cap
    return DEFAULT_ENUMERATION_CAP


def check_enumerable(count: int, what: str = "enumeration") -> None:
    cap = enumeration_cap()
    if count > cap:
        raise EnumerationCapError(
            f"{what} needs {_count_text(count)} states but the cap is {_count_text(cap)}"
        )


def check_blocks_enumerable(k: int, n: int, what: str = "enumeration") -> None:
    """check_enumerable(k**n, what) for the k^n blocks of length n, forming k^n
    only when it might fit the cap or print in decimal: a huge n is refused at once."""
    cap = enumeration_cap()
    room = max(cap.bit_length(), 60)  # 2^60 > 10^18 prints by bit length
    if n * k.bit_length() > room and (bits := _power_bit_length(k, n)) > room:
        text = f"{what} needs at least 2^{bits - 1} states but the cap is {_count_text(cap)}"
        raise EnumerationCapError(text)
    check_enumerable(k**n, what)


def _power_bit_length(k: int, n: int, p: int = 64) -> int:
    """The bit length of k**n in exact integers, without forming it: powers by squaring
    cut to p bits, rounded down and up, bracket k^n; p doubles until both agree."""
    def cut(m: int, e: int) -> tuple[int, int]:  # m * 2^e to p bits: m >> d, or -(-m >> d)
        d = max(m.bit_length() - p, 0)
        return s * (s * m >> d), e + d

    ends = set()
    for s in (1, -1):
        (acc, a), (base, b) = (1, 0), (k, 0)  # acc * 2^a and base * 2^b
        for bit in bin(n)[:1:-1]:  # the bits of n, lowest first
            if bit == "1":
                acc, a = cut(acc * base, a + b)
            base, b = cut(base * base, 2 * b)
        ends.add(acc.bit_length() + a)
    return ends.pop() if len(ends) == 1 else _power_bit_length(k, n, 2 * p)


def _count_text(count: int) -> str:
    """A count in decimal, or by its bit length once it has more than 18 digits:
    Python refuses to print an int of more than 4300 digits."""
    if count < 10**18:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


_INT_DIGITS = 4300  # Python's own limit on the digits of an int read from text
_INT_LIMIT = 10**_INT_DIGITS  # worked out once: it takes tens of microseconds
_EXPONENT = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)


def parse_rational(value, error: str) -> Fraction:
    """value (a str, int, float or Fraction) as an exact Fraction, or
    PreconditionError(error). A float is read by its shortest repr, so 0.1 is
    1/10. A numerator, denominator or decimal exponent beyond Python's
    int-string limit is refused too: no report could print it, and the
    exponent is refused before it is expanded."""
    value = repr(value) if isinstance(value, float) else value
    beyond = f"{error}: beyond the {_INT_DIGITS}-digit limit"
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_INT_DIGITS)) or int(digits or 0) > _INT_DIGITS:
            raise PreconditionError(beyond)
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise PreconditionError(error)
    if max(abs(f.numerator), f.denominator) >= _INT_LIMIT:
        raise PreconditionError(beyond)
    return f


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols; index = position."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise PreconditionError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise PreconditionError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, ch: str) -> int:
        pos = self.symbols.find(ch)
        if pos < 0:
            raise PreconditionError(f"symbol {ch!r} is not in alphabet {self.symbols!r}")
        return pos

    def to_symbols(self, text: str) -> np.ndarray:
        """The indices of the characters of text in the narrowest unsigned type, by one
        lookup keyed by code points; the first character outside is refused as by index()."""
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        codes = [ord(ch) for ch in self.symbols]
        lookup = np.full(max(codes) + 2, self.size, dtype=np.min_scalar_type(self.size))
        lookup[codes] = np.arange(self.size)
        symbols = lookup[np.minimum(points, len(lookup) - 1)]
        if (outside := symbols == self.size).any():
            self.index(text[int(outside.argmax())])
        return symbols.astype(np.min_scalar_type(self.size - 1), copy=False)

    def to_block(self, text: str) -> "Block":
        return Block(self.to_symbols(text).tolist())

    def to_text(self, block: "Block") -> str:
        block.validate(self.size)
        return "".join(self.symbols[s] for s in block.symbols)


BINARY = Alphabet("01")


@dataclass(frozen=True)
class Block:
    """Immutable fixed-length block of symbol indices."""

    symbols: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        for s in self.symbols:
            if not isinstance(s, int) or s < 0:
                raise PreconditionError("block symbols must be non-negative integers")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def validate(self, alphabet_size: int) -> None:
        for s in self.symbols:
            if s >= alphabet_size:
                raise PreconditionError(
                    f"symbol index {s} out of range for alphabet of size {alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]


def enumerate_blocks(n: int, alphabet_size: int) -> Iterator[Block]:
    """All blocks of length n in lexicographic order, subject to the cap."""
    if n < 0:
        raise PreconditionError("block length must be non-negative")
    if alphabet_size < 2:
        raise PreconditionError("alphabet size must be at least 2")
    check_blocks_enumerable(alphabet_size, n, f"enumerating {alphabet_size}^{n} blocks")
    for tup in product(range(alphabet_size), repeat=n):
        yield Block(tup)


def symbol_array(symbols, alphabet_size: int, n: int | None = None) -> np.ndarray:
    """symbols as an integer array (..., n) of blocks, one block along the
    last axis, every symbol in [0, alphabet_size); PreconditionError otherwise.

    n, when given, is the length the last axis must have. Python ints past
    int64 are range-checked as objects; integer dtypes come back unchanged.
    """
    try:
        arr = np.asarray(symbols)
    except ValueError:  # a ragged nested list
        raise PreconditionError("blocks must have equal length")
    if arr.dtype.kind == "f" and not isinstance(symbols, np.ndarray):
        arr = np.asarray(symbols, dtype=object)  # NumPy reads ints past int64 as floats
    if n is not None and (not arr.ndim or arr.shape[-1] != n):
        raise PreconditionError("blocks must have equal length")
    if not arr.ndim:
        raise PreconditionError("blocks must be symbol arrays")
    if not arr.shape[-1]:
        raise PreconditionError("blocks must be nonempty")
    objects = arr.dtype == object
    if objects:
        integral = all(isinstance(s, (int, np.integer)) for s in arr.flat)
    else:
        integral = np.issubdtype(arr.dtype, np.integer)
    if not integral:
        raise PreconditionError("block symbols must be integers")
    outside = arr[(arr < 0) | (arr >= alphabet_size)]
    if outside.size:
        raise PreconditionError(
            f"symbol index {outside[0]} out of range for alphabet of size {alphabet_size}"
        )
    return arr.astype(np.int64) if objects else arr


def block_indices(symbols, alphabet_size: int) -> np.ndarray:
    """Positions of the blocks of a symbol array (..., n) in the lexicographic
    order of enumerate_blocks, as an int64 array (inverse of blocks_at).

    A position is the block read as a base-K number, first symbol most
    significant. Callers hold a table or a cover matrix over all K^n blocks,
    so K^n is within the cap and every position fits in int64.
    """
    symbols = symbol_array(symbols, alphabet_size)
    return symbols @ alphabet_size ** np.arange(symbols.shape[-1] - 1, -1, -1, dtype=np.int64)


# Rows per step of block_symbols: its int64 digit intermediates hold at most
# this many rows, so a large call holds little more than its output.
_SYMBOL_ROWS = 1 << 14


def block_symbols(indices, n: int, alphabet_size: int) -> np.ndarray:
    """The (count x n) symbols of the blocks at the given lexicographic
    positions, in the narrowest unsigned type (inverse of block_indices)."""
    idx = np.asarray(indices, dtype=np.int64)
    powers = alphabet_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.empty((len(idx), n), dtype=np.min_scalar_type(alphabet_size - 1))
    for lo in range(0, len(idx), _SYMBOL_ROWS):
        rows = idx[lo : lo + _SYMBOL_ROWS, None]
        out[lo : lo + len(rows)] = (rows // powers) % alphabet_size
    return out


def blocks_at(indices, n: int, alphabet_size: int) -> list[Block]:
    """The blocks at the given lexicographic positions (inverse of block_indices)."""
    return [Block(tuple(row)) for row in block_symbols(indices, n, alphabet_size).tolist()]


@dataclass(frozen=True)
class BitString:
    """Immutable bit sequence, most-significant bit first, with no padding.

    The bits are packed into a single integer; ``value`` holds the bits of the
    string read as a big-endian number and ``length`` is the exact bit count.
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise PreconditionError("bit length must be non-negative")
        if self.value < 0 or self.value >> self.length:
            raise PreconditionError("bit value does not fit in the declared length")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise PreconditionError("bits must be 0 or 1")
            value = (value << 1) | b
            length += 1
        return cls(value, length)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        return cls.from_bits(int(ch) for ch in text)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def __iter__(self):
        for i in range(self.length):
            yield self[i]

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value, self.length + other.length)

    def to_text(self) -> str:
        return "".join(str(b) for b in self)

    def to_bytes(self) -> bytes:
        """Pack MSB-first, padding the final byte with zero bits on the right."""
        nbytes = (self.length + 7) // 8
        padded = self.value << (8 * nbytes - self.length)
        return padded.to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        nbytes = (length + 7) // 8
        if len(data) < nbytes:
            raise TruncationError("byte payload shorter than the declared bit count")
        value = int.from_bytes(data[:nbytes], "big") >> (8 * nbytes - length)
        return cls(value, length)

    def write(self, f) -> None:
        """Serialize with an explicit 32-bit bit-count header."""
        f.write(struct.pack(">I", self.length))
        f.write(self.to_bytes())

    @classmethod
    def read(cls, f) -> "BitString":
        header = f.read(4)
        if len(header) < 4:
            raise TruncationError("missing bit-count header")
        (length,) = struct.unpack(">I", header)
        nbytes = (length + 7) // 8
        data = f.read(nbytes)
        return cls.from_bytes(data, length)


class BitWriter:
    """Mutable accumulator producing a BitString."""

    def __init__(self):
        self._value = 0
        self._length = 0

    def write(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or (width >= 0 and value >> width):
            raise PreconditionError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def write_bits(self, bits: BitString) -> None:
        self._value = (self._value << bits.length) | bits.value
        self._length += bits.length

    def getvalue(self) -> BitString:
        return BitString(self._value, self._length)

    def __len__(self) -> int:
        return self._length


class BitReader:
    """Cursor over a BitString; raises TruncationError past the end."""

    def __init__(self, bits: BitString):
        self._bits = bits
        self.pos = 0

    @property
    def remaining(self) -> int:
        return self._bits.length - self.pos

    def read(self, width: int) -> int:
        if width < 0:
            raise PreconditionError("read width must be non-negative")
        if width > self.remaining:
            raise TruncationError("bit stream exhausted mid-read")
        shift = self._bits.length - self.pos - width
        self.pos += width
        return (self._bits.value >> shift) & ((1 << width) - 1)


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Integer block counts of aligned order-sized chunks of one or two blocks.

    Keys are tuples of symbol indices for a single block, or pairs of such
    tuples for a joint distribution. order * number of chunks == n always.
    """

    order: int
    n: int
    counts: dict

    def __post_init__(self):
        if self.order <= 0:
            raise PreconditionError("order must be positive")
        if self.n % self.order != 0:
            raise PreconditionError(f"order {self.order} does not divide n {self.n}")
        total = sum(self.counts.values())
        if total != self.n // self.order:
            raise PreconditionError("counts must sum to n / order")

    @property
    def is_joint(self) -> bool:
        if not self.counts:
            return False
        key = next(iter(self.counts))
        return bool(key) and isinstance(key[0], tuple)

    def probs(self) -> dict:
        """Exact chunk frequencies as Fractions."""
        chunks = self.n // self.order
        return {k: Fraction(v, chunks) for k, v in self.counts.items()}

    def __eq__(self, other):
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return (
            self.order == other.order and self.n == other.n and self.counts == other.counts
        )

    def __hash__(self):
        return hash((self.order, self.n, frozenset(self.counts.items())))


def _chunks(block: Block, order: int):
    if block.n == 0:
        raise PreconditionError("block must be nonempty")
    if block.n % order != 0:
        raise PreconditionError(f"order {order} does not divide block length {block.n}")
    sym = block.symbols
    return [sym[i : i + order] for i in range(0, len(sym), order)]


def empirical_distribution(block: Block, order: int = 1) -> EmpiricalDistribution:
    """Counts of aligned order-length chunks of the block."""
    counts: dict = {}
    for chunk in _chunks(block, order):
        counts[chunk] = counts.get(chunk, 0) + 1
    return EmpiricalDistribution(order, block.n, counts)


def joint_empirical_distribution(
    first: Block, second: Block, order: int = 1
) -> EmpiricalDistribution:
    """Counts of aligned chunk pairs from two blocks of equal length."""
    if first.n != second.n:
        raise PreconditionError("joint statistics need blocks of equal length")
    counts: dict = {}
    for a, b in zip(_chunks(first, order), _chunks(second, order)):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return EmpiricalDistribution(order, first.n, counts)


def marginalize(joint: EmpiricalDistribution, which: int) -> EmpiricalDistribution:
    """Project a joint distribution onto one side (0 = first, 1 = second)."""
    if which not in (0, 1):
        raise PreconditionError("which must be 0 or 1")
    counts: dict = {}
    for key, v in joint.counts.items():
        part = key[which]
        counts[part] = counts.get(part, 0) + v
    return EmpiricalDistribution(joint.order, joint.n, counts)


def read_symbols(text: str, alphabet: Alphabet) -> np.ndarray:
    """A block file's text as a (count x n) symbol array in the narrowest unsigned type, one
    block per line as str.splitlines() splits them, blank lines skipped. Refused in turn:
    the first character outside the alphabet, no block, unequal lengths."""
    lines = [line for line in text.splitlines() if line]
    symbols = alphabet.to_symbols("".join(lines))
    if not lines:
        raise PreconditionError("no input blocks")
    if len(set(map(len, lines))) > 1:
        raise PreconditionError("all blocks must share one length")
    return symbols.reshape(len(lines), -1)


def write_symbols(symbols, alphabet: Alphabet) -> str:
    """The rows of a (count x n) symbol array as lines of the alphabet's characters."""
    symbols = symbol_array(symbols, alphabet.size)
    points = np.array([ord(ch) for ch in alphabet.symbols], dtype="<u4")
    lines = np.full((len(symbols), symbols.shape[1] + 1), ord("\n"), dtype="<u4")
    lines[:, :-1] = points[symbols]
    return lines.tobytes().decode("utf-32-le")
