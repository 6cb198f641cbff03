"""Random-codebook codec: encode a block as the index of its first cover.

A seed determines an infinite codeword stream; the encoder scans it for the
first codeword within the distortion budget and transmits that index with a
self-delimiting integer code behind a one-bit escape flag. The decoder
regenerates the same stream from the shared seed and replays it up to the
index, so codewords are never stored. When the draw budget runs out, the
escape path ships an explicit witness block in raw fixed-width symbols.

One stream serves a whole batch: encode_blocks resolves every block of a
batch against one scan, and decode_messages replays one stream up to the
largest index of a batch, each batch a (blocks x n) symbol array. Each
block's index is the one a scan of its own would find. encode_streams codes
one batch under many seeds: it exposes the first-hit indices as an array and
builds one message per distinct index. One scan loop serves both modes. It
draws in chunks that double its draws, so it draws at most about twice the
batch's last first hit, and it tests a chunk against every pending block at
once: in exact mode by a gather from the blocks' sphere rows, built once for
all the seeds, and in bitfeed mode, which has no table, by the
distortion.within() kernel. The replay yields the decoded blocks as one
symbol array, which the experiments test against the sources with the same
kernel.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import BitReader, BitString, BitWriter, Block, block_symbols, symbol_array
from .distortion import (
    _INT64_MAX,
    DistortionSpec,
    _budget,
    _membership,
    find_witness,
    sphere_rows,
)
from .errors import (
    CapacityError,
    CorruptStreamError,
    EnumerationCapError,
    PreconditionError,
    TruncationError,
    UncodableInputError,
)
from .lz78 import symbol_width
from .universal import (
    LENGTH_MODES,
    SphereMass,
    UniversalTable,
    _BitfeedSampler,
    _ExactSampler,
    build_universal_table,
    row_mass,
    sphere_mass,
)

__all__ = [
    "DEFAULT_MAX_DRAWS",
    "CodebookStream",
    "EncodedMessage",
    "BatchCodes",
    "index_code_encode",
    "index_code_decode",
    "index_code_length",
    "encode",
    "encode_blocks",
    "encode_streams",
    "decode",
    "decode_messages",
    "write_container",
    "read_container",
]

DEFAULT_MAX_DRAWS = 1 << 20

# Table indices drawn per step when a batch scans or replays the exact stream.
# The first step draws _FIRST_CHUNK and each later one as many as were drawn
# before it, up to _CHUNK: a batch whose last first hit is h draws at most
# max(_FIRST_CHUNK, 2h) codewords, and a long scan still amortises the array
# work of a step. Chunking never changes the stream, which is drawn one index
# at a time.
_FIRST_CHUNK = 64
_CHUNK = 1024
# Largest (distinct blocks) x K^n array of sphere rows held at once; a batch
# with more rows scans each stream once per group of rows.
_MASK_BYTES = 1 << 24

EXACT = "exact"
BITFEED = "bitfeed"
MODES = (EXACT, BITFEED)  # the sampler modes


@dataclass(frozen=True)
class CodebookStream:
    """Deterministic codeword stream configuration shared by both ends.

    mode selects the exact table sampler or the approximate bitfeed sampler,
    and max_draws caps the scan before the escape path. The exact sampler
    draws from the universal table of (n, alphabet_size, length_mode), the
    only table a container header can name.
    """

    seed: int
    n: int
    alphabet_size: int
    mode: str = EXACT
    max_draws: int = DEFAULT_MAX_DRAWS
    length_mode: str = "plain"

    def __post_init__(self):
        if self.mode not in MODES:
            raise PreconditionError(f"unknown sampler mode {self.mode!r}")
        if self.length_mode not in LENGTH_MODES:
            raise PreconditionError(f"unknown length mode {self.length_mode!r}")
        if self.n < 1:
            raise PreconditionError("stream needs n >= 1")
        if not 1 <= self.max_draws <= _INT64_MAX:
            # first hits and replayed indices are int64
            raise PreconditionError("max_draws must be in [1, 2^63 - 1]")

    @cached_property
    def resolved_table(self) -> UniversalTable:
        """The universal table of the stream's key, the one the process shares."""
        return build_universal_table(self.n, self.alphabet_size, self.length_mode)

    def sampler(self):
        """Fresh sampler seeded identically every call."""
        if self.mode == EXACT:
            return _ExactSampler(self.resolved_table, self.seed)
        return _BitfeedSampler(self.n, self.alphabet_size, self.seed)


def index_code_encode(i: int) -> BitString:
    """Self-delimiting code for a positive integer (zero-count prefix form).

    The bit count of i is itself sent with a unary-prefixed binary code, then
    the bits of i below its leading one follow. Length is floor(log2 i) +
    2 * floor(log2(floor(log2 i) + 1)) + 1 bits.
    """
    if i < 1:
        raise PreconditionError("index must be positive")
    nbits = i.bit_length()
    prefix = nbits.bit_length() - 1
    w = BitWriter()
    w.write(0, prefix)
    w.write(nbits, prefix + 1)  # leading bit of nbits is the terminator
    w.write(i & ((1 << (nbits - 1)) - 1), nbits - 1)
    return w.getvalue()


def index_code_length(i: int) -> int:
    """Bit count of index_code_encode(i), in closed form."""
    if i < 1:
        raise PreconditionError("index must be positive")
    nbits = i.bit_length()
    return nbits + 2 * (nbits.bit_length() - 1)


_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


def _index_code_lengths(indices: np.ndarray) -> np.ndarray:
    """index_code_length of each positive int64 index. The bit lengths are
    counted against the powers of two, exactly: a float log2 rounds near 2^63."""
    nbits = np.searchsorted(_POWERS_OF_TWO, indices, side="right")
    return nbits + 2 * (np.searchsorted(_POWERS_OF_TWO, nbits, side="right") - 1)


def index_code_decode(reader: BitReader) -> int:
    """Read one self-delimiting integer from the stream."""
    prefix = 0
    while True:
        bit = reader.read(1)
        if bit:
            break
        prefix += 1
        if prefix > 64:
            raise CorruptStreamError("index code prefix too long")
    nbits = (1 << prefix) | reader.read(prefix)
    rest = reader.read(nbits - 1)
    return (1 << (nbits - 1)) | rest


@dataclass(frozen=True)
class EncodedMessage:
    """One encoded block: escape flag, payload bits, and the index it codes.

    An index message carries its positive index and an escape carries none.
    """

    escape: bool
    payload: BitString
    index: int | None

    def __post_init__(self):
        if self.escape != (self.index is None) or (self.index is not None and self.index < 1):
            raise PreconditionError("an index message needs a positive index, an escape none")

    def to_bits(self) -> BitString:
        w = BitWriter()
        w.write(1 if self.escape else 0, 1)
        w.write_bits(self.payload)
        return w.getvalue()

    @property
    def total_bits(self) -> int:
        return 1 + self.payload.length


def encode_blocks(xs, level, spec: DistortionSpec, stream: CodebookStream) -> list[EncodedMessage]:
    """Code every block of a batch by its first codeword within the budget.

    xs is anything core.symbol_array reads as (blocks x n) symbols: an
    array, or a list of Blocks or tuples. One scan of the stream serves the
    whole batch, and each distinct block is resolved once. In exact mode a
    draw hits a block when its table index lies in the block's sphere row;
    bitfeed mode tests each chunk of draws against every pending block with
    one distortion.within() call. A block with no hit within max_draws
    escapes to a witness.
    """
    return next(iter(encode_streams(xs, level, spec, [stream])))


@dataclass(frozen=True, eq=False)
class BatchCodes:
    """One batch coded under several streams, as encode_streams returns it.

    blocks is the batch's (blocks x n) symbol array. first is an int64
    (streams x blocks) array: the first-hit index of each block under each
    stream, 0 for an escape. masses holds each block's SphereMass when
    encode_streams was asked to weigh the blocks, else None. Iterating
    yields each stream's messages in stream order; the messages are built
    only then, one per distinct index and one witness message per escaping
    block, for the whole batch.
    """

    blocks: np.ndarray
    first: np.ndarray
    masses: tuple[SphereMass, ...] | None
    level: Fraction
    spec: DistortionSpec

    def __iter__(self):
        coded: dict[int, EncodedMessage] = {}
        for hits in self.first.tolist():
            yield _messages(self.blocks, hits, self.level, self.spec, coded)


def encode_streams(xs, level, spec: DistortionSpec, streams, masses: bool = False) -> BatchCodes:
    """encode_blocks for one batch under each of several streams, in order.

    The streams differ at most in seed and max_draws. In exact mode every
    distinct block's sphere row is built once, whatever the measure, and
    every stream is scanned against it, so a seed sweep pays for the rows
    once. With masses set, each block is also weighed against the streams'
    table: from the row the scan holds, or by sphere_mass in bitfeed mode.
    Before any stream is opened, _refuse_uncodable checks one block per
    source type (one per distinct block for a callable measure) and raises
    UncodableInputError if its sphere is empty; a block whose sphere is
    beyond the enumeration cap is left to the scan.
    """
    streams = list(streams)
    if len({(s.n, s.alphabet_size, s.mode, s.length_mode) for s in streams}) != 1:
        raise PreconditionError("the streams of one batch must differ only in seed and budget")
    stream = streams[0]
    if spec.repro_size != stream.alphabet_size:
        raise PreconditionError("reproduction alphabet does not match the stream")
    _budget(stream.n, level)  # a negative level is refused before any draw
    xs = xs if len(xs) else np.zeros((0, stream.n), dtype=np.int64)
    xs = np.ascontiguousarray(symbol_array(xs, spec.source_size, stream.n))
    # the distinct blocks by one sort of the rows, each read as one void item
    rows = xs.view(np.dtype((np.void, xs.dtype.itemsize * stream.n)))[:, 0]
    rows, where = np.unique(rows, return_inverse=True)
    centers = rows.view(xs.dtype).reshape(-1, stream.n)
    _refuse_uncodable(centers, level, spec)
    weighed = [] if masses else None
    if stream.mode == EXACT:
        first = _first_hits_in_rows(centers, level, spec, streams, weighed)
    else:
        if masses:
            weighed.extend(sphere_mass(x, level, spec, stream.resolved_table) for x in centers)
        first = np.zeros((len(streams), len(centers)), dtype=np.int64)
        inside = _membership(stream.n, level, spec)  # one verdict per joint type for the batch
        for s, hits in zip(streams, first):
            _scan(s, hits, lambda pending, ys: inside(centers[pending, None], ys[None]))
    return BatchCodes(
        blocks=xs,
        first=first[:, where],
        masses=None if weighed is None else tuple(weighed[j] for j in where.tolist()),
        level=level,
        spec=spec,
    )


def _messages(xs, hits, level, spec, coded) -> list[EncodedMessage]:
    """Each block's message from its first hit under one stream.

    coded maps an index, or the bytes of a distinct block that escapes, to
    its message and is shared by every stream of a batch, so a block that
    escapes under several streams gets its witness message once.
    """
    keys = [i or xs[j].tobytes() for j, i in enumerate(hits)]
    for j, key in enumerate(keys):
        if key not in coded:
            coded[key] = _index_message(key) if hits[j] else _escape_message(xs[j], level, spec)
    return [coded[key] for key in keys]


def _first_hits_in_rows(centers, level, spec, streams, weighed=None) -> np.ndarray:
    """(streams x blocks) first-hit indices, 0 for none, read off the sphere
    rows of the (blocks x n) symbol array centers.

    The rows are built by one sphere_rows call per group of at most
    _MASK_BYTES, and every stream scans a group before the next one is built.
    encode_streams has refused an empty sphere before this runs. When weighed
    is a list, the masses of a group's rows are appended to it by one row_mass
    call as the group is built.
    """
    table = streams[0].resolved_table
    group = max(1, _MASK_BYTES // table.size)
    first = np.zeros((len(streams), len(centers)), dtype=np.int64)
    for lo in range(0, len(centers), group):
        rows = sphere_rows(centers[lo : lo + group], level, spec)
        if weighed is not None:
            weighed.extend(row_mass(rows, table))
        for stream, hits in zip(streams, first[:, lo : lo + len(rows)]):
            _scan(stream, hits, lambda pending, idx: rows[pending[:, None], idx])
        del rows  # one group's rows live at a time
    return first


def _refuse_uncodable(centers, level, spec) -> None:
    """UncodableInputError if some center's sphere is empty; one beyond the cap is skipped.

    A first-order measure's sphere is empty for every member of a source
    type or for none, so one member per type is checked: the distinct rows
    of the row-sorted array."""
    if spec.first_order_only:
        centers = {tuple(row) for row in np.sort(centers, axis=1).tolist()}
    for x in centers:
        try:
            witness = find_witness(x, level, spec)
        except EnumerationCapError:
            continue
        if witness is None:
            raise UncodableInputError("no reproduction block meets the budget")


def _scan(stream: CodebookStream, hits, inside) -> None:
    """Write into hits the 1-based index of each block's first draw inside
    its sphere. inside(pending, chunk) is the (pending blocks x draws) bool
    membership of a chunk of draws: a gather from the sphere rows in exact
    mode, the within() kernel in bitfeed mode."""
    pending = np.arange(len(hits))
    for drawn, chunk in _chunks(stream, stream.max_draws if pending.size else 0):
        member = inside(pending, chunk)
        found = member.any(axis=1)
        hits[pending[found]] = drawn + 1 + member[found].argmax(axis=1)
        pending = pending[~found]
        if not pending.size:
            break


def _chunks(stream: CodebookStream, limit: int):
    """The first limit draws of a fresh sampler, in chunks that double the
    draws up to _CHUNK at a time, each chunk with the number of draws before
    it: an array of table indices in exact mode, and in bitfeed mode a
    (draws x n) symbol array."""
    sampler = stream.sampler()
    drawn = 0
    while drawn < limit:
        take = min(max(drawn, _FIRST_CHUNK), _CHUNK, limit - drawn)
        yield drawn, sampler.draw(take)
        drawn += take


def _index_message(i: int) -> EncodedMessage:
    return EncodedMessage(escape=False, payload=index_code_encode(i), index=i)


def _escape_message(x, level, spec: DistortionSpec) -> EncodedMessage:
    try:
        witness = find_witness(x, level, spec)
    except EnumerationCapError as e:
        raise CapacityError(f"draw budget exhausted and witness search is infeasible: {e}")
    if witness is None:
        raise UncodableInputError("no reproduction block meets the budget")
    sym_w = symbol_width(spec.repro_size)
    w = BitWriter()
    for s in witness.symbols:
        w.write(s, sym_w)
    return EncodedMessage(escape=True, payload=w.getvalue(), index=None)


def encode(x: Block, level, spec: DistortionSpec, stream: CodebookStream) -> EncodedMessage:
    """Scan the stream for the first codeword within the budget and code it."""
    return encode_blocks([x], level, spec, stream)[0]


def _read_index(payload: BitString) -> int:
    """The index coded by the whole payload; CorruptStreamError otherwise."""
    reader = BitReader(payload)
    try:
        index = index_code_decode(reader)
    except TruncationError:
        raise CorruptStreamError("malformed index code")
    if reader.remaining:
        raise CorruptStreamError("trailing bits after the index code")
    return index


def _read_witness(msg: EncodedMessage, stream: CodebookStream) -> list[int]:
    sym_w = symbol_width(stream.alphabet_size)
    if msg.payload.length != stream.n * sym_w:
        raise CorruptStreamError("witness payload has the wrong bit count")
    reader = BitReader(msg.payload)
    symbols = [reader.read(sym_w) for _ in range(stream.n)]
    for v in symbols:
        if v >= stream.alphabet_size:
            raise CorruptStreamError(f"witness symbol {v} outside alphabet")
    return symbols


def decode_messages(msgs, stream: CodebookStream) -> np.ndarray:
    """The decoded blocks as a (messages x n) symbol array in the narrowest unsigned
    type: the witness of an escape, else the draw at the message's index, from one
    replay of the stream up to the largest index. Its work grows with that index, never
    with the number of messages; each index is read as parsed off the wire, and one
    above max_draws is refused as corrupt before any draw."""
    msgs = list(msgs)
    out = np.empty((len(msgs), stream.n), dtype=np.min_scalar_type(stream.alphabet_size - 1))
    at, indices = [], []
    for p, msg in enumerate(msgs):
        if msg.escape:
            out[p] = _read_witness(msg, stream)
            continue
        if msg.index > stream.max_draws:
            raise CorruptStreamError(
                f"index {msg.index} exceeds the stream's draw budget {stream.max_draws}"
            )
        at.append(p)
        indices.append(msg.index)
    if not indices:
        return out
    need, where = np.unique(np.array(indices, dtype=np.int64), return_inverse=True)
    picked = []
    for drawn, chunk in _chunks(stream, int(need[-1])):
        lo, hi = np.searchsorted(need, [drawn, drawn + len(chunk)], side="right")
        picked.append(chunk[need[lo:hi] - drawn - 1])
    picked = np.concatenate(picked)
    if stream.mode == EXACT:
        picked = block_symbols(picked, stream.n, stream.alphabet_size)
    out[at] = picked[where]
    return out


def decode(msg: EncodedMessage, stream: CodebookStream) -> Block:
    """Replay the stream up to the transmitted index, or read the witness."""
    return Block(tuple(decode_messages([msg], stream)[0].tolist()))


def message_from_bits(bits: BitString) -> EncodedMessage:
    """Split a wire bit string into escape flag and payload.

    Index messages carry a self-delimiting integer, so the index is restored
    here. An index code that runs past the message, or leaves bits after it,
    is corrupt.
    """
    if bits.length < 1:
        raise TruncationError("empty message")
    reader = BitReader(bits)
    escape = bool(reader.read(1))
    payload = BitString(bits.value & ((1 << (bits.length - 1)) - 1), bits.length - 1)
    index = None
    if not escape:
        index = _read_index(payload)
    return EncodedMessage(escape=escape, payload=payload, index=index)


MAGIC = b"UR"
_VERSION = 1
_MODE_CODES = {EXACT: 0, BITFEED: 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
_LENGTH_CODES = {"plain": 0, "capped": 1}
_LENGTH_NAMES = {v: k for k, v in _LENGTH_CODES.items()}


@dataclass(frozen=True)
class ContainerHeader:
    n: int
    alphabet_size: int
    seed: int
    mode: str
    length_mode: str
    level: Fraction


def check_container_header(stream: CodebookStream, level) -> Fraction:
    """The level as a Fraction, once the stream and level fit a container
    header; PreconditionError otherwise."""
    level = Fraction(level)
    if not (0 <= level.numerator <= 255 and 1 <= level.denominator <= 255):
        raise PreconditionError("container stores the level as a uint8/uint8 rational")
    if not 0 <= stream.seed < 1 << 64:
        raise PreconditionError("container seeds must fit in 64 bits")
    if not 2 <= stream.alphabet_size <= 255:
        raise PreconditionError("container stores the alphabet size as a uint8 of at least 2")
    if not 1 <= stream.n <= 0xFFFF:
        raise PreconditionError("container stores the block length as a positive uint16")
    return level


def write_container(f, stream: CodebookStream, level, messages) -> None:
    """16-byte header (magic, flags, K, n, level as a rational, seed), then
    one bit-counted record per message."""
    level = check_container_header(stream, level)
    flags = (
        (_VERSION << 4)
        | _MODE_CODES[stream.mode]
        | (_LENGTH_CODES[stream.length_mode] << 1)
    )
    f.write(MAGIC)
    f.write(
        struct.pack(
            ">BBHBBQ",
            flags,
            stream.alphabet_size,
            stream.n,
            level.numerator,
            level.denominator,
            stream.seed,
        )
    )
    msgs = list(messages)
    f.write(struct.pack(">I", len(msgs)))
    for m in msgs:
        m.to_bits().write(f)


def read_container(f) -> tuple[ContainerHeader, list[EncodedMessage]]:
    header = f.read(16)
    if len(header) < 16 or header[:2] != MAGIC:
        raise CorruptStreamError("not a codec container")
    flags, k, n, num, den, seed = struct.unpack(">BBHBBQ", header[2:])
    if flags >> 4 != _VERSION:
        raise CorruptStreamError(f"unsupported container version {flags >> 4}")
    if flags & 0b1100:
        raise CorruptStreamError(f"unknown container flag bits {flags & 0b1100:#04b}")
    if k < 2:
        raise CorruptStreamError(f"alphabet size {k} is below 2")
    if n == 0:
        raise CorruptStreamError("block length is zero")
    mode = _MODE_NAMES[flags & 1]
    length_mode = _LENGTH_NAMES[(flags >> 1) & 1]
    if den == 0:
        raise CorruptStreamError("level denominator is zero")
    count_raw = f.read(4)
    if len(count_raw) < 4:
        raise TruncationError("missing message count")
    (count,) = struct.unpack(">I", count_raw)
    messages = []
    for _ in range(count):
        bits = BitString.read(f)
        messages.append(message_from_bits(bits))
    info = ContainerHeader(
        n=n,
        alphabet_size=k,
        seed=seed,
        mode=mode,
        length_mode=length_mode,
        level=Fraction(num, den),
    )
    return info, messages
