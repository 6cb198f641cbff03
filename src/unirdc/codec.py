"""Random-codebook codec: encode a block as the index of its first cover.

A seed determines an infinite codeword stream; the encoder scans it for the
first codeword within the distortion budget and transmits that index with a
self-delimiting integer code behind a one-bit escape flag. The decoder
regenerates the same stream from the shared seed and replays it up to the
index, so codewords are never stored. When the draw budget runs out, the
escape path ships an explicit witness block in raw fixed-width symbols.

A batch is a (blocks x n) symbol array, and each block's index is the one a
scan of its own would find. encode_streams codes one batch under many seeds
into a (seeds x blocks) array of first hits, and encode, one block under one
stream, is its one-row case. One scan loop serves both modes: it
draws in doubling chunks, so at most about twice the last first hit, and
tests a chunk against every pending block at once, by a gather from the
blocks' sphere rows (built once for all the seeds) in exact mode and by the
distortion.within() kernel in bitfeed mode. One replay serves every decode:
_replay draws a fresh stream up to the largest of an array of indices, for
decode_messages and for each stream's first hits in BatchCodes.decoded, the
round trip of a coded batch.

On the wire a block is one record: a 32-bit bit count, then the escape flag
and the index code (or the witness), left-aligned in whole bytes. Records is
the one carrier of records: it holds the index of each record and the
payload of each escape as Python ints, so write_container packs them in
closed form, once per distinct index, read_container parses them off the
bytes in closed form, and decode_messages refuses and replays them; none of
the three builds an EncodedMessage or a BitString per record. Indexing a
Records builds a record's EncodedMessage, a read-only view, and decode is
decode_messages on a one-record Records.
"""
from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import BitString, Block, block_symbols, symbol_array
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
    SphereMasses,
    UniversalTable,
    _BitfeedSampler,
    _ExactSampler,
    build_universal_table,
    row_mass,
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


def index_code_encode(i: int) -> tuple[int, int]:
    """Self-delimiting code for a positive integer (zero-count prefix form),
    as (value, bits): the code read as a big-endian integer, and its length.

    The bit count b of i is itself sent with a unary-prefixed binary code,
    then the b - 1 bits of i below its leading one follow. Length is
    floor(log2 i) + 2 * floor(log2(floor(log2 i) + 1)) + 1 bits. In closed
    form the code's value is b << (b - 1) plus the bits of i below its
    leading one, that is i + ((b - 1) << (b - 1)).
    """
    bits = index_code_length(i)
    b = i.bit_length()
    return i + ((b - 1) << (b - 1)), bits


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


def index_code_decode(value: int, bits: int) -> int:
    """The index whose code is the whole payload (value, bits), in closed
    form; CorruptStreamError otherwise. z leading zeros announce a bit count
    b of z + 1 bits, which b - 1 bits of the index follow."""
    zeros = bits - value.bit_length()
    if zeros > 64:
        raise CorruptStreamError("index code prefix too long")
    rest = bits - 2 * zeros - 1
    if not value or rest < 0 or (b := value >> rest) - 1 > rest:
        raise CorruptStreamError("malformed index code")
    if b - 1 < rest:
        raise CorruptStreamError("trailing bits after the index code")
    return value - ((b - 1) << (b - 1))


@dataclass(frozen=True)
class EncodedMessage:
    """One record of a Records, as indexing it builds: escape flag, payload
    bits, and the index it codes.

    An index message carries its positive index and an escape carries none.
    """

    escape: bool
    payload: BitString
    index: int | None

    def __post_init__(self):
        if self.escape != (self.index is None) or (self.index is not None and self.index < 1):
            raise PreconditionError("an index message needs a positive index, an escape none")

    @property
    def total_bits(self) -> int:
        return 1 + self.payload.length


@dataclass(frozen=True, eq=False)
class BatchCodes:
    """One batch coded under several streams, as encode_streams returns it.

    blocks is the batch's (blocks x n) symbol array. first is an int64
    (streams x blocks) array: the first-hit index of each block under each
    stream, 0 for an escape. masses holds the blocks' masses as a
    SphereMasses when encode_streams was asked to weigh the blocks, else
    None. records(row) is one stream's Records, for write_container.
    decoded(streams) is the decoder's side of the batch. The batch searches
    each distinct escaping block's witness at most once, for both.
    """

    blocks: np.ndarray
    first: np.ndarray
    masses: SphereMasses | None
    level: Fraction
    spec: DistortionSpec
    _found: dict = field(default_factory=dict, init=False, repr=False)

    def _witness(self, p: int) -> tuple[int, int]:
        """The witness payload of block p, searched once per distinct block."""
        key = self.blocks[p].tobytes()
        if key not in self._found:
            self._found[key] = _witness_payload(self.blocks[p], self.level, self.spec)
        return self._found[key]

    def records(self, row: int = 0) -> Records:
        """The records of stream row: its first hits, and the witness payload
        of each block that escapes under it."""
        escaping = np.flatnonzero(self.first[row] == 0).tolist()
        return Records(self.first[row].tolist(), {p: self._witness(p) for p in escaping})

    def decoded(self, streams):
        """The blocks a decoder rebuilds from each stream's first hits, with no
        message: each escaping block's witness read back off its payload once,
        then one _replay of a fresh sampler per stream. streams are the
        batch's, in order. Yields (lo, decoded) per group of streams whose
        (streams x blocks x n) array fits _MASK_BYTES, lo the group's first."""
        witness = np.zeros(self.blocks.shape, dtype=np.min_scalar_type(self.spec.repro_size - 1))
        for p in np.flatnonzero((self.first == 0).any(axis=0)).tolist():
            witness[p] = _read_witness(self._witness(p), streams[0])
        group = max(1, _MASK_BYTES // witness.nbytes)
        for lo in range(0, len(self.first), group):
            hits = self.first[lo : lo + group]
            decoded = np.repeat(witness[None], len(hits), axis=0)
            for out, row, stream in zip(decoded, hits, streams[lo : lo + group], strict=True):
                _replay(row, stream, out)
            yield lo, decoded


def encode_streams(xs, level, spec: DistortionSpec, streams, masses: bool = False) -> BatchCodes:
    """Code every block of a batch by its first codeword within the budget,
    under each of several streams, in order.

    xs is anything core.symbol_array reads as (blocks x n) symbols: an
    array, or a list of Blocks or tuples. One scan of each stream serves the
    whole batch, and each distinct block is resolved once. In exact mode a
    draw hits a block when its table index lies in the block's sphere row;
    bitfeed mode tests each chunk of draws against every pending block with
    one distortion.within() call. A block with no hit within max_draws
    escapes to a witness.

    The streams differ at most in seed and max_draws. In exact mode every
    distinct block's sphere row is built once, whatever the measure, and
    every stream is scanned against it, so a seed sweep pays for the rows
    once. With masses set, each block is also weighed against the streams'
    table, off the same row groups, which bitfeed mode builds only for this.
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
        first = _first_hits_in_rows(centers, level, spec, stream.resolved_table, streams, weighed)
    else:
        if masses:  # the rows only weigh the blocks: no stream reads them
            _first_hits_in_rows(centers, level, spec, stream.resolved_table, [], weighed)
        first = np.zeros((len(streams), len(centers)), dtype=np.int64)
        inside = _membership(stream.n, level, spec)  # one verdict per joint type for the batch
        for s, hits in zip(streams, first):
            _scan(s, hits, lambda pending, ys: inside(centers[pending, None], ys[None]))
    if weighed is not None:  # each group's masses, in the order of the blocks
        weighed = SphereMasses.joined(weighed, stream.resolved_table, where)
    return BatchCodes(
        blocks=xs,
        first=first[:, where],
        masses=weighed,
        level=level,
        spec=spec,
    )


def _first_hits_in_rows(centers, level, spec, table, streams, weighed=None) -> np.ndarray:
    """(streams x blocks) first-hit indices, 0 for none, read off the sphere
    rows of the (blocks x n) symbol array centers, over the streams' table.

    The rows are built by one sphere_rows call per group of at most
    _MASK_BYTES, and every stream scans a group before the next one is built.
    encode_streams has refused an empty sphere before this runs. When weighed
    is a list, the SphereMasses of a group's rows is appended to it by one
    row_mass call as the group is built.

    A chunk's membership is one 1-D take from the group's rows: of whole
    columns while every block is pending, else of the flat offsets
    pending * K^n + index, with no 2-D index, row copy or transposed copy.
    """
    group = max(1, _MASK_BYTES // table.size)
    first = np.zeros((len(streams), len(centers)), dtype=np.int64)
    for lo in range(0, len(centers), group):
        rows = sphere_rows(centers[lo : lo + group], level, spec)
        if weighed is not None:
            weighed.append(row_mass(rows, table))
        flat = rows.reshape(-1)

        def inside(pending, idx):
            if len(pending) == len(rows):  # no hit yet: every block is pending
                return rows.take(idx, axis=1)
            return flat.take((pending * table.size)[:, None] + idx)

        for stream, hits in zip(streams, first[:, lo : lo + len(rows)]):
            _scan(stream, hits, inside)
        del rows, flat  # one group's rows live at a time
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


def _witness_payload(x, level, spec: DistortionSpec) -> tuple[int, int]:
    """(value, bits) of the escape payload of block x: its witness in raw
    fixed-width symbols."""
    try:
        witness = find_witness(x, level, spec)
    except EnumerationCapError as e:
        raise CapacityError(f"draw budget exhausted and witness search is infeasible: {e}")
    if witness is None:
        raise UncodableInputError("no reproduction block meets the budget")
    sym_w = symbol_width(spec.repro_size)
    value = 0
    for s in witness.symbols:
        value = (value << sym_w) | s
    return value, sym_w * len(witness.symbols)


def encode(x: Block, level, spec: DistortionSpec, stream: CodebookStream) -> EncodedMessage:
    """Scan the stream for the first codeword within the budget and code it:
    the one-block, one-stream case of encode_streams."""
    return encode_streams([x], level, spec, [stream]).records()[0]


@dataclass(frozen=True, eq=False)
class Records(Sequence):
    """A container's records as the wire holds them, read-only.

    indices holds each record's index as a Python int, 0 for an escape, and
    witnesses maps the position of each escape, in order, to its payload as
    (value, bits). write_container and decode_messages read these fields;
    indexing or iterating builds each record's EncodedMessage, whose payload
    is the index code of an index record.
    """

    indices: list[int]
    witnesses: dict[int, tuple[int, int]]

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, p):
        if isinstance(p, slice):  # a list of messages, as a list's slice
            return [self[q] for q in range(len(self.indices))[p]]
        p = range(len(self.indices))[p]  # IndexError past either end, as a list
        if i := self.indices[p]:
            return EncodedMessage(escape=False, payload=BitString(*index_code_encode(i)), index=i)
        return EncodedMessage(escape=True, payload=BitString(*self.witnesses[p]), index=None)


def _read_witness(payload: tuple[int, int], stream: CodebookStream) -> list[int]:
    value, bits = payload
    sym_w = symbol_width(stream.alphabet_size)
    if bits != stream.n * sym_w:
        raise CorruptStreamError("witness payload has the wrong bit count")
    mask = (1 << sym_w) - 1
    symbols = [(value >> shift) & mask for shift in range(bits - sym_w, -1, -sym_w)]
    for v in symbols:
        if v >= stream.alphabet_size:
            raise CorruptStreamError(f"witness symbol {v} outside alphabet")
    return symbols


def decode_messages(records: Records, stream: CodebookStream) -> np.ndarray:
    """The decoded blocks as a (records x n) symbol array in the narrowest unsigned
    type: the witness of an escape, else the draw at the record's index, from one
    _replay of the stream. In record order, the first witness that does not fit the
    stream and the first index above max_draws are refused as corrupt before any draw."""
    indices = records.indices
    out = np.zeros((len(indices), stream.n), dtype=np.min_scalar_type(stream.alphabet_size - 1))
    over = len(indices)
    if max(indices, default=0) > stream.max_draws:
        over = next(p for p, i in enumerate(indices) if i > stream.max_draws)
    for p, payload in records.witnesses.items():
        if p > over:
            break
        out[p] = _read_witness(payload, stream)
    if over < len(indices):
        raise CorruptStreamError(
            f"index {indices[over]} exceeds the stream's draw budget {stream.max_draws}"
        )
    _replay(np.array(indices, dtype=np.int64), stream, out)
    return out


def _replay(indices: np.ndarray, stream: CodebookStream, out: np.ndarray) -> None:
    """Write into each row of out the draw at its 1-based int64 index, at most max_draws,
    from one fresh sampler drawn up to the largest index, so the work grows with that
    index, never with the rows. A row whose index is 0 keeps its escape witness."""
    hit = indices > 0
    if not hit.any():
        return
    need, where = np.unique(indices[hit], return_inverse=True)
    picked = []
    for drawn, chunk in _chunks(stream, int(need[-1])):
        lo, hi = np.searchsorted(need, [drawn, drawn + len(chunk)], side="right")
        picked.append(chunk[need[lo:hi] - drawn - 1])
    picked = np.concatenate(picked)
    if stream.mode == EXACT:
        picked = block_symbols(picked, stream.n, stream.alphabet_size)
    out[hit] = picked[where]


def decode(msg: EncodedMessage, stream: CodebookStream) -> Block:
    """Replay the stream up to the transmitted index, or read the witness:
    decode_messages on the one-record Records of msg."""
    if msg.escape:
        records = Records([0], {0: (msg.payload.value, msg.payload.length)})
    else:
        records = Records([msg.index], {})
    return Block(tuple(decode_messages(records, stream)[0].tolist()))


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


_U32 = struct.Struct(">I")


def _record(value: int, bits: int) -> bytes:
    """One record: its bit count as a big-endian uint32, then its bits
    left-aligned in whole bytes, the last one padded with zeros."""
    pad = -bits % 8
    return _U32.pack(bits) + (value << pad).to_bytes((bits + pad) >> 3, "big")


def write_container(f, stream: CodebookStream, level, records: Records) -> None:
    """16-byte header (magic, flags, K, n, level as a rational, seed), the
    record count, then one bit-counted record per record of records: escape
    flag 0 and the index code, or flag 1 and the witness. Each distinct
    record is packed once."""
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
    packed: dict = {}
    wire = [_U32.pack(len(records))]
    for p, i in enumerate(records.indices):
        key = i or records.witnesses[p]
        if key not in packed:
            if i:
                code, bits = index_code_encode(i)
                packed[key] = _record(code, bits + 1)
            else:
                packed[key] = _record((1 << key[1]) | key[0], key[1] + 1)
        wire.append(packed[key])
    f.write(b"".join(wire))


def read_container(f) -> tuple[ContainerHeader, Records]:
    """The header and the records of a container. The rest of f is read at
    once and each record parsed off the bytes, in order: a record cut short,
    an empty one or an index code that does not fill its record raises
    before the next record is read. Bytes after the last record are ignored."""
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
    (count,) = _U32.unpack(count_raw)
    data = f.read()
    indices, witnesses = [], {}
    pos, size = 0, len(data)
    for p in range(count):
        if size - pos < 4:
            raise TruncationError("missing bit-count header")
        bits = int.from_bytes(data[pos : pos + 4], "big")
        start, pos = pos + 4, pos + 4 + ((bits + 7) >> 3)
        if pos > size:
            raise TruncationError("byte payload shorter than the declared bit count")
        value = int.from_bytes(data[start:pos], "big") >> (-bits % 8)
        if not bits:
            raise TruncationError("empty message")
        bits -= 1
        if value >> bits:
            witnesses[p] = (value ^ (1 << bits), bits)
            indices.append(0)
        else:
            indices.append(index_code_decode(value, bits))
    info = ContainerHeader(
        n=n,
        alphabet_size=k,
        seed=seed,
        mode=mode,
        length_mode=length_mode,
        level=Fraction(num, den),
    )
    return info, Records(indices, witnesses)
