import importlib
import io
import math
import os
import struct
from unittest.mock import patch

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from unirdc import (
    BINARY,
    Alphabet,
    BitString,
    Block,
    CapacityError,
    CodebookStream,
    CorruptStreamError,
    EncodedMessage,
    PreconditionError,
    TruncationError,
    UncodableInputError,
    UnirdcError,
    build_universal_table,
    callable_spec,
    decode,
    decode_messages,
    distortion,
    encode,
    encode_streams,
    enumerate_blocks,
    find_witness,
    hamming,
    index_code_decode,
    index_code_encode,
    index_code_length,
    index_length_terms,
    joint_empirical_distribution,
    per_letter,
    read_container,
    sample_bitfeed,
    sample_exact,
    squared_disagreement,
    write_container,
)
from unirdc import codec
from unirdc.codec import Records
from unirdc.core import blocks_at
from unirdc.universal import _ExactSampler, sphere_mass
from unirdc.lz78 import symbol_width

HAMMING = hamming(BINARY)
# the package exports the function distortion under the module's name
distortion_module = importlib.import_module("unirdc.distortion")


def stream(seed=7, n=6, k=2, **kw):
    return CodebookStream(seed=seed, n=n, alphabet_size=k, mode="exact", **kw)


def text(value, bits):
    """The bits of (value, bits) as '0'/'1' text."""
    return format(value, f"0{bits}b") if bits else ""


def encoded(xs, level, spec, s):
    """The records of a batch coded under one stream."""
    return encode_streams(xs, level, spec, [s]).records()


def test_index_code_base_cases():
    assert text(*index_code_encode(1)) == "1"
    assert index_code_encode(17)[1] == 9
    assert text(*index_code_encode(2)) == "0100"


def test_index_code_round_trip():
    # the code is decoded as a whole payload, so a stray bit would be refused
    for i in range(1, 1 << 20):
        if i < 4096 or i % 997 == 0 or (i & (i - 1)) == 0 or (i + 1) & i == 0:
            assert index_code_decode(*index_code_encode(i)) == i


def test_index_code_dense_range_exact():
    for i in range(1, 5000):
        assert index_code_decode(*index_code_encode(i)) == i


def test_index_code_length_closed_form_dense():
    for i in range(1, (1 << 16) + 1):
        assert index_code_length(i) == index_code_encode(i)[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 80))
def test_index_code_length_closed_form(i):
    assert index_code_length(i) == index_code_encode(i)[1]


def test_index_code_lengths_are_exact_up_to_int64():
    edges = sorted({v for k in range(63) for v in (2**k - 1, 2**k, 2**k + 1)} - {0})
    indices = [*edges, 2**63 - 1]
    got = codec._index_code_lengths(np.array(indices, dtype=np.int64))
    assert got.tolist() == [index_code_length(i) for i in indices]


def test_index_code_rejects_garbage():
    with pytest.raises(CorruptStreamError):
        index_code_decode(0, 70)


def test_theoretical_length_values():
    # the idealized length of index i is log2 i + log2(n ln base + 1); the
    # achievability bound charges log2 i + log2 n + log2(ln base + 1)
    normalizer, log_term = index_length_terms(10, 2.0)
    assert math.log2(1) + normalizer == pytest.approx(math.log2(10 * math.log(2) + 1))
    assert normalizer <= math.log2(10) + log_term
    assert math.log2(4) + normalizer == pytest.approx(2 + math.log2(10 * math.log(2) + 1))
    assert log_term == pytest.approx(math.log2(math.log(2) + 1))
    with pytest.raises(PreconditionError):
        index_length_terms(8, 1.0)


def test_theoretical_length_dominance_sweep():
    for base in (2.0, 4.0):
        c = math.log2(math.log(base) + 1)
        for n in (1, 2, 16, 128, 1024):
            normalizer, log_term = index_length_terms(n, base)
            assert log_term == c
            for i in (1, 2, 3, 255, 4096, 65536):
                bits = math.log2(i) + normalizer
                assert bits <= math.log2(i) + math.log2(n) + c + 1e-12


def test_round_trip_exhaustive_small():
    s = stream(seed=21, n=5)
    level = Fraction(1, 5)
    for x in enumerate_blocks(5, 2):
        msg = encode(x, level, HAMMING, s)
        y = decode(msg, s)
        assert distortion(x, y, HAMMING) <= 5 * level


def test_full_sphere_always_first_codeword():
    s = stream(seed=9)
    for x in list(enumerate_blocks(6, 2))[:16]:
        msg = encode(x, 1, HAMMING, s)
        assert msg.index == 1 and not msg.escape
        assert text(msg.payload.value, msg.payload.length) == "1"  # the 1-bit code for index 1
        assert msg.total_bits == 2  # escape flag 0 in front


# The parse of one wire record, kept as the oracle of the closed-form record
# layer: the escape flag, then a field at a time off '0'/'1' text, the zeros
# of the prefix, the bit count they announce and the bits below its leading one.
def message_from_bits(bits: str) -> EncodedMessage:
    if not bits:
        raise TruncationError("empty message")
    escape, payload, index = bits[0] == "1", bits[1:], None
    if not escape:
        zeros = len(payload) - len(payload.lstrip("0"))
        if zeros > 64:
            raise CorruptStreamError("index code prefix too long")
        count = payload[zeros : 2 * zeros + 1]
        below = payload[2 * zeros + 1 : 2 * zeros + int(count or "0", 2)]
        if zeros == len(payload) or len(count) + len(below) < zeros + int(count, 2):
            raise CorruptStreamError("malformed index code")
        if len(payload) > 2 * zeros + int(count, 2):
            raise CorruptStreamError("trailing bits after the index code")
        index = int("1" + below, 2)
    payload = BitString(int(payload or "0", 2), len(payload))
    return EncodedMessage(escape=escape, payload=payload, index=index)


def test_message_bits_round_trip():
    s = stream(seed=5)
    x = BINARY.to_block("011001")
    msg = encode(x, Fraction(1, 6), HAMMING, s)
    again = message_from_bits(str(int(msg.escape)) + text(msg.payload.value, msg.payload.length))
    assert (again.escape, again.payload, again.index) == (
        msg.escape,
        msg.payload,
        msg.index,
    )
    assert decode(again, s) == decode(msg, s)


def test_escape_round_trip_returns_witness():
    s = stream(seed=3, max_draws=1)
    x = BINARY.to_block("010110")
    msg = encode(x, 0, HAMMING, s)  # zero budget: only x itself fits
    assert msg.escape
    assert decode(msg, s) == x
    assert msg.total_bits == 1 + 6


def test_uncodable_input():
    src = Alphabet("abc")
    spec = per_letter([[1, 2], [2, 1], [1, 1]], src, BINARY)
    s = CodebookStream(seed=1, n=3, alphabet_size=2, mode="exact")
    with pytest.raises(UncodableInputError):
        encode(src.to_block("abc"), Fraction(1, 3), spec, s)


def test_seed_mismatch_detected_by_distortion():
    s1, s2 = stream(seed=7), stream(seed=8)
    x = BINARY.to_block("011010")
    level = Fraction(1, 6)
    msg = encode(x, level, HAMMING, s1)
    if not msg.escape and msg.index > 1:
        y = decode(msg, s2)
        assert distortion(x, y, HAMMING) > 6 * level


def next_codeword(sampler, s):
    """The sampler's next codeword, drawn alone through draw(1), as a Block."""
    drawn = sampler.draw(1)
    if s.mode == "exact":
        return blocks_at(drawn, s.n, s.alphabet_size)[0]
    return Block(tuple(drawn[0].tolist()))


def draws_of(s, count):
    sampler = s.sampler()
    return [next_codeword(sampler, s) for _ in range(count)]


def test_same_seed_reproduces_codewords():
    a = draws_of(stream(seed=13), 40)
    b = draws_of(stream(seed=13), 40)
    assert a == b
    # both modes' streams are the samplers' own draws
    exact = stream(seed=13)
    assert draws_of(exact, 200) == sample_exact(exact.resolved_table, 13, 200)
    bitfeed = CodebookStream(seed=13, n=6, alphabet_size=2, mode="bitfeed")
    assert draws_of(bitfeed, 200) == sample_bitfeed(6, 2, 13, 200)


def test_bitfeed_mode_round_trip():
    s = CodebookStream(seed=4, n=6, alphabet_size=2, mode="bitfeed")
    level = Fraction(1, 3)
    for x in list(enumerate_blocks(6, 2))[::7]:
        y = decode(encode(x, level, HAMMING, s), s)
        assert distortion(x, y, HAMMING) <= 6 * level


def test_decode_rejects_out_of_range_index():
    s_large = stream(seed=7, max_draws=1 << 20)
    x = BINARY.to_block("010101")
    msg = encode(x, 0, HAMMING, s_large)
    if not msg.escape:
        s_small = stream(seed=7, max_draws=1)
        if msg.index > 1:
            with pytest.raises(CorruptStreamError):
                decode(msg, s_small)


def test_container_round_trip():
    s = stream(seed=11)
    level = Fraction(1, 6)
    xs = [BINARY.to_block(t) for t in ("011010", "000000", "111111")]
    records = encoded(xs, level, HAMMING, s)
    msgs = list(records)
    buf = io.BytesIO()
    write_container(buf, s, level, records)
    buf.seek(0)
    header, decoded = read_container(buf)
    assert header.n == 6 and header.alphabet_size == 2 and header.seed == 11
    assert header.mode == "exact" and header.length_mode == "plain"
    assert header.level == level
    assert [(m.escape, m.payload, m.index) for m in decoded] == [
        (m.escape, m.payload, m.index) for m in msgs
    ]
    # the records index and slice as the list of messages they stand for
    assert decoded[-1] == msgs[-1] and decoded[::-2] == msgs[::-2] and decoded[5:] == []
    with pytest.raises(IndexError):
        decoded[3]
    replay = CodebookStream(
        seed=header.seed, n=header.n, alphabet_size=header.alphabet_size,
        mode=header.mode, length_mode=header.length_mode,
    )
    for x, m in zip(xs, decoded):
        assert distortion(x, decode(m, replay), HAMMING) <= 6 * level


def test_container_rejects_bad_magic():
    s = stream(seed=11)
    buf = io.BytesIO()
    write_container(buf, s, Fraction(1, 6), Records([], {}))
    raw = bytearray(buf.getvalue())
    raw[0] ^= 0xFF
    with pytest.raises(CorruptStreamError):
        read_container(io.BytesIO(bytes(raw)))


def test_container_rejects_truncation():
    s = stream(seed=11)
    records = encoded([BINARY.to_block("011010")], Fraction(1, 6), HAMMING, s)
    buf = io.BytesIO()
    write_container(buf, s, Fraction(1, 6), records)
    raw = buf.getvalue()
    with pytest.raises(Exception):
        read_container(io.BytesIO(raw[:-1]))


def _record(bits: str) -> bytes:
    """One wire record of '0'/'1' text: its bit count as a big-endian uint32,
    then its bits left-aligned in whole bytes."""
    padded = bits + "0" * (-len(bits) % 8)
    return struct.pack(">I", len(bits)) + int(padded or "0", 2).to_bytes(len(padded) // 8, "big")


def _one_record_container(record: str, s=None) -> bytes:
    buf = io.BytesIO()
    write_container(buf, s or stream(seed=11), Fraction(1, 6), Records([], {}))
    raw = bytearray(buf.getvalue())
    raw[16:20] = (1).to_bytes(4, "big")  # one record follows
    return bytes(raw) + _record(record)


def test_container_index_code_past_its_record_is_corrupt():
    # escape flag 0, then an index code whose prefix never ends
    with pytest.raises(CorruptStreamError):
        read_container(io.BytesIO(_one_record_container("000")))


def test_container_rejects_trailing_bits_after_index_code():
    # escape flag 0, index code "1" (index 1), then one stray bit
    assert read_container(io.BytesIO(_one_record_container("01")))[1][0].index == 1
    with pytest.raises(CorruptStreamError):
        read_container(io.BytesIO(_one_record_container("010")))


def _field_index_code(i: int) -> str:
    """The index code built a field at a time as '0'/'1' text: a zero per bit
    of the bit count below its leading one, the bit count, then the bits of i
    below its leading one."""
    count = format(i.bit_length(), "b")
    return "0" * (len(count) - 1) + count + format(i, "b")[1:]


def test_closed_form_index_records_equal_the_bit_writer_codes():
    edges = {v for k in range(71) for v in (2**k - 1, 2**k, 2**k + 1)} - {0}
    indices = sorted(edges | set(range(1, (1 << 16) + 1)))
    want = []
    for i in indices:
        code = _field_index_code(i)
        assert text(*index_code_encode(i)) == code
        want.append(_record("0" + code))  # escape flag 0, then the code
    buf = io.BytesIO()
    write_container(buf, stream(), Fraction(1, 6), Records(indices, {}))
    assert buf.getvalue()[20:] == b"".join(want)


def _outcome(read):
    """What read() returns as comparable fields, or its error's class and text."""
    try:
        return [(m.escape, m.payload, m.index) for m in read()]
    except UnirdcError as e:
        return type(e), str(e)


def _oracle_read_records(raw: bytes):
    """The records after a container's header and count, each read as its bit
    count, then its bytes as '0'/'1' text cut to that count, then parsed by
    message_from_bits."""
    msgs, data = [], raw[20:]
    for _ in range(struct.unpack(">I", raw[16:20])[0]):
        if len(data) < 4:
            raise TruncationError("missing bit-count header")
        bits, data = struct.unpack(">I", data[:4])[0], data[4:]
        if len(data) < (bits + 7) // 8:
            raise TruncationError("byte payload shorter than the declared bit count")
        msgs.append(message_from_bits("".join(f"{b:08b}" for b in data[: (bits + 7) // 8])[:bits]))
        data = data[(bits + 7) // 8 :]
    return msgs


_PAYLOADS = st.one_of(
    st.text("01", min_size=1, max_size=140),
    st.integers(1, 140).map(lambda m: "0" * m),  # all zeros, past a 64-bit prefix too
    # index codes, whole, with stray bits after them, or cut short
    st.tuples(st.integers(1, 2**70), st.text("01", max_size=3)).map(
        lambda p: "0" + text(*index_code_encode(p[0])) + p[1]
    ),
    st.tuples(st.integers(1, 2**70), st.integers(1, 8)).map(
        lambda p: "0" + text(*index_code_encode(p[0]))[: -p[1]]
    ),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_PAYLOADS)
def test_record_parse_agrees_with_the_bit_string_oracle(text):
    raw = _one_record_container(text)
    assert _outcome(lambda: read_container(io.BytesIO(raw))[1]) == _outcome(
        lambda: _oracle_read_records(raw)
    )


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.integers(0, 6),
    st.lists(_PAYLOADS | st.just(""), max_size=5),
    st.binary(max_size=12),
    st.integers(0, 20),
)
def test_container_records_agree_with_the_bit_string_oracle(count, texts, tail, cut):
    # record counts above and below the records present, empty records, a
    # tail of stray bytes and a container cut short: the same messages, or
    # the same error for the same record
    raw = _one_record_container("1") + b"".join(_record(t) for t in texts) + tail
    raw = raw[:16] + struct.pack(">I", count) + raw[20 : len(raw) - cut]
    assert _outcome(lambda: read_container(io.BytesIO(raw))[1]) == _outcome(
        lambda: _oracle_read_records(raw)
    )


def test_container_level_must_fit():
    s = stream(seed=11)
    with pytest.raises(PreconditionError):
        write_container(io.BytesIO(), s, Fraction(1, 1000), Records([], {}))


# Containers written before the table became an array, with the decoded blocks
# they gave then: ternary n=6 plain lengths, and binary n=8 capped lengths.
GOLDEN_CONTAINERS = [
    (
        "012",
        "555210030006010300000000000007e8000000030000000b18600000000a15800000000634",
        ["112212", "200001", "220101"],
    ),
    (
        "01",
        "5552120200080103000000000000004d0000000300000005280000000630000000091180",
        ["01100101", "01111011", "00000001"],
    ),
]


@pytest.mark.parametrize("symbols,hexdata,expected", GOLDEN_CONTAINERS)
def test_old_containers_still_decode(symbols, hexdata, expected):
    header, messages = read_container(io.BytesIO(bytes.fromhex(hexdata)))
    replay = CodebookStream(
        seed=header.seed, n=header.n, alphabet_size=header.alphabet_size,
        mode=header.mode, length_mode=header.length_mode,
    )
    alpha = Alphabet(symbols)
    assert [alpha.to_text(decode(m, replay)) for m in messages] == expected


def test_container_rejects_block_length_beyond_uint16():
    s = CodebookStream(seed=1, n=1 << 16, alphabet_size=2)
    with pytest.raises(PreconditionError):
        write_container(io.BytesIO(), s, Fraction(1, 4), Records([], {}))


def test_container_rejects_alphabet_beyond_uint8():
    s = CodebookStream(seed=1, n=4, alphabet_size=256)
    with pytest.raises(PreconditionError):
        write_container(io.BytesIO(), s, Fraction(1, 4), Records([], {}))


def _patched_header(offset, value):
    buf = io.BytesIO()
    write_container(buf, stream(seed=11), Fraction(1, 6), Records([], {}))
    raw = bytearray(buf.getvalue())
    raw[offset] = value
    return io.BytesIO(bytes(raw))


def test_container_rejects_zero_alphabet():
    with pytest.raises(CorruptStreamError):
        read_container(_patched_header(3, 0))


def test_container_rejects_zero_block_length():
    buf = _patched_header(4, 0)
    buf.getbuffer()[5] = 0
    with pytest.raises(CorruptStreamError):
        read_container(buf)


@pytest.mark.parametrize("bit", [2, 3])
def test_container_rejects_unknown_flag_bits(bit):
    with pytest.raises(CorruptStreamError):
        read_container(_patched_header(2, (1 << 4) | (1 << bit)))


@pytest.mark.parametrize(
    "offset, value, message", [(2, 2 << 4, "version 2"), (7, 0, "denominator is zero")]
)
def test_container_rejects_a_bad_version_or_level(offset, value, message):
    with pytest.raises(CorruptStreamError, match=message):
        read_container(_patched_header(offset, value))


def test_container_without_a_message_count_is_truncated():
    buf = io.BytesIO()
    write_container(buf, stream(seed=11), Fraction(1, 6), Records([], {}))
    with pytest.raises(TruncationError, match="message count"):
        read_container(io.BytesIO(buf.getvalue()[:18]))


def test_container_witness_with_the_wrong_bit_count_is_corrupt():
    # escape flag 1, then five 1-bit symbols where n=6 needs six
    _, msgs = read_container(io.BytesIO(_one_record_container("101010")))
    with pytest.raises(CorruptStreamError, match="bit count"):
        decode_messages(msgs, stream(seed=11))


def test_container_witness_symbol_outside_the_alphabet_is_corrupt():
    # ternary n=2: escape flag 1, then the 2-bit symbols 2 and 3
    s = CodebookStream(seed=11, n=2, alphabet_size=3)
    _, msgs = read_container(io.BytesIO(_one_record_container("11011", s)))
    with pytest.raises(CorruptStreamError, match="symbol 3 outside"):
        decode_messages(msgs, s)


@pytest.mark.parametrize("escape, index", [(False, None), (False, 0), (True, 3)])
def test_message_index_is_present_exactly_when_not_an_escape(escape, index):
    with pytest.raises(PreconditionError):
        EncodedMessage(escape=escape, payload=BitString(*index_code_encode(3)), index=index)


def _decode_untrusted(raw: bytes) -> None:
    """Read and decode a container as `unirdc decode` does, with a small budget."""
    header, msgs = read_container(io.BytesIO(raw))
    replay = CodebookStream(
        seed=header.seed, n=header.n, alphabet_size=header.alphabet_size,
        mode=header.mode, length_mode=header.length_mode, max_draws=64,
    )
    assert len(decode_messages(msgs, replay)) == len(msgs)


_HEADERS = st.builds(
    lambda mode, capped, k, n, num, den, seed: b"UR" + struct.pack(
        ">BBHBBQ", (1 << 4) | mode | capped << 1, k, n, num, den, seed
    ),
    st.integers(0, 1), st.integers(0, 1), st.integers(2, 4), st.integers(1, 8),
    st.integers(0, 255), st.integers(1, 255), st.integers(0, 2**64 - 1),
)
_RECORDS = st.lists(st.text("01", min_size=1, max_size=40), max_size=6)


@settings(max_examples=400, deadline=2000, derandomize=True)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.tuples(_HEADERS, st.integers(0, 8), _RECORDS, st.binary(max_size=8)).map(
            lambda p: p[0] + struct.pack(">I", p[1]) + b"".join(map(_record, p[2])) + p[3]
        ),
    )
)
def test_untrusted_containers_decode_or_raise_a_package_error(raw):
    # arbitrary bytes, and valid headers with random records, record counts
    # and tails: each either decodes or raises a UnirdcError
    with patch.dict(os.environ, {"UNIRDC_CAP": str(1 << 12)}):
        try:
            _decode_untrusted(raw)
        except UnirdcError:
            pass


def test_stream_validation():
    with pytest.raises(PreconditionError):
        CodebookStream(seed=1, n=4, alphabet_size=2, mode="nope")
    with pytest.raises(PreconditionError):
        CodebookStream(seed=1, n=0, alphabet_size=2, mode="exact")
    # refused up front in both modes, not left to the table build or the
    # container writer
    for mode in ("exact", "bitfeed"):
        with pytest.raises(PreconditionError, match="unknown length mode 'foo'"):
            CodebookStream(seed=1, n=4, alphabet_size=2, mode=mode, length_mode="foo")


# The per-block scan that batch encoding replaced, kept as its oracle: one
# fresh stream per block, one draw and one distortion() at a time.
def _scan_one(x, level, spec, s):
    budget = x.n * Fraction(level)
    if spec.kind == "per_letter_matrix" and find_witness(x, level, spec) is None:
        raise UncodableInputError("no reproduction block meets the budget")
    sampler = s.sampler()
    for i in range(1, s.max_draws + 1):
        if distortion(x, next_codeword(sampler, s), spec) <= budget:
            return EncodedMessage(escape=False, payload=BitString(*index_code_encode(i)), index=i)
    witness = find_witness(x, level, spec)
    if witness is None:
        raise UncodableInputError("no reproduction block meets the budget")
    width = symbol_width(spec.repro_size)
    bits = "".join(text(sym, width) for sym in witness.symbols)
    return EncodedMessage(escape=True, payload=BitString(int(bits, 2), len(bits)), index=None)


def _replay_one(msg, s, witness):
    if msg.escape:
        return witness
    sampler = s.sampler()
    for _ in range(msg.index):
        xhat = next_codeword(sampler, s)
    return xhat


TERNARY = Alphabet("012")
RATIONAL = per_letter(
    [[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]], TERNARY, TERNARY
)
# near-Hamming costs whose scaled totals overflow int64, so the integer fold
# runs on exact Python ints
OVERFLOWING = per_letter(
    [[0, Fraction(3**40 + 1, 3**40)], [Fraction(2**62 - 1, 2**62), 0]], BINARY, BINARY
)


@st.composite
def batch_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    alpha = BINARY if k == 2 else TERNARY
    specs = [hamming(alpha), squared_disagreement(alpha)]
    specs.append(RATIONAL if k == 3 else OVERFLOWING)
    spec = draw(st.sampled_from(specs))
    block = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(
        lambda syms: Block(tuple(syms))
    )
    pool = draw(st.lists(block, min_size=1, max_size=4))
    xs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    s = CodebookStream(
        seed=draw(st.integers(0, 2**32)),
        n=n,
        alphabet_size=k,
        mode=draw(st.sampled_from(["exact", "bitfeed"])),
        max_draws=draw(st.integers(1, 60)),
    )
    level = Fraction(draw(st.integers(0, n)), 2 * n)
    # small chunks put first hits past chunk boundaries, and small masks
    # make the scan run once per group of rows
    chunk = draw(st.sampled_from([1, 3, 7, codec._CHUNK]))
    mask_bytes = draw(st.sampled_from([k**n, 2 * k**n, codec._MASK_BYTES]))
    return xs, level, spec, s, chunk, mask_bytes


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_batch_equals_per_block_scan(case):
    xs, level, spec, s, chunk, mask_bytes = case
    with patch.object(codec, "_CHUNK", chunk), patch.object(codec, "_MASK_BYTES", mask_bytes):
        msgs = encoded(xs, level, spec, s)
        decoded = decode_messages(msgs, s)
    expected = [_scan_one(x, level, spec, s) for x in xs]
    for got, want in zip(msgs, expected, strict=True):
        assert got.escape == want.escape
        assert got.payload == want.payload
        assert got.index == want.index
    witnesses = [find_witness(x, level, spec) for x in xs]
    want = [_replay_one(m, s, w) for m, w in zip(msgs, witnesses)]
    assert [tuple(row) for row in decoded.tolist()] == [w.symbols for w in want]


def test_exact_encode_folds_an_overflowing_matrix(monkeypatch):
    calls = []
    real = distortion_module.distortion
    monkeypatch.setattr(distortion_module, "distortion", lambda *a: calls.append(a) or real(*a))
    s = CodebookStream(seed=11, n=6, alphabet_size=2, mode="exact", max_draws=10)
    xs = list(enumerate_blocks(6, 2))
    for level in (Fraction(1, 6), Fraction(1, 3)):
        msgs = encoded(xs, level, OVERFLOWING, s)
        assert calls == []
        assert any(m.escape for m in msgs) and not all(m.escape for m in msgs)
        expected = [_scan_one(x, level, OVERFLOWING, s) for x in xs]
        for got, want in zip(msgs, expected, strict=True):
            assert (got.escape, got.payload, got.index) == (want.escape, want.payload, want.index)


@pytest.fixture
def draws(monkeypatch):
    """Count every codeword drawn from any stream's sampler."""
    counted = [0]
    make = CodebookStream.sampler

    class Counting:
        def __init__(self, inner):
            self.inner = inner

        def draw(self, count):
            counted[0] += count
            return self.inner.draw(count)

    monkeypatch.setattr(CodebookStream, "sampler", lambda self: Counting(make(self)))
    return counted


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_batch_with_an_uncodable_block_draws_nothing(mode, draws):
    # every letter costs 1, so a block of n letters can never meet n/2
    spec = per_letter([[1, 1], [1, 1]], BINARY, BINARY)
    s = CodebookStream(seed=2, n=4, alphabet_size=2, mode=mode)
    xs = [BINARY.to_block("0101"), BINARY.to_block("1100")]
    with pytest.raises(UncodableInputError):
        encoded(xs, Fraction(1, 2), spec, s)
    assert draws[0] == 0


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_empty_batch_codes_to_no_messages(mode, draws):
    s = CodebookStream(seed=2, n=6, alphabet_size=2, mode=mode)
    assert list(encoded([], Fraction(1, 6), HAMMING, s)) == []
    assert encode_streams([], Fraction(1, 6), HAMMING, [s, s]).first.shape == (2, 0)
    assert draws[0] == 0


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
@pytest.mark.parametrize("texts", [["000000", "01101"], ["01101", "11100"]])
def test_blocks_of_another_length_are_refused_before_any_draw(mode, texts, draws):
    s = CodebookStream(seed=2, n=6, alphabet_size=2, mode=mode)
    with pytest.raises(PreconditionError, match="equal length"):
        encoded([BINARY.to_block(t) for t in texts], Fraction(1, 6), HAMMING, s)
    assert draws[0] == 0


SWEEP_SEEDS = [0, 1, 7, 2**40 + 3]
# every batch repeats a source
SIX = ["000000", "011010", "111111", "011010", "100001"]
FIVE = ["00000", "01101", "00000", "11100"]
ALL = codec.DEFAULT_MAX_DRAWS


@pytest.mark.parametrize("rows_per_group", [None, 2])
@pytest.mark.parametrize(
    "mode, spec, texts, level, max_draws",
    [
        ("exact", HAMMING, SIX, Fraction(1, 6), ALL),
        ("exact", RATIONAL, ["0120", "2222", "0120", "1021"], Fraction(1, 4), ALL),
        ("exact", squared_disagreement(BINARY), FIVE, Fraction(1, 5), ALL),
        ("bitfeed", HAMMING, FIVE, Fraction(1, 5), ALL),
        ("exact", HAMMING, SIX, Fraction(1, 6), 5),
    ],
)
def test_streams_equal_per_seed_encodes(
    monkeypatch, mode, spec, texts, level, max_draws, rows_per_group
):
    alpha = TERNARY if spec is RATIONAL else BINARY
    xs = [alpha.to_block(t) for t in texts]
    n, k = xs[0].n, spec.repro_size
    if rows_per_group:
        monkeypatch.setattr(codec, "_MASK_BYTES", rows_per_group * k**n)
    streams = [
        CodebookStream(seed=seed, n=n, alphabet_size=k, mode=mode, max_draws=max_draws)
        for seed in SWEEP_SEEDS
    ]
    rows = []
    real = codec.sphere_rows

    def counting(centers, *args):
        rows.extend(centers)
        return real(centers, *args)

    monkeypatch.setattr(codec, "sphere_rows", counting)
    coded = encode_streams(xs, level, spec, streams)
    swept = [coded.records(row) for row in range(len(streams))]
    # each distinct block's sphere row is built once for all the seeds
    by_rows = mode == "exact"
    assert len(rows) == (len(set(xs)) if by_rows else 0)
    per_seed = [encoded(xs, level, spec, s) for s in streams]
    assert len(swept) == len(SWEEP_SEEDS)
    for got_msgs, want_msgs in zip(swept, per_seed, strict=True):
        for got, want in zip(got_msgs, want_msgs, strict=True):
            assert (got.escape, got.payload, got.index) == (want.escape, want.payload, want.index)
    escapes = [m.escape for msgs in swept for m in msgs]
    assert any(escapes) == (max_draws == 5) and not all(escapes)


# letter 1 costs 1 against either reproduction, so 1111 misses 4 * 1/2
PER_LETTER_MISS = (per_letter([[0, 1], [1, 1]], BINARY, BINARY), BINARY, ("0000", "0001", "1111"))
# 2222 disagrees with every binary block by at least 1 in each letter
SQUARED_MISS = (squared_disagreement(TERNARY, BINARY), TERNARY, ("0000", "0120", "2222"))


@pytest.mark.parametrize(
    "run, spec, alpha, texts",
    [
        pytest.param(run, *case, id=run + suffix)
        for suffix, case in (("", PER_LETTER_MISS), ("-squared", SQUARED_MISS))
        for run in ("streams", "blocks")
    ],
)
def test_uncodable_block_in_a_later_row_group_draws_nothing(
    monkeypatch, draws, run, spec, alpha, texts
):
    monkeypatch.setattr(codec, "_MASK_BYTES", 2**4)  # one sphere row per group
    xs = [alpha.to_block(t) for t in texts]
    streams = [CodebookStream(seed=seed, n=4, alphabet_size=2, mode="exact") for seed in (1, 2)]
    with pytest.raises(UncodableInputError):
        if run == "streams":
            encode_streams(xs, Fraction(1, 2), spec, streams)
        else:
            encode_streams(xs, Fraction(1, 2), spec, streams[:1])
    assert draws[0] == 0


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
@pytest.mark.parametrize(
    "spec, alpha, level",
    [
        (RATIONAL, TERNARY, Fraction(1, 4)),
        (squared_disagreement(TERNARY, BINARY), TERNARY, Fraction(1, 2)),
    ],
)
def test_emptiness_is_decided_once_per_source_type(monkeypatch, mode, spec, alpha, level):
    n, k = 5, spec.repro_size
    monkeypatch.setattr(codec, "_MASK_BYTES", 2 * k**n)  # two sphere rows per group
    witnesses = []
    real = codec.find_witness
    monkeypatch.setattr(
        codec, "find_witness", lambda x, *a: witnesses.append(tuple(x)) or real(x, *a)
    )
    # at most two 2s: within 5 * 1/2 of a binary block by squared disagreement
    xs = [x for x in enumerate_blocks(n, alpha.size) if x.symbols.count(2) <= 2]
    s = CodebookStream(seed=3, n=n, alphabet_size=k, mode=mode, max_draws=ALL)
    coded = encode_streams(xs, level, spec, [s])
    assert coded.first.min() >= 1  # no escape, so every witness search is the check
    types = {tuple(sorted(x.symbols)) for x in xs}
    assert len(types) < len(xs) // 4
    assert len(witnesses) == len({tuple(sorted(x)) for x in witnesses}) == len(types)


def test_a_batch_builds_one_witness_message_per_escaping_block(monkeypatch):
    built = []
    real = codec._witness_payload
    monkeypatch.setattr(
        codec, "_witness_payload", lambda x, *a: built.append(tuple(x)) or real(x, *a)
    )
    xs = [BINARY.to_block(t) for t in SIX]
    streams = [CodebookStream(seed=seed, n=6, alphabet_size=2, max_draws=3) for seed in SWEEP_SEEDS]
    coded = encode_streams(xs, Fraction(1, 6), HAMMING, streams)
    swept = [coded.records(row) for row in range(len(streams))]
    escaping = {tuple(x) for msgs in swept for x, m in zip(xs, msgs) if m.escape}
    assert escaping and len(built) == len(set(built)) and set(built) == escaping
    for got_msgs, s in zip(swept, streams, strict=True):
        want_msgs = encoded(xs, Fraction(1, 6), HAMMING, s)
        for got, want in zip(got_msgs, want_msgs, strict=True):
            assert (got.escape, got.payload, got.index) == (want.escape, want.payload, want.index)


@pytest.mark.parametrize("decode_first", [False, True])
def test_a_batch_searches_a_witness_once_and_only_where_the_block_escapes(
    monkeypatch, decode_first
):
    searched = []
    real = codec._witness_payload
    monkeypatch.setattr(
        codec, "_witness_payload", lambda x, *a: searched.append(tuple(x)) or real(x, *a)
    )
    xs = [BINARY.to_block(t) for t in SIX]
    streams = [CodebookStream(seed=seed, n=6, alphabet_size=2, max_draws=3) for seed in SWEEP_SEEDS]
    coded = encode_streams(xs, Fraction(1, 6), HAMMING, streams)
    escaping = [{tuple(xs[p]) for p in np.flatnonzero(row == 0)} for row in coded.first]
    everywhere = set().union(*escaping)
    assert any(escaping[0] != e for e in escaping)  # some block escapes under one stream only
    if decode_first:
        decoded = [d for _, part in coded.decoded(streams) for d in part]
        assert sorted(searched) == sorted(everywhere)
    seen = set(searched)
    for row, escapes in enumerate(escaping):
        records = coded.records(row)  # only this row's escapes are searched, if new
        assert sorted(searched) == sorted(seen | escapes)
        assert {tuple(xs[p]) for p in records.witnesses} == escapes
        seen |= escapes
    if not decode_first:
        decoded = [d for _, part in coded.decoded(streams) for d in part]
    assert sorted(searched) == sorted(everywhere)  # one search per distinct escaping block
    for got, s in zip(decoded, streams, strict=True):
        assert np.array_equal(got, decode_messages(encoded(xs, Fraction(1, 6), HAMMING, s), s))


def test_streams_of_one_batch_differ_only_in_seed_and_budget():
    xs = [BINARY.to_block("0110")]
    exact = CodebookStream(seed=1, n=4, alphabet_size=2, mode="exact")
    for other in (
        CodebookStream(seed=2, n=4, alphabet_size=2, mode="bitfeed"),
        CodebookStream(seed=2, n=4, alphabet_size=2, mode="exact", length_mode="capped"),
    ):
        with pytest.raises(PreconditionError):
            encode_streams(xs, Fraction(1, 4), HAMMING, [exact, other])
    budgets = [exact, CodebookStream(seed=2, n=4, alphabet_size=2, mode="exact", max_draws=1)]
    coded = encode_streams(xs, Fraction(1, 4), HAMMING, budgets)
    assert [coded.records(row)[0] for row in range(len(budgets))] == [
        encode(xs[0], Fraction(1, 4), HAMMING, s) for s in budgets
    ]


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_empty_joint_type_sphere_is_refused_after_k_to_the_n_draws(mode, draws):
    # 2222 disagrees with every binary block in all four letters: 4 > 4 * 1/4
    spec = squared_disagreement(TERNARY, BINARY)
    s = CodebookStream(seed=1, n=4, alphabet_size=2, mode=mode)
    with pytest.raises(UncodableInputError):
        encode(TERNARY.to_block("2222"), Fraction(1, 4), spec, s)
    assert draws[0] <= max(64, 2 * 2**4)


@pytest.mark.parametrize(
    "spec",
    [HAMMING, squared_disagreement(BINARY), callable_spec(lambda x, y: x != y, BINARY, BINARY)],
)
def test_only_bitfeed_streams_test_draws_with_distortion(monkeypatch, draws, spec):
    # Exact streams read sphere rows and bitfeed streams ask within(), so a
    # first-order measure calls distortion() at most once per joint type of a
    # source with some block, whatever the streams draw; only a callable
    # measure pays one call per (block, draw) pair, and only in bitfeed mode.
    xs = [BINARY.to_block(t) for t in FIVE]
    distinct = set(xs)
    keys = {
        joint_empirical_distribution(x, y, 1) for x in distinct for y in enumerate_blocks(5, 2)
    }
    calls = {"scan": 0, "aside": 0}  # aside: inside witness searches and masses
    where = ["scan"]
    real = distortion_module.distortion

    def counted(*a):
        calls[where[-1]] += 1
        return real(*a)

    monkeypatch.setattr(distortion_module, "distortion", counted)

    def aside(inner):
        def wrapped(*a):
            where.append("aside")
            try:
                return inner(*a)
            finally:
                where.pop()

        return wrapped

    monkeypatch.setattr(codec, "find_witness", aside(codec.find_witness))
    for mode in ("exact", "bitfeed"):
        if mode == "bitfeed":  # its sphere rows are built only to weigh the masses
            monkeypatch.setattr(codec, "sphere_rows", aside(codec.sphere_rows))
        for seeds in ((1, 2), range(1, 17)):
            streams = [CodebookStream(seed=s, n=5, alphabet_size=2, mode=mode) for s in seeds]
            for masses in (False, True):
                calls["scan"] = draws[0] = 0
                coded = encode_streams(xs, Fraction(1, 5), spec, streams, masses=masses)
                assert coded.first.min() >= 1
                scanned = calls["scan"]
                if spec.first_order_only:
                    assert scanned <= len(keys)
                elif mode == "exact":
                    assert scanned == len(distinct) * 2**5  # one scalar row per block
                else:
                    assert scanned >= draws[0]  # every draw meets a pending block
                if spec.kind == "per_letter_matrix":
                    assert scanned == 0


def test_empty_sphere_check_beyond_the_cap_scans_the_budget(monkeypatch, draws):
    # the 2^4 table is past a cap of 8, so no witness search runs until the
    # budget is spent, and the escape path then cannot search either
    monkeypatch.setenv("UNIRDC_CAP", "8")
    spec = squared_disagreement(TERNARY, BINARY)
    s = CodebookStream(seed=1, n=4, alphabet_size=2, mode="bitfeed", max_draws=100)
    with pytest.raises(CapacityError):
        encode(TERNARY.to_block("2222"), Fraction(1, 4), spec, s)
    assert draws[0] == 100


def test_negative_level_is_rejected_before_any_draw(draws):
    s = stream(seed=3)  # default max_draws: 2^20
    with pytest.raises(PreconditionError):
        encode(BINARY.to_block("011010"), -1, squared_disagreement(BINARY), s)
    assert draws[0] == 0


def test_decode_work_grows_with_the_largest_index(draws):
    s = CodebookStream(seed=5, n=8, alphabet_size=2, mode="exact")
    buf = io.BytesIO()
    write_container(buf, s, Fraction(1, 4), Records([1 << 16] * 100, {}))
    buf.seek(0)
    _, msgs = read_container(buf)
    blocks = decode_messages(msgs, s)
    assert draws[0] <= 1 << 16  # one replay, not one per record
    target = sample_exact(s.resolved_table, 5, 1 << 16)[-1]
    assert [tuple(row) for row in blocks.tolist()] == [target.symbols] * 100


# five 1-bit symbols where n=6 needs six
_SHORT_WITNESS = (0, 5)


def _records(*items):
    """Records of the given indices and (value, bits) witnesses, in order."""
    indices = [0 if isinstance(item, tuple) else item for item in items]
    return Records(indices, {p: item for p, item in enumerate(items) if isinstance(item, tuple)})


def test_decode_refuses_an_index_beyond_the_budget_before_any_draw(draws):
    s = stream(seed=7, max_draws=10)
    records = _records(encode(BINARY.to_block("000000"), 1, HAMMING, s).index, 11)
    draws[0] = 0
    with pytest.raises(CorruptStreamError, match="index 11 exceeds the stream's draw budget 10$"):
        decode_messages(records, s)
    assert draws[0] == 0


@pytest.mark.parametrize(
    "tail, message",
    [
        ([12, 2**64], "index 12 exceeds"),
        ([2**64, 11], f"index {2**64} exceeds the stream's draw budget 10$"),
        ([11, _SHORT_WITNESS], "index 11 exceeds"),
        ([_SHORT_WITNESS, 11], "bit count"),
    ],
)
def test_decode_names_the_first_bad_message_before_any_draw(draws, tail, message):
    # an index past int64 is refused like any other index over the budget
    s = stream(seed=7, max_draws=10)
    records = _records(encode(BINARY.to_block("000000"), 1, HAMMING, s).index, 3, *tail)
    draws[0] = 0
    with pytest.raises(CorruptStreamError, match=message):
        decode_messages(records, s)
    assert draws[0] == 0


@pytest.mark.parametrize("n, level", [(8, Fraction(1, 4)), (8, Fraction(1, 8)), (10, Fraction(1, 10))])
def test_scan_draws_track_the_last_first_hit(monkeypatch, n, level):
    drawn = []
    real = _ExactSampler.draw
    monkeypatch.setattr(
        _ExactSampler, "draw", lambda self, count: drawn.append(count) or real(self, count)
    )
    xs = list(enumerate_blocks(n, 2))
    s = CodebookStream(seed=3, n=n, alphabet_size=2, mode="exact")
    first = encode_streams(xs, level, HAMMING, [s]).first
    h = int(first.max())
    assert first.min() >= 1
    assert sum(drawn) <= max(64, 2 * h)
    monkeypatch.setattr(codec, "_CHUNK", 3)
    assert (encode_streams(xs, level, HAMMING, [s]).first == first).all()


@pytest.mark.parametrize("mode, spec", [("exact", HAMMING), ("bitfeed", HAMMING),
                                        ("exact", squared_disagreement(BINARY))])
def test_first_hit_array_and_masses_match_the_messages(monkeypatch, mode, spec):
    xs = [BINARY.to_block(t) for t in SIX]
    table = build_universal_table(6, 2, "plain")
    streams = [
        CodebookStream(seed=seed, n=6, alphabet_size=2, mode=mode, max_draws=5)
        for seed in SWEEP_SEEDS
    ]
    weighed = []
    row_mass = codec.row_mass
    monkeypatch.setattr(codec, "row_mass", lambda *a: weighed.append(a) or row_mass(*a))
    coded = encode_streams(xs, Fraction(1, 6), spec, streams, masses=True)
    assert len(weighed) == 1  # both modes weigh the batch's one group of rows at once
    assert coded.first.shape == (len(streams), len(xs))
    assert coded.masses == tuple(sphere_mass(x, Fraction(1, 6), spec, table) for x in xs)
    msgs = [coded.records(row) for row in range(len(streams))]
    assert [[m.index or 0 for m in row] for row in msgs] == coded.first.tolist()
    assert encode_streams(xs, Fraction(1, 6), spec, streams).masses is None


@pytest.mark.parametrize("mode, spec", [("exact", HAMMING), ("bitfeed", HAMMING),
                                        ("exact", squared_disagreement(BINARY))])
def test_replay_of_a_first_hit_row_equals_its_decoded_messages(mode, spec):
    xs = [BINARY.to_block(t) for t in SIX]
    streams = [
        CodebookStream(seed=seed, n=6, alphabet_size=2, mode=mode, max_draws=5)
        for seed in SWEEP_SEEDS
    ]
    coded = encode_streams(xs, Fraction(1, 6), spec, streams)
    assert (coded.first == 0).any() and (coded.first > 0).any()
    for row, (hits, s) in enumerate(zip(coded.first, streams, strict=True)):
        msgs = coded.records(row)
        want = decode_messages(msgs, s)
        for row, m in zip(want.tolist(), msgs):
            if not m.escape:
                assert tuple(row) == _replay_one(m, s, None).symbols
        got = want.copy()
        got[hits > 0] ^= 1  # _replay must overwrite every hit row and keep the witnesses
        codec._replay(hits, s, got)
        assert (got == want).all()


def test_decode_reads_each_index_without_parsing(monkeypatch):
    s = stream(seed=9)
    xs = [BINARY.to_block(t) for t in SIX] * 20
    msgs = encoded(xs, Fraction(1, 6), HAMMING, s)
    parsed = []
    real = codec.index_code_decode
    monkeypatch.setattr(
        codec, "index_code_decode", lambda *payload: parsed.append(payload) or real(*payload)
    )
    blocks = decode_messages(msgs, s)
    assert parsed == []
    assert [tuple(row) for row in blocks.tolist()] == [decode(m, s).symbols for m in msgs]


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_a_batch_codes_alike_from_blocks_tuples_and_arrays(mode):
    blocks = [BINARY.to_block(t) for t in SIX]
    s = CodebookStream(seed=5, n=6, alphabet_size=2, mode=mode, max_draws=3)
    forms = [
        blocks,
        [b.symbols for b in blocks],
        np.array([b.symbols for b in blocks], dtype=np.uint8),
        np.array([b.symbols for b in blocks], dtype=np.int64),
    ]
    coded = [encoded(xs, Fraction(1, 6), HAMMING, s) for xs in forms]
    assert any(m.escape for m in coded[0]) and not all(m.escape for m in coded[0])
    for msgs in coded[1:]:
        assert [(m.escape, m.payload, m.index) for m in msgs] == [
            (m.escape, m.payload, m.index) for m in coded[0]
        ]
    batch = encode_streams(forms[2], Fraction(1, 6), HAMMING, [s])
    assert batch.blocks.dtype == np.uint8 and (batch.blocks == forms[2]).all()


@pytest.mark.parametrize(
    "k, dtype", [(2, np.uint8), (3, np.uint8), (256, np.uint8), (257, np.uint16)]
)
def test_decoded_blocks_are_one_narrow_symbol_array(k, dtype):
    s = CodebookStream(seed=2, n=3, alphabet_size=k, mode="bitfeed", max_draws=4)
    width = symbol_width(k)
    witness = "".join(text(symbol, width) for symbol in (k - 1, 0, k - 1))
    msgs = _records(3, (int(witness, 2), len(witness)))
    decoded = decode_messages(msgs, s)
    assert decoded.dtype == dtype and decoded.shape == (2, 3)
    assert decoded[1].tolist() == [k - 1, 0, k - 1]
    assert decoded[0].tolist() == list(decode(msgs[0], s).symbols)
    assert decode_messages(Records([], {}), s).shape == (0, 3)


@pytest.mark.parametrize(
    "spec", [HAMMING, squared_disagreement(BINARY), per_letter([[0, 2], [1, 0]], BINARY, BINARY)]
)
def test_one_block_helpers_take_a_block_or_its_row(spec):
    table = build_universal_table(6, 2, "plain")
    rows = np.array([b.symbols for b in (BINARY.to_block(t) for t in SIX)], dtype=np.uint8)
    for row in rows:
        block = Block(tuple(row.tolist()))
        for level in (0, Fraction(1, 6), Fraction(1, 2)):
            assert sphere_mass(row, level, spec, table) == sphere_mass(block, level, spec, table)
            assert find_witness(row, level, spec) == find_witness(block, level, spec)
