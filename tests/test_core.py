import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from unirdc import (
    BINARY,
    Alphabet,
    BitString,
    Block,
    EnumerationCapError,
    PreconditionError,
    empirical_distribution,
    enumerate_blocks,
    enumeration_cap,
    joint_empirical_distribution,
    marginalize,
)
from unirdc.core import (
    _power_bit_length,
    _SYMBOL_ROWS,
    block_indices,
    block_symbols,
    blocks_at,
    check_blocks_enumerable,
    parse_rational,
    read_symbols,
    write_symbols,
)


def test_alphabet_basics():
    a = Alphabet("ab")
    assert a.size == 2
    assert a.index("a") == 0 and a.index("b") == 1
    assert a.to_text(a.to_block("abba")) == "abba"


def test_alphabet_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        Alphabet("a")  # too small
    with pytest.raises(PreconditionError):
        Alphabet("aa")  # duplicate symbols
    with pytest.raises(PreconditionError):
        Alphabet("ab").index("c")
    with pytest.raises(PreconditionError):
        Alphabet("ab").to_block("abc")


def test_block_validation():
    b = Block((0, 1, 1))
    assert b.n == 3 and len(b) == 3 and list(b) == [0, 1, 1]
    b.validate(2)
    with pytest.raises(PreconditionError):
        b.validate(1)  # entry 1 out of range
    with pytest.raises(PreconditionError):
        Block((0, -1))


def test_enumerate_blocks_lexicographic():
    blocks = list(enumerate_blocks(2, 2))
    assert blocks == [Block((0, 0)), Block((0, 1)), Block((1, 0)), Block((1, 1))]
    assert len(list(enumerate_blocks(3, 3))) == 27
    assert list(enumerate_blocks(0, 2)) == [Block(())]


@pytest.mark.parametrize("n, k", [(8, 2), (5, 3)])
def test_block_indices_invert_blocks_at(n, k):
    everything = np.arange(k**n)
    got = block_indices(np.array([b.symbols for b in blocks_at(everything, n, k)]), k)
    assert got.dtype == np.int64
    assert got.tolist() == everything.tolist()
    assert block_indices(np.zeros((0, n), dtype=np.uint8), k).tolist() == []


@pytest.mark.parametrize("n, k", [(12, 2), (10, 3), (5, 7), (1, 2)])
def test_block_symbols_are_the_digits_of_each_index_across_row_blocks(n, k):
    idx = np.random.default_rng(n).integers(0, k**n, 2 * _SYMBOL_ROWS + 5)
    powers = k ** np.arange(n - 1, -1, -1)
    got = block_symbols(idx, n, k)
    assert got.dtype == np.min_scalar_type(k - 1) and got.shape == (len(idx), n)
    assert np.array_equal(got, idx[:, None] // powers % k)
    assert block_symbols([], n, k).shape == (0, n)


def test_block_symbols_hold_little_more_than_their_output():
    idx = np.random.default_rng(0).integers(0, 2**12, 10**6)
    tracemalloc.start()
    try:
        out = block_symbols(idx, 12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


def test_block_indices_refuse_a_symbol_outside_the_alphabet():
    for bad, shown in (([[0, 1], [2, 0]], 2), ([[0, -1]], -1)):
        with pytest.raises(PreconditionError, match=f"index {shown} out of range"):
            block_indices(np.array(bad), 2)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("UNIRDC_CAP", "8")
    assert enumeration_cap() == 8
    with pytest.raises(EnumerationCapError):
        list(enumerate_blocks(4, 2))  # 16 > 8
    monkeypatch.setenv("UNIRDC_CAP", "not a number")
    with pytest.raises(PreconditionError):
        enumeration_cap()


@pytest.mark.parametrize(
    "n, count",
    [(30, "205891132094649"), (40, "at least 2^63"), (1000, "at least 2^1584")],
)
def test_block_count_refusal_keeps_its_text(n, count):
    # a K^n past 2^60 is refused by its bit length, without forming K^n
    with pytest.raises(EnumerationCapError) as e:
        check_blocks_enumerable(3, n, "universal table")
    assert str(e.value) == f"universal table needs {count} states but the cap is 1048576"


def test_block_count_bit_length_is_exact():
    # 3^665 is within 0.005% of 2^1054; a start at 2 bits makes the bracket
    # double its precision several times before both ends agree
    for p in (2, 64):
        for k in (2, 3, 5, 7, 10, 255):
            for n in [*range(0, 70), 127, 128, 665, 1000, 4096, 10**4 + 7]:
                assert _power_bit_length(k, n, p) == (k**n).bit_length(), (k, n, p)


def test_bitstring_holds_a_value_that_fits_its_length():
    assert (BitString(0, 0), BitString(5, 3)) == (BitString(0, 0), BitString(0b101, 3))
    for value, length in [(8, 3), (1, 0), (-1, 4), (0, -1)]:
        with pytest.raises(PreconditionError):
            BitString(value, length)


def test_block_indexing_reads_its_symbols():
    block = Block((2, 0, 1, 1, 0))
    assert [block[i] for i in range(len(block))] == list(block.symbols)
    assert block[-1] == block.symbols[-1]
    assert block[1:4] == block.symbols[1:4]
    with pytest.raises(IndexError):
        block[5]


def test_empirical_distribution_order1():
    a = Alphabet("ab")
    d = empirical_distribution(a.to_block("abbabaabbaaabaa"), 1)
    assert d.counts == {(0,): 9, (1,): 6}
    assert sum(d.probs().values()) == 1
    assert d.probs()[(0,)] == Fraction(9, 15)


def test_empirical_distribution_order2():
    a = Alphabet("ab")
    assert empirical_distribution(a.to_block("aaaa"), 2).counts == {(0, 0): 2}
    assert empirical_distribution(a.to_block("abab"), 2).counts == {(0, 1): 2}
    with pytest.raises(PreconditionError):
        empirical_distribution(a.to_block("aba"), 2)  # 2 does not divide 3


def test_joint_empirical_distribution():
    a = Alphabet("ab")
    d = joint_empirical_distribution(a.to_block("ab"), a.to_block("ab"), 1)
    assert d.counts == {((0,), (0,)): 1, ((1,), (1,)): 1}
    d = joint_empirical_distribution(a.to_block("ab"), a.to_block("ba"), 1)
    assert d.counts == {((0,), (1,)): 1, ((1,), (0,)): 1}
    d = joint_empirical_distribution(a.to_block("aabb"), a.to_block("abab"), 2)
    assert d.counts == {((0, 0), (0, 1)): 1, ((1, 1), (0, 1)): 1}
    assert d.is_joint


def test_marginalize_matches_direct():
    a = Alphabet("ab")
    x, y = a.to_block("aabb"), a.to_block("abab")
    j = joint_empirical_distribution(x, y, 1)
    assert marginalize(j, 0) == empirical_distribution(x, 1)
    assert marginalize(j, 1) == empirical_distribution(y, 1)


@given(st.integers(2, 3), st.integers(1, 4), st.data())
def test_marginalize_property(k, n, data):
    syms = "abc"[:k]
    a = Alphabet(syms)
    x = Block(tuple(data.draw(st.integers(0, k - 1)) for _ in range(n)))
    y = Block(tuple(data.draw(st.integers(0, k - 1)) for _ in range(n)))
    j = joint_empirical_distribution(x, y, 1)
    assert marginalize(j, 0) == empirical_distribution(x, 1)
    assert marginalize(j, 1) == empirical_distribution(y, 1)


def test_read_write_blocks_round_trip():
    a = Alphabet("ab")
    symbols = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    text = write_symbols(symbols, a)
    assert text == "ab\nba\n"
    read = read_symbols(text, a)
    assert read.dtype == np.uint8 and (read == symbols).all()
    # blank lines are skipped
    assert (read_symbols("\nab\n\nba\n\n", a) == symbols).all()


def _read_blocks_oracle(text: str, alphabet: Alphabet) -> list[Block]:
    """The block-file reader that read_symbols replaced, kept as its oracle:
    one Block per line of str.splitlines(), blank lines skipped, then the
    command line's checks for no block and for blocks of different lengths."""
    lines = [line for line in text.splitlines() if line]
    blocks = [Block(tuple(alphabet.index(ch) for ch in line)) for line in lines]
    if not blocks:
        raise PreconditionError("no input blocks")
    if any(b.n != blocks[0].n for b in blocks):
        raise PreconditionError("all blocks must share one length")
    return blocks


# every line boundary of str.splitlines()
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
             "\u2029"]


@st.composite
def block_texts(draw):
    symbols = draw(st.sampled_from(["01", "012", "αβ"]))
    n = draw(st.integers(1, 5))
    stray = st.sampled_from(["2", "a", "x", " ", "\t", "é", "β", "\U0001f600"])
    line = st.one_of(
        st.text(st.sampled_from(symbols), min_size=n, max_size=n),
        st.text(st.sampled_from(symbols) | stray, max_size=6),
        st.just(""),
    )
    lines = draw(st.lists(line, max_size=6))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text[: len(text) - len(ends[-1])]  # no end after the last line
    return Alphabet(symbols), text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(block_texts())
def test_reader_and_writer_agree_with_the_block_reader(case):
    alpha, text = case
    try:
        want = [b.symbols for b in _read_blocks_oracle(text, alpha)]
    except PreconditionError as e:
        with pytest.raises(PreconditionError) as got:
            read_symbols(text, alpha)
        assert str(got.value) == str(e)
        return
    symbols = read_symbols(text, alpha)
    assert symbols.dtype == np.min_scalar_type(alpha.size - 1)
    assert [tuple(row) for row in symbols.tolist()] == want
    assert write_symbols(symbols, alpha) == "".join(
        line + "\n" for line in text.splitlines() if line
    )


def test_binary_alias():
    assert BINARY.symbols == "01"
    assert BINARY.to_block("01").n == 2


@pytest.mark.parametrize(
    "text", ["1/4", " 3 ", "-2/6", "0.125", "2.5e-1", "1_000e-3", "1E2", "7e4299", "1e-4299", "0"]
)
def test_parse_rational_is_fraction_within_the_limit(text):
    assert parse_rational(text, "bad") == Fraction(text)


def test_parse_rational_reads_a_float_by_its_shortest_repr():
    assert parse_rational(0.1, "bad") == Fraction(1, 10)
    assert parse_rational(0.3, "bad") == Fraction(3, 10) != Fraction(0.3)
    assert parse_rational(1e300, "bad") == 10**300


@pytest.mark.parametrize("value", ["abc", "1/0", "", "1e", float("nan"), float("inf")])
def test_parse_rational_refuses_what_is_not_a_finite_rational(value):
    with pytest.raises(PreconditionError, match="^bad$"):
        parse_rational(value, "bad")


@pytest.mark.parametrize(
    "text", ["1e4301", "1E-4301", "1e1_0000", "1e99999999", "1e" + "9" * 5000, "1e4300", "12e4299"]
)
def test_parse_rational_refuses_digits_beyond_the_limit(text):
    with pytest.raises(PreconditionError, match="^bad: beyond the 4300-digit limit$"):
        parse_rational(text, "bad")
