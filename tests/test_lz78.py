import math
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from unirdc import (
    Alphabet,
    BINARY,
    Block,
    BitString,
    CorruptStreamError,
    enumerate_blocks,
    kraft_sum,
    lz_bit_length,
    lz_capped_length,
    lz_decode,
    lz_encode,
    lz_length_bound,
    lz_parse,
    parse_overhead,
)

AB = Alphabet("ab")


def phrases_text(parse, alphabet):
    return ["".join(alphabet.symbols[s] for s in ph) for ph in parse.phrase_strings()]


def test_reference_string_parse():
    # the worked parsing example: eight phrases, last one a repeat
    p = lz_parse(AB.to_block("abbabaabbaaabaa"), 2)
    assert phrases_text(p, AB) == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert p.phrase_count == 8
    assert p.final_is_duplicate
    assert p.bit_length == 24  # sum ceil(log2 i) = 17, plus 7 innovation bits


def test_constant_string_parse():
    p = lz_parse(AB.to_block("aaaa"), 2)
    assert phrases_text(p, AB) == ["a", "aa", "a"]
    assert p.phrase_count == 3
    assert p.final_is_duplicate
    assert p.bit_length == 5  # (0+1) + (1+1) + 2-bit pointer only


def test_single_symbol_parse():
    p = lz_parse(AB.to_block("a"), 2)
    assert p.phrase_count == 1
    assert not p.final_is_duplicate
    assert p.bit_length == 1  # empty pointer plus one symbol bit


def test_parse_reconstructs_block():
    for block in enumerate_blocks(7, 2):
        p = lz_parse(block, 2)
        assert p.block() == block
        strings = p.phrase_strings()
        # all but possibly the last are distinct
        assert len(set(strings[:-1])) == len(strings) - 1
        if not p.final_is_duplicate:
            assert len(set(strings)) == len(strings)


def test_bit_length_identity():
    for block in enumerate_blocks(6, 3):
        p = lz_parse(block, 3)
        pointer_bits = sum((i - 1).bit_length() for i in range(1, p.phrase_count + 1))
        innovations = sum(1 for _, s in p.phrases if s is not None)
        assert p.bit_length == pointer_bits + innovations * 2  # ceil(log2 3) = 2
        assert lz_bit_length(block, 3) == p.bit_length


def test_encode_decode_exhaustive_small():
    for n in range(1, 11):
        for block in enumerate_blocks(n, 2):
            bits = lz_encode(block, 2)
            assert bits.length == lz_bit_length(block, 2)
            assert lz_decode(bits, n, 2) == block


def test_decode_known_code():
    bits = lz_encode(AB.to_block("aaaa"), 2)
    assert bits.length == 5
    assert lz_decode(bits, 4, 2) == AB.to_block("aaaa")


def test_decode_empty():
    assert lz_decode(BitString(0, 0), 0, 2) == Block(())


def test_decode_corrupt_pointer():
    # second phrase pointing at itself: pointer bit 1 means phrase 1 exists,
    # but a longer stream with pointer value >= i must fail
    with pytest.raises(CorruptStreamError):
        lz_decode(BitString(0b1111111, 7), 6, 2)


def test_decode_wrong_length_fails():
    bits = lz_encode(AB.to_block("abab"), 2)
    with pytest.raises(CorruptStreamError):
        lz_decode(bits, 3, 2)


@given(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=60))
@settings(max_examples=200)
def test_round_trip_property(k, syms):
    block = Block(tuple(s % k for s in syms))
    assert lz_decode(lz_encode(block, k), block.n, k) == block


def test_round_trip_long_random():
    rng = random.Random(17)
    for _ in range(200):
        block = Block(tuple(rng.randrange(2) for _ in range(1000)))
        assert lz_decode(lz_encode(block, 2), 1000, 2) == block


def test_length_bound_oracles():
    # c phrases cost at most (c+1) log2(2K(c+1))
    assert lz_length_bound(8, 15, 2).bound_bits == pytest.approx(9 * math.log2(36))
    assert lz_length_bound(1, 2, 2).bound_bits == pytest.approx(2 * math.log2(8))


def test_length_bound_dominates():
    for block in enumerate_blocks(10, 2):
        p = lz_parse(block, 2)
        bound = lz_length_bound(p.phrase_count, 10, 2)
        assert bound.bound_bits >= p.bit_length
        # decomposition fields are reported alongside the bound
        c = p.phrase_count
        clogc = c * math.log2(c) if c > 1 else 0.0
        assert bound.decomposed_bits == pytest.approx(clogc + 10 * bound.epsilon_n)
        assert bound.epsilon_n == parse_overhead(10, 2)


def test_parse_overhead_shrinks():
    values = [parse_overhead(n, 2) for n in (16, 64, 256, 4096)]
    assert all(b > 0 for b in values)
    assert values == sorted(values, reverse=True)
    with pytest.raises(Exception):
        parse_overhead(1, 2)


def test_capped_length_oracles():
    assert lz_capped_length(AB.to_block("aaaa"), 2) == 5  # min(5, 4) + 1
    assert lz_capped_length(AB.to_block("a"), 2) == 2  # min(1, 1) + 1
    assert type(lz_capped_length(AB.to_block("ab"), 2)) is int  # JSON reports print it
    for block in enumerate_blocks(8, 2):
        assert lz_capped_length(block, 2) <= 8 + 1


def test_kraft_exact():
    # the code is prefix-free block by block, so the sum is a rational <= 1
    for n in range(1, 9):
        s = kraft_sum(n, 2, "plain")
        assert isinstance(s, Fraction)
        assert 0 < s <= 1
    assert kraft_sum(6, 2, "plain") == Fraction(17, 64)
    for n in range(1, 6):
        assert kraft_sum(n, 3, "plain") <= 1
        assert kraft_sum(n, 2, "capped") <= 1
