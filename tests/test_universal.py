import ast
import hashlib
import importlib
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from hypothesis import given, settings, strategies as st

from unirdc import (
    BINARY,
    Alphabet,
    Block,
    CapacityError,
    EnumerationCapError,
    SphereMass,
    SphereMasses,
    PreconditionError,
    UniversalTable,
    bitfeed_distribution,
    build_universal_table,
    distortion,
    enumerate_blocks,
    estimate_sphere_mass,
    hamming,
    kraft_sum,
    lz_bit_length,
    lz_capped_length,
    min_lz_in_sphere,
    per_letter,
    row_mass,
    sample_bitfeed,
    sample_exact,
    sphere_mass,
    squared_disagreement,
    total_variation,
)

HAMMING = hamming(BINARY)
lz78_module = importlib.import_module("unirdc.lz78")
universal_module = importlib.import_module("unirdc.universal")


def test_single_symbol_table_is_uniform():
    t = build_universal_table(1, 2, "plain")
    assert t.normalizer == 1
    assert all(p == Fraction(1, 2) for p in t.probs().values())

    t4 = build_universal_table(1, 4, "plain")
    assert all(t4.bit_length_of(b) == 2 for b in enumerate_blocks(1, 4))
    assert all(p == Fraction(1, 4) for p in t4.probs().values())


def test_normalizer_is_kraft_sum():
    for n in range(1, 9):
        t = build_universal_table(n, 2, "plain")
        assert 0 < t.normalizer <= 1
        assert sum(t.probs().values()) == 1
    assert build_universal_table(4, 2, "plain").normalizer <= 1


def test_table_lengths_match_parser():
    t = build_universal_table(6, 2, "plain")
    for b in enumerate_blocks(6, 2):
        assert t.bit_length_of(b) == lz_bit_length(b, 2)


@given(st.tuples(st.integers(1, 9), st.integers(2, 9)).filter(lambda s: s[1] ** s[0] <= 3000))
@settings(max_examples=30, deadline=None)
def test_table_bits_match_parser_every_block(shape):
    n, k = shape
    for mode, length in (("plain", lz_bit_length), ("capped", lz_capped_length)):
        t = build_universal_table(n, k, mode)
        assert t.bits.tolist() == [length(b, k) for b in enumerate_blocks(n, k)]


@pytest.mark.parametrize(
    "n, k, digest",
    [
        (10, 3, "14cd0aa7467e87e727cb3d2acb4962805ab1e7f5a320a902ac7ad98dccd3682c"),
        (16, 2, "306775b8b46dc6fec6226f48144835e8cd6b27505bfbf53751353db4ceaf99a0"),
        (9, 4, "b2b8ea87045a612110314fd561ac671a6eff307a78450ec8e779033f4cecee3e"),
        (20, 2, "6967fa2c03c2dde5681aa25db91af85c4dedc746db137adee506bdf6e02e1db8"),
    ],
)
def test_table_bits_pinned_digest(n, k, digest):
    # digests of the int64 bits of the tables the recursive per-prefix walk built
    t = build_universal_table(n, k, "plain")
    assert hashlib.sha256(t.bits.tobytes()).hexdigest() == digest


def test_table_build_memory_at_the_cap():
    # 2^20 blocks is the default cap; the recursive per-prefix walk peaked at
    # 24.06 MiB of traced memory here (Python 3.11, numpy 2.4). The cache is
    # cleared so that the table is built, not looked up.
    universal_module._table.cache_clear()
    tracemalloc.start()
    try:
        build_universal_table(20, 2, "plain")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24.06 * 2**20


def test_one_table_per_key():
    t = build_universal_table(8, 2, "plain")
    assert build_universal_table(8, 2, "plain") is t
    assert build_universal_table(8, 2) is t


def test_a_lowered_cap_refuses_a_table_already_built(monkeypatch):
    monkeypatch.delenv("UNIRDC_CAP", raising=False)
    build_universal_table(8, 2, "plain")
    monkeypatch.setenv("UNIRDC_CAP", "8")
    with pytest.raises(EnumerationCapError) as refused:
        build_universal_table(8, 2, "plain")
    assert str(refused.value) == "universal table needs 256 states but the cap is 8"


def test_bit_length_of_matches_dict_lookup():
    for n, k in ((5, 2), (4, 3)):
        t = build_universal_table(n, k, "plain")
        index = {b: i for i, b in enumerate(enumerate_blocks(n, k))}
        for b in enumerate_blocks(n, k):
            assert t.bit_length_of(b) == t.bits[index[b]]
        with pytest.raises(PreconditionError):
            t.bit_length_of(BINARY.to_block("0" * (n + 1)))
        # a symbol past int64 is out of range, not an overflow
        with pytest.raises(PreconditionError, match="out of range"):
            t.bit_length_of(Block((0,) * (n - 1) + (2**70,)))


@pytest.mark.parametrize(
    "n, k, message", [(5, 2, "block length"), (4, 3, "reproduction alphabet")]
)
def test_every_table_reader_refuses_a_table_that_does_not_fit(n, k, message):
    x = BINARY.to_block("0101")
    t = build_universal_table(n, k, "plain")
    with pytest.raises(PreconditionError, match=message):
        t.require_fit(x.n, 2)
    with pytest.raises(PreconditionError, match=message):
        sphere_mass(x, Fraction(1, 4), HAMMING, t)
    with pytest.raises(PreconditionError, match=message):
        min_lz_in_sphere(x, Fraction(1, 4), HAMMING, t)
    if message == "block length":
        with pytest.raises(PreconditionError, match=message):
            t.bit_length_of(x)


def test_table_is_immutable():
    t = build_universal_table(4, 2, "plain")
    with pytest.raises(ValueError):
        t.bits[0] = 0
    with pytest.raises(AttributeError):
        t.n = 5
    assert t.size == 16 and t.bits.dtype == "int64"


def test_kraft_sum_lives_beside_the_table():
    # lz78 no longer reaches up into universal, inside a function or out
    assert kraft_sum is universal_module.kraft_sum and not hasattr(lz78_module, "kraft_sum")
    tree = ast.parse(Path(lz78_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any("universal" in (name or "") for name in imported)


def test_kraft_sum_is_table_normalizer():
    for n, k, mode in ((6, 2, "plain"), (5, 3, "plain"), (7, 2, "capped")):
        assert kraft_sum(n, k, mode) == build_universal_table(n, k, mode).normalizer
    with pytest.raises(PreconditionError):
        build_universal_table(3, 1, "plain")


def test_length_excess_reported():
    # max bits over n log2 K, minus one; the worst block is only modestly
    # above the raw-coding line at these sizes
    for n in (4, 8):
        t = build_universal_table(n, 2, "plain")
        assert t.length_excess == t.max_bits / n - 1
        assert 0 < t.length_excess < 1


def test_to_csv_layout():
    t = build_universal_table(2, 2, "plain")
    buf = io.StringIO()
    t.to_csv(buf, BINARY)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "block,bits,weight_numerator,weight_exponent"
    assert lines[1] == "00,2,1,2"
    assert len(lines) == 5


def test_sphere_mass_full_and_singleton():
    t = build_universal_table(4, 2, "plain")
    x = BINARY.to_block("0000")
    full = sphere_mass(x, 1, HAMMING, t)
    assert full.mass == 1 and full.sphere_size == 16
    zero = sphere_mass(x, 0, HAMMING, t)
    assert zero.sphere_size == 1
    assert zero.mass == t.prob(x)
    assert zero.min_bits == t.bit_length_of(x)


def test_sphere_mass_radius_one_oracle():
    # x=0000, Hamming, nD=1: the sphere is x plus its four neighbors
    t = build_universal_table(4, 2, "plain")
    x = BINARY.to_block("0000")
    m = sphere_mass(x, Fraction(1, 4), HAMMING, t)
    assert m.sphere_size == 5
    neighbors = [x] + [
        BINARY.to_block(s) for s in ("1000", "0100", "0010", "0001")
    ]
    assert m.mass == sum(t.prob(b) for b in neighbors)
    assert m.neg_log2_mass() == pytest.approx(-math.log2(float(m.mass)))


def test_sphere_mass_empty():
    # source alphabet of 3 symbols against 2 reproductions, no zero row:
    # positive floor distortion makes a tiny budget infeasible
    src = Alphabet("abc")
    spec = per_letter([[1, 2], [2, 1], [1, 1]], src, BINARY)
    t = build_universal_table(3, 2, "plain")
    m = sphere_mass(src.to_block("abc"), Fraction(1, 2), spec, t)
    assert m.mass == 0 and m.sphere_size == 0 and m.empty
    assert m.neg_log2_mass() == math.inf


def test_sphere_mass_monotone_in_level():
    t = build_universal_table(6, 2, "plain")
    for x in (BINARY.to_block("010110"), BINARY.to_block("000000")):
        masses = [
            sphere_mass(x, d, HAMMING, t).mass
            for d in (0, Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 1)
        ]
        assert masses == sorted(masses)
        assert masses[-1] == 1


def _row_mass_oracle(row, table):
    """One row weighed alone: the exact sum of 2^(max_bits - b) over the code
    lengths b the row marks, over the scaled total."""
    inside = table.bits[row]
    if not inside.size:
        return SphereMass(mass=Fraction(0), sphere_size=0, min_bits=None)
    scaled = universal_module._scaled_sum(inside, table.max_bits)
    return SphereMass(Fraction(scaled, table._total), int(inside.size), int(inside.min()))


# a hand-made table whose spread of code lengths puts the scaled total past
# 2^63: block 000 alone weighs 2^89 of 2^90
WIDE_BITS = [1, 2, 70, 70, 90, 64, 3, 90]
STACK_TABLES = [(8, 2, "plain"), (6, 3, "capped"), (5, 4, "plain"), "edge", "wide"]


@pytest.mark.parametrize("shape", STACK_TABLES, ids=str)
@pytest.mark.parametrize("slice_rows", [1, 5, None], ids=["1-row", "5-row", "default"])
def test_stacked_row_mass_matches_the_per_row_oracle(monkeypatch, shape, slice_rows):
    if shape == "wide":
        table = UniversalTable(n=3, alphabet_size=2, length_mode="plain", bits=WIDE_BITS)
        assert table._total > 2**63 and table._weights.dtype == object
    else:
        table = _sampler_table(shape)
        assert table._total < 2**63 and table._weights.dtype == np.int64
    if slice_rows:  # 23 rows in slices of one row, or of five with a short last slice
        monkeypatch.setattr(universal_module, "_MASS_KEYS", slice_rows * table.size)
    rng = np.random.default_rng(11)
    for density in (0.02, 0.3, 0.9, 1.0):
        rows = rng.random((23, table.size)) < density
        rows[[0, 7]] = False  # empty rows among the others
        want = [_row_mass_oracle(row, table) for row in rows]
        got = row_mass(rows, table)
        assert got == want
        for m in got:
            assert type(m.sphere_size) is int
            assert type(m.min_bits) is (int if m.sphere_size else type(None))
        assert row_mass(rows[3], table) == want[3]  # one 1-D row
        assert row_mass(rows[0], table) == want[0] == SphereMass(Fraction(0), 0, None)
    assert row_mass(np.zeros((5, table.size), dtype=bool), table) == [
        SphereMass(Fraction(0), 0, None)
    ] * 5
    assert row_mass(np.ones((2, table.size), dtype=bool), table) == [
        SphereMass(Fraction(1), table.size, int(table.bits.min()))
    ] * 2


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("shape", STACK_TABLES, ids=str)
def test_sphere_masses_columns_equal_each_sphere_mass(shape):
    # the array columns against float(m.mass), m.neg_log2_mass() and
    # str(m.mass) of each SphereMass, bit for bit, empty rows included
    if shape == "wide":
        table = UniversalTable(n=3, alphabet_size=2, length_mode="plain", bits=WIDE_BITS)
    else:
        table = _sampler_table(shape)
    rng = np.random.default_rng(12)
    rows = rng.random((40, table.size)) < rng.random((40, 1))
    rows[[0, 9]] = False
    rows[3] = True
    got = row_mass(rows, table)
    assert isinstance(got, SphereMasses) and len(got) == 40
    assert got.scaled.dtype == (object if shape == "wide" else np.int64)
    want = [_row_mass_oracle(row, table) for row in rows]
    assert _bits(got.floats().tolist()) == _bits([float(m.mass) for m in want])
    assert _bits(got.neg_log2().tolist()) == _bits([m.neg_log2_mass() for m in want])
    assert got.texts() == [str(m.mass) for m in want]
    assert got.neg_log2()[0] == math.inf and got.texts()[0] == "0"
    # the same columns from the SphereMasses of the plain list
    plain = SphereMasses.of(want)
    assert plain == got and got == plain and plain.scaled.dtype == object
    assert _bits(plain.floats().tolist()) == _bits(got.floats().tolist())
    assert _bits(plain.neg_log2().tolist()) == _bits(got.neg_log2().tolist())
    assert plain.texts() == got.texts()


def test_sphere_masses_is_a_read_only_sequence_of_sphere_mass():
    table = _sampler_table((6, 3, "capped"))
    rows = np.random.default_rng(13).random((7, table.size)) < 0.2
    rows[2] = False
    got = row_mass(rows, table)
    want = [_row_mass_oracle(row, table) for row in rows]
    assert got == want and got == tuple(want) and want == got and tuple(want) == got
    assert got != want[:-1] and got != want[::-1] and got != "abc" and got != 5
    assert list(got) == want and got[-1] == want[-1] and got[1:5:2] == want[1:5:2]
    with pytest.raises(IndexError):
        got[7]
    assert SphereMasses.of(got) is got
    assert pickle.loads(pickle.dumps(got)) == want
    assert isinstance(row_mass(rows[4], table), SphereMass)  # one row, one SphereMass
    assert not hasattr(got, "__setitem__")


def test_min_lz_dominance_small():
    # every sphere carries at least the weight of its simplest member
    for n in range(1, 7):
        t = build_universal_table(n, 2, "plain")
        for x in enumerate_blocks(n, 2):
            m = sphere_mass(x, Fraction(1, 4), HAMMING, t)
            if m.sphere_size:
                assert Fraction(1, 2**m.min_bits) <= m.mass
                # cruder uniform floor from the table-wide worst length
                assert m.mass >= Fraction(1, 2**t.max_bits)


def test_sample_exact_deterministic():
    t = build_universal_table(5, 2, "plain")
    assert sample_exact(t, 99, 50) == sample_exact(t, 99, 50)
    assert sample_exact(t, 99, 50) != sample_exact(t, 100, 50)


def test_sample_exact_stream_is_pinned():
    # the same rejection on getrandbits and bisect on the cumulative weights
    # as before the table became an array, so seeds keep their codewords
    t = build_universal_table(5, 3, "plain")
    top = t.max_bits
    blocks = list(enumerate_blocks(5, 3))
    cum, acc = [], 0
    for b in blocks:
        acc += 1 << (top - lz_bit_length(b, 3))
        cum.append(acc)
    rng = random.Random(5)
    expected = []
    for _ in range(200):
        r = rng.getrandbits(acc.bit_length())
        while r >= acc:
            r = rng.getrandbits(acc.bit_length())
        expected.append(blocks[bisect_right(cum, r)])
    draws = sample_exact(t, 5, 200)
    assert draws == expected
    assert [tuple(b) for b in draws[:4]] == [
        (2, 2, 1, 2, 2), (1, 0, 2, 0, 1), (1, 1, 1, 1, 2), (2, 2, 2, 2, 1)
    ]


def test_sample_exact_stream_is_pinned_binary_n16():
    # the same getrandbits rejection and bisect_right on the Python-int
    # cumulative weights, on a table whose scaled total needs 19 bits
    t = build_universal_table(16, 2, "plain")
    cum = list(accumulate(1 << (t.max_bits - b) for b in t.bits.tolist()))
    total = cum[-1]
    blocks = list(enumerate_blocks(16, 2))
    rng = random.Random(16)
    expected = []
    for _ in range(200):
        r = rng.getrandbits(total.bit_length())
        while r >= total:
            r = rng.getrandbits(total.bit_length())
        expected.append(blocks[bisect_right(cum, r)])
    assert sample_exact(t, 16, 200) == expected


def test_sample_exact_shares_blocks_between_repeats():
    t = build_universal_table(2, 2, "plain")
    draws = sample_exact(t, 3, 50)
    assert len({id(b) for b in draws}) == len(set(draws))


def test_exact_sampler_refuses_totals_beyond_int64():
    wide = UniversalTable(n=2, alphabet_size=2, length_mode="plain", bits=[1, 70, 70, 70])
    with pytest.raises(CapacityError):
        sample_exact(wide, 0, 1)
    # a total of 2^62 + 3 still fits: block 00 carries all but 3 / (2^62 + 3)
    edge = UniversalTable(n=2, alphabet_size=2, length_mode="plain", bits=[1, 63, 63, 63])
    assert sample_exact(edge, 0, 5) == [BINARY.to_block("00")] * 5


def _scalar_draws(table, seed, count):
    """The exact stream one attempt at a time: getrandbits(nbits) redrawn
    while at least the scaled total, then searchsorted(side="right") on the
    cumulative weights."""
    total = table._total
    nbits = total.bit_length()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.getrandbits(nbits)
        while r >= total:
            r = rng.getrandbits(nbits)
        out.append(r)
    return np.searchsorted(table._cumulative, np.array(out, dtype=np.int64), side="right")


# every (n, K) the tests of this file build, both length modes, the 33-bit
# attempts of 7/7 and the 63-bit attempts of a total of 2^62 + 3
SAMPLER_TABLES = [
    *((n, 2, "plain") for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 20)),
    *((n, 3, "plain") for n in (2, 4, 5, 6, 10)),
    (1, 4, "plain"), (9, 4, "plain"), (7, 7, "plain"), (3, 9, "plain"),
    (8, 2, "capped"), (5, 3, "capped"),
]
CHUNKS = (1, 7, 64, 200, 3, 1000, 0, 5, 4000)


def _sampler_table(shape):
    if shape == "edge":
        return UniversalTable(n=2, alphabet_size=2, length_mode="plain", bits=[1, 63, 63, 63])
    return build_universal_table(*shape)


@pytest.mark.parametrize("shape", [*SAMPLER_TABLES, "edge"], ids=str)
def test_exact_sampler_replays_the_scalar_stream(shape):
    # attempts are read in bulk, one MT19937 word each up to 32 bits and two
    # above, and split across refills by the chunk sizes
    t = _sampler_table(shape)
    for seed in (0, 1, 5, 2**70 + 3):
        sampler = universal_module._ExactSampler(t, seed)
        chunks = [sampler.draw(c) for c in CHUNKS]
        assert all(c.dtype == np.int64 and c.shape == (size,) for c, size in zip(chunks, CHUNKS))
        assert np.array_equal(np.concatenate(chunks), _scalar_draws(t, seed, sum(CHUNKS)))


def _random_length_table(spread, seed):
    # 4^6 blocks whose code lengths are 12 less uniform draws in [0, spread]:
    # the guide shift grows with the spread
    rng = random.Random(seed)
    bits = [12 - rng.randint(0, spread) for _ in range(4**6)]
    return UniversalTable(n=6, alphabet_size=4, length_mode="plain", bits=bits)


def test_guide_is_the_first_index_beyond_each_bucket():
    tables = [_random_length_table(spread, spread) for spread in range(11)]
    tables += [build_universal_table(n, k) for n, k in ((8, 2), (12, 2), (6, 3), (10, 3), (7, 7))]
    shifts = set()
    for t in tables:
        shift, guide = t._guide
        shifts.add(shift)
        cum, total = t._cumulative, t._total
        buckets = -(-total >> shift)
        assert buckets <= 4 * t.size and (shift == 0 or -(-total >> shift - 1) > 4 * t.size)
        assert guide.dtype == np.min_scalar_type(t.size - 1) and not guide.flags.writeable
        starts = np.arange(buckets, dtype=np.int64) << shift
        assert np.array_equal(guide, np.searchsorted(cum, starts, side="right"))
    assert set(range(6)) <= shifts


@pytest.mark.parametrize("n, k", [*((n, 2) for n in range(1, 13)), *((n, 3) for n in range(1, 7))])
def test_guided_inversion_matches_searchsorted_everywhere(n, k):
    t = build_universal_table(n, k)
    r = np.arange(t._total, dtype=np.int64)
    assert np.array_equal(t._invert(r), np.searchsorted(t._cumulative, r, side="right"))


@pytest.mark.parametrize("n, k", [(16, 2), (7, 7)])
def test_guided_inversion_matches_searchsorted_at_every_edge(n, k):
    t = build_universal_table(n, k)
    cum = t._cumulative
    r = np.concatenate([cum - 1, cum[:-1]])
    got = t._invert(r)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(cum, r, side="right"))


def test_guide_refuses_totals_beyond_int64_before_allocating(monkeypatch):
    def wide():
        return UniversalTable(n=2, alphabet_size=2, length_mode="plain", bits=[1, 70, 70, 70])

    with pytest.raises(CapacityError) as cumulative:
        wide()._cumulative

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the capacity check")

    for name in ("cumsum", "left_shift", "concatenate", "arange", "repeat", "empty"):
        monkeypatch.setattr(np, name, refuse)
    table = wide()
    with pytest.raises(CapacityError) as guide:
        table._guide
    with pytest.raises(CapacityError) as sampler:
        universal_module._ExactSampler(table, 0)
    assert str(guide.value) == str(sampler.value) == str(cumulative.value)


def test_sample_exact_single_symbol_frequencies():
    t = build_universal_table(1, 2, "plain")
    draws = sample_exact(t, 5, 100_000)
    c = Counter(draws)
    from scipy.stats import chisquare

    stat, p = chisquare([c[b] for b in enumerate_blocks(1, 2)], [50_000.0, 50_000.0])
    assert p > 0.01


def test_sample_exact_matches_table():
    t = build_universal_table(8, 2, "plain")
    draws = sample_exact(t, 11, 100_000)
    c = Counter(draws)
    from scipy.stats import chisquare

    obs = [c.get(b, 0) for b in enumerate_blocks(8, 2)]
    exp = [float(p) * 100_000 for p in t.probs().values()]
    assert min(exp) > 5  # every cell is testable without binning
    stat, p = chisquare(obs, exp)
    assert p > 0.01


def test_bitfeed_deterministic():
    assert sample_bitfeed(6, 2, 3, 20) == sample_bitfeed(6, 2, 3, 20)


def test_bitfeed_stream_is_pinned():
    # first draws as the bitfeed sampler gave them before it had one home,
    # so bitfeed seeds keep their codewords and their mass estimates
    draws = ["".join(map(str, b.symbols)) for b in sample_bitfeed(6, 2, 3, 8)]
    assert draws == [
        "001001", "001111", "000100", "001010", "001001", "001010", "110010", "011101"
    ]
    ternary = ["".join(map(str, b.symbols)) for b in sample_bitfeed(5, 3, 3, 4)]
    assert ternary == ["00211", "22202", "00102", "02020"]
    est = estimate_sphere_mass(BINARY.to_block("010110"), Fraction(1, 6), HAMMING, 4, 300)
    assert est.hits == 12


@pytest.mark.parametrize(
    "n, k, digest",
    [
        (24, 2, "d19b271cf48568b69a0bf78cdc2612b378da9118b2ee8419265bdf0f6f7996c7"),
        (10, 3, "597bddfdd816f2b66403d1a9ec57adc861b7ad1914e461c1b90af5a9844bf302"),
    ],
)
def test_bitfeed_stream_is_pinned_past_the_first_draws(n, k, digest):
    # 2000 draws at seed 3, one block per line, as the sampler gave them when
    # it built one Block per draw
    text = "".join("".join(map(str, b.symbols)) + "\n" for b in sample_bitfeed(n, k, 3, 2000))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bitfeed_single_symbol_exactly_uniform():
    law = bitfeed_distribution(1, 2)
    assert law == {b: Fraction(1, 2) for b in enumerate_blocks(1, 2)}
    t = build_universal_table(1, 2, "plain")
    assert total_variation(law, t.probs()) == 0


def test_bitfeed_law_sums_to_one():
    for n, k in ((2, 2), (3, 2), (2, 3)):
        law = bitfeed_distribution(n, k)
        assert sum(law.values()) == 1
        assert set(law) <= set(enumerate_blocks(n, k))


def test_bitfeed_divergence_reported():
    # the bit-feed sampler is documented as approximate; record the gap
    t = build_universal_table(8, 2, "plain")
    tv = total_variation(bitfeed_distribution(8, 2), t.probs())
    assert 0 < tv < 1
    print(f"bitfeed total variation at n=8: {float(tv):.4f}")


def test_bitfeed_empirical_tracks_law():
    # draws follow the exact bit-feed law, not the table law
    law = bitfeed_distribution(4, 2)
    draws = sample_bitfeed(4, 2, 21, 40_000)
    c = Counter(draws)
    from scipy.stats import chisquare

    blocks = sorted(law, key=lambda b: b.symbols)
    obs = [c.get(b, 0) for b in blocks]
    exp = [float(law[b]) * 40_000 for b in blocks]
    stat, p = chisquare(obs, exp)
    assert p > 0.01


def test_estimate_full_sphere_is_exactly_one():
    x = BINARY.to_block("0101")
    est = estimate_sphere_mass(x, 1, HAMMING, seed=4, trials=500)
    assert est.estimate == 1.0
    assert est.hits == 500
    assert "bias" in est.note


def test_estimate_interval_and_errors():
    x = BINARY.to_block("0101")
    est = estimate_sphere_mass(x, Fraction(1, 4), HAMMING, seed=4, trials=2_000)
    assert est.low <= est.estimate <= est.high
    with pytest.raises(PreconditionError):
        estimate_sphere_mass(x, Fraction(1, 4), HAMMING, seed=4, trials=0)


@pytest.mark.parametrize("seed", [0, 4, 2**40 + 3])
@pytest.mark.parametrize("spec", [HAMMING, squared_disagreement(BINARY)])
def test_estimate_hits_are_a_distortion_count_over_the_draws(seed, spec):
    x = BINARY.to_block("01101001")
    for level in (0, Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        est = estimate_sphere_mass(x, level, spec, seed=seed, trials=400)
        draws = sample_bitfeed(8, 2, seed, 400)
        assert est.hits == sum(distortion(x, y, spec) <= 8 * level for y in draws)
        assert est.estimate == est.hits / 400


def test_negative_seeds_are_refused():
    # random.Random(-s) seeds like Random(s), so -s would replay the stream of s
    x = BINARY.to_block("0101")
    t = build_universal_table(4, 2, "plain")
    for call in (
        lambda: estimate_sphere_mass(x, Fraction(1, 4), HAMMING, seed=-4, trials=10),
        lambda: sample_exact(t, -7, 3),
        lambda: sample_bitfeed(4, 2, -7, 3),
    ):
        with pytest.raises(PreconditionError, match="seed must be non-negative"):
            call()


@pytest.mark.xfail(
    strict=True,
    reason="the estimator samples the bit-feed law, whose bias (up to ~0.07 "
    "at n=8) dwarfs Monte Carlo noise, so agreement with the exact mass "
    "cannot reach 95%; the note field flags exactly this",
)
def test_estimate_tracks_exact_mass():
    t = build_universal_table(8, 2, "plain")
    sources = list(enumerate_blocks(8, 2))[::11]  # 24 spread-out blocks
    within = 0
    for i, x in enumerate(sources):
        exact = float(sphere_mass(x, Fraction(1, 4), HAMMING, t).mass)
        est = estimate_sphere_mass(x, Fraction(1, 4), HAMMING, seed=1_000 + i, trials=3_000)
        sigma = math.sqrt(exact * (1 - exact) / 3_000)
        if abs(est.estimate - exact) <= 3 * sigma:
            within += 1
    assert within >= 0.95 * len(sources)
