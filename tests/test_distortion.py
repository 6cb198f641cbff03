import importlib
import json
import random
from itertools import compress

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from unirdc import (
    BINARY,
    Alphabet,
    Block,
    EnumerationCapError,
    PreconditionError,
    callable_spec,
    distortion,
    enumerate_blocks,
    enumerate_reverse_sphere,
    enumerate_sphere,
    find_witness,
    hamming,
    joint_empirical_distribution,
    joint_type_spec,
    load_spec,
    per_letter,
    spec_from_json,
    spec_from_object,
    spec_to_json,
    squared_disagreement,
    sphere_indicator,
)
from unirdc import build_universal_table, min_lz_in_sphere, sphere_mass
from unirdc.core import block_symbols
from unirdc.distortion import sphere_rows, within

# the package exports the function distortion under the module's name
distortion_module = importlib.import_module("unirdc.distortion")
AB = Alphabet("ab")
HAMMING = hamming(BINARY)


def test_kind_flags():
    assert HAMMING.first_order_only
    assert squared_disagreement(AB, AB).first_order_only
    assert not callable_spec(lambda x, y: 0, AB, AB).first_order_only


def test_hamming_values():
    assert distortion(BINARY.to_block("0101"), BINARY.to_block("0101"), HAMMING) == 0
    assert distortion(BINARY.to_block("0000"), BINARY.to_block("0101"), HAMMING) == 2


def test_per_letter_exact_fractions():
    spec = per_letter([["1/3", 0], [0, "1/3"]], BINARY, BINARY)
    d = distortion(BINARY.to_block("00"), BINARY.to_block("00"), spec)
    assert d == Fraction(2, 3)
    assert isinstance(d, Fraction)


def test_per_letter_validation():
    with pytest.raises(PreconditionError):
        per_letter([[0]], BINARY, BINARY)  # wrong shape
    with pytest.raises(PreconditionError):
        per_letter([[0, -1], [1, 0]], BINARY, BINARY)  # negative entry
    with pytest.raises(PreconditionError):
        distortion(BINARY.to_block("01"), BINARY.to_block("011"), HAMMING)


def test_joint_type_functional():
    spec = squared_disagreement(AB, AB)
    x = AB.to_block("ab")
    assert distortion(x, x, spec) == 0
    # one disagreement in two symbols: n * (1/2)^2
    assert distortion(x, AB.to_block("aa"), spec) == Fraction(1, 2)
    assert distortion(x, AB.to_block("ba"), spec) == 2  # total disagreement: 2 * 1


def test_callable_kind_evaluates():
    spec = callable_spec(lambda x, y: sum(abs(a - b) for a, b in zip(x, y)), AB, AB)
    assert distortion(AB.to_block("ab"), AB.to_block("ba"), spec) == 2


def test_sphere_zero_radius():
    x = BINARY.to_block("0110")
    assert enumerate_sphere(x, 0, HAMMING) == [x]
    assert enumerate_reverse_sphere(x, 0, HAMMING) == [x]


def test_sphere_radius_one_count():
    x = BINARY.to_block("0000")
    assert len(enumerate_sphere(x, Fraction(1, 4), HAMMING)) == 5
    assert len(enumerate_reverse_sphere(x, Fraction(1, 4), HAMMING)) == 5


def test_sphere_full():
    x = BINARY.to_block("0110")
    assert len(enumerate_sphere(x, 1, HAMMING)) == 16


def test_sphere_symmetric_sizes():
    for x in enumerate_blocks(4, 2):
        for d in (0, Fraction(1, 4), Fraction(1, 2)):
            assert len(enumerate_sphere(x, d, HAMMING)) == len(
                enumerate_reverse_sphere(x, d, HAMMING)
            )


def test_negative_level_rejected():
    with pytest.raises(PreconditionError):
        enumerate_sphere(BINARY.to_block("01"), -1, HAMMING)
    with pytest.raises(PreconditionError):
        find_witness(BINARY.to_block("01"), Fraction(-1, 2), HAMMING)


def test_witness_identity_for_hamming():
    for x in enumerate_blocks(5, 2):
        assert find_witness(x, 0, HAMMING) == x
        assert find_witness(x, Fraction(1, 2), HAMMING) == x


def test_witness_none_when_infeasible():
    src = Alphabet("abc")
    spec = per_letter([[1, 2], [2, 1], [1, 1]], src, BINARY)
    assert find_witness(src.to_block("abc"), Fraction(1, 2), spec) is None


def test_witness_matches_exhaustive_search():
    spec = per_letter([["1/2", 2], [3, "1/4"]], BINARY, BINARY)
    for x in enumerate_blocks(6, 2):
        for level in (Fraction(1, 2), Fraction(5, 4), Fraction(2, 1)):
            budget = 6 * level
            sphere = [
                y for y in enumerate_blocks(6, 2) if distortion(x, y, spec) <= budget
            ]
            w = find_witness(x, level, spec)
            if sphere:
                assert w is not None and distortion(x, w, spec) <= budget
            else:
                assert w is None


def _one_plus_flips(x, y):
    # never zero, so level 0 leaves every sphere empty
    return 1 + sum(a != b for a, b in zip(x.symbols, y.symbols))


@pytest.mark.parametrize(
    "spec, some_sphere_empty",
    [
        pytest.param(squared_disagreement(BINARY, BINARY), False, id="squared"),
        pytest.param(callable_spec(_one_plus_flips, BINARY, BINARY), True, id="callable"),
    ],
)
def test_witness_is_first_sphere_block_for_other_kinds(spec, some_sphere_empty):
    firsts = []
    for x in enumerate_blocks(5, 2):
        for level in (0, Fraction(1, 5), Fraction(2, 5), Fraction(1, 2)):
            budget = 5 * level
            first = next(
                (y for y in enumerate_blocks(5, 2) if distortion(x, y, spec) <= budget), None
            )
            assert find_witness(x, level, spec) == first
            firsts.append(first)
        with pytest.raises(PreconditionError):
            find_witness(x, Fraction(-1, 5), spec)
    assert (None in firsts) == some_sphere_empty


@given(st.lists(st.integers(0, 1), min_size=1, max_size=7), st.integers(0, 7))
@settings(max_examples=100)
def test_witness_greedy_agrees_with_brute_force(bits, num):
    x = Block(tuple(bits))
    level = Fraction(num, 8)
    w = find_witness(x, level, HAMMING)
    sphere = enumerate_sphere(x, level, HAMMING)
    assert (w is None) == (not sphere)


def test_spec_json_round_trip():
    spec = per_letter([["1/2", 2], [3, "1/4"]], BINARY, BINARY)
    again = spec_from_json(spec_to_json(spec))
    assert again.matrix == spec.matrix
    assert again.source.symbols == spec.source.symbols
    joint = squared_disagreement(Alphabet("ab"), Alphabet("xyz"))
    again = spec_from_json(spec_to_json(joint))
    assert (again.kind, again.functional) == (joint.kind, joint.functional)
    assert (again.source, again.repro) == (joint.source, joint.repro)
    assert spec_to_json(again) == spec_to_json(joint)
    with pytest.raises(PreconditionError):
        spec_to_json(callable_spec(lambda x, y: 0, BINARY, BINARY))


def test_spec_from_json_named_kinds():
    payload = {"kind": "hamming", "alphabets": {"source": "01", "repro": "01"}}
    spec = spec_from_json(json.dumps(payload))
    assert spec.matrix == HAMMING.matrix
    payload = {
        "kind": "joint_type_functional",
        "functional": "squared_disagreement",
        "alphabets": {"source": "ab", "repro": "ab"},
    }
    spec = spec_from_json(json.dumps(payload))
    assert spec.first_order_only
    with pytest.raises(PreconditionError):
        spec_from_json(json.dumps({"kind": "no_such_kind"}))


def test_spec_from_object_takes_the_callers_alphabets_unless_it_names_its_own():
    ternary, binary = Alphabet("012"), BINARY
    assert spec_from_object({"kind": "hamming"}, "012") == hamming(ternary)
    assert spec_from_object({"kind": "hamming"}, "012", "01") == hamming(ternary, binary)
    squared = {"kind": "joint_type_functional", "functional": "squared_disagreement"}
    assert spec_from_object(squared, "ab", "xyz") == squared_disagreement(AB, Alphabet("xyz"))
    # an alphabets key keeps the wire form's rule: source "01", repro the source
    named = {"kind": "hamming", "alphabets": {}}
    assert spec_from_object(named, "012", "012") == HAMMING
    named = {"kind": "hamming", "alphabets": {"source": "ab"}}
    assert spec_from_object(named, "012", "01") == hamming(AB)
    # the wire form keeps its binary default
    assert spec_from_json('{"kind": "hamming"}') == HAMMING
    for bad in [[1], {"matrix": [[0]]}, {"kind": "hamming", "alphabets": None}]:
        with pytest.raises(PreconditionError):
            spec_from_object(bad, "01")


def test_sphere_rows_beyond_the_row_ceiling_are_refused_before_allocation(monkeypatch):
    centers = [[0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]]  # 3 rows of 2^4 bytes
    specs = (HAMMING, squared_disagreement(BINARY), callable_spec(lambda x, y: 0, BINARY, BINARY))
    monkeypatch.setattr(distortion_module, "_ROW_BYTES_CAP", 3 * 16, raising=False)
    for spec in specs:
        assert sphere_rows(centers, Fraction(1, 4), spec).shape == (3, 16)
    monkeypatch.setattr(distortion_module, "_ROW_BYTES_CAP", 3 * 16 - 1, raising=False)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated rows beyond the ceiling")

    monkeypatch.setattr(distortion_module.np, "zeros", refuse)
    for spec in specs:
        with pytest.raises(EnumerationCapError, match="3 centers"):
            sphere_rows(centers, Fraction(1, 4), spec)


def test_load_spec_file(tmp_path):
    spec = per_letter([[0, 1], [1, 0]], BINARY, BINARY)
    p = tmp_path / "dist.json"
    p.write_text(spec_to_json(spec))
    loaded = load_spec(str(p))
    assert loaded.matrix == spec.matrix


def _oracle_sphere(x, level, spec, table):
    """Mass, size and min bits of the sphere by one distortion() call per block."""
    budget = x.n * Fraction(level)
    inside = [
        (i, table.bits[i])
        for i, y in enumerate(enumerate_blocks(x.n, spec.repro_size))
        if distortion(x, y, spec) <= budget
    ]
    mass = sum((Fraction(1, 2 ** int(b)) for _, b in inside), Fraction(0))
    min_bits = min((int(b) for _, b in inside), default=None)
    return mass / table.normalizer, len(inside), min_bits


def _random_rational_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 5, 7, 12])) for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize(
    "source,repro", [("01", "01"), ("abc", "01"), ("01", "xyz"), ("abc", "wxyz")]
)
def test_kernel_matches_scalar_oracle(source, repro):
    rng = random.Random(f"{source}/{repro}")
    src, rep = Alphabet(source), Alphabet(repro)
    n = 5
    table = build_universal_table(n, rep.size, "plain")
    for _ in range(4):
        spec = per_letter(_random_rational_matrix(rng, src.size, rep.size), src, rep)
        top = max(max(row) for row in spec.matrix)
        x = Block(tuple(rng.randrange(src.size) for _ in range(n)))
        levels = [0, Fraction(-1, 3), top, top + 1, Fraction(rng.randint(1, 30), 7), 10**400]
        for level in levels:
            m = sphere_mass(x, level, spec, table)
            assert (m.mass, m.sphere_size, m.min_bits) == _oracle_sphere(x, level, spec, table)
        mask = sphere_indicator(x, top, spec)
        assert mask.all() and len(mask) == rep.size**n
        assert not sphere_indicator(x, Fraction(-1, 3), spec).any()


def _oracle_rows(centers, level, spec, reverse=False):
    """Stacked sphere rows by one distortion() call per pair."""
    n = centers[0].n
    budget = n * Fraction(level)
    blocks = list(enumerate_blocks(n, spec.source_size if reverse else spec.repro_size))
    return np.array(
        [
            [distortion(*((b, c) if reverse else (c, b)), spec) <= budget for b in blocks]
            for c in centers
        ],
        dtype=bool,
    )


def _oracle_costs(centers, spec, reverse=False):
    """The distortion of every (center, block) pair, one distortion() call each."""
    blocks = list(enumerate_blocks(centers[0].n, spec.source_size if reverse else spec.repro_size))
    return np.array(
        [[distortion(*((b, c) if reverse else (c, b)), spec) for b in blocks] for c in centers]
    )


def _symbols(blocks):
    """The blocks' symbols, one block per row: sphere_rows takes its centers so."""
    return np.array([b.symbols for b in blocks])


def _centers_sharing_halves(rng, n, size):
    """Every join of two heads of n // 2 letters with two tails, then a few
    random blocks and a repeat."""
    h = n // 2
    heads = [tuple(rng.randrange(size) for _ in range(h)) for _ in range(2)]
    tails = [tuple(rng.randrange(size) for _ in range(n - h)) for _ in range(2)]
    centers = [Block(a + b) for a in heads for b in tails]
    centers += [Block(tuple(rng.randrange(size) for _ in range(n))) for _ in range(3)]
    return centers + centers[:1]


def _assert_reverse_spheres(centers, level, spec, want):
    """enumerate_reverse_sphere around each reproduction center lists the
    source blocks of that center's oracle row; a negative level is refused."""
    blocks = list(enumerate_blocks(centers[0].n, spec.source_size))
    for c, row in zip(centers, want):
        if level < 0:
            with pytest.raises(PreconditionError):
                enumerate_reverse_sphere(c, level, spec)
        else:
            assert enumerate_reverse_sphere(c, level, spec) == list(compress(blocks, row))


def _levels_on_the_boundary(rng, center, spec, reverse):
    """Levels at which some block lies exactly on center's sphere."""
    k = spec.source_size if reverse else spec.repro_size
    others = [Block(tuple(rng.randrange(k) for _ in range(center.n))) for _ in range(3)]
    pairs = [(b, center) if reverse else (center, b) for b in others]
    return [Fraction(distortion(x, xhat, spec)) / center.n for x, xhat in pairs]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "source,repro", [("01", "01"), ("012", "012"), ("abc", "01"), ("01", "xyz")]
)
def test_sphere_rows_match_stacked_scalar_rows(source, repro, n, reverse):
    rng = random.Random(f"{source}/{repro}/{n}/{reverse}")
    src, rep = Alphabet(source), Alphabet(repro)
    spec = per_letter(_random_rational_matrix(rng, src.size, rep.size), src, rep)
    centers = _centers_sharing_halves(rng, n, (rep if reverse else src).size)
    top = max(max(row) for row in spec.matrix)
    levels = [0, Fraction(-1, 3), Fraction(rng.randint(1, 30), 7), top]
    levels += _levels_on_the_boundary(rng, centers[0], spec, reverse)
    # a callable measure, rows through within(), against the same oracle
    counted = callable_spec(
        lambda x, y: Fraction(sum(a != b for a, b in zip(x, y)) ** 2, 3), src, rep
    )
    for measure in (spec, counted):
        for level in levels + [10**400]:
            want = _oracle_rows(centers, level, measure, reverse)
            if reverse:
                _assert_reverse_spheres(centers, level, measure, want)
                continue
            rows = sphere_rows(_symbols(centers), level, measure)
            assert rows.dtype == bool and rows.shape == want.shape
            assert (rows == want).all()
            assert (sphere_indicator(centers[1], level, measure) == want[1]).all()
    # every block lies within the largest entry
    if reverse:
        _assert_reverse_spheres(centers, top, spec, np.ones((len(centers), src.size**n), bool))
    else:
        assert sphere_rows(_symbols(centers), top, spec).all()
    # the joint-type key fold, against distortions worked out once per pair
    squared = squared_disagreement(src, rep)
    costs = _oracle_costs(centers, squared, reverse)
    levels = [0, Fraction(1, 10), Fraction(1, 4), Fraction(-1, 3), 10**400]
    for level in levels + _levels_on_the_boundary(rng, centers[0], squared, reverse):
        if reverse:
            _assert_reverse_spheres(centers, level, squared, costs <= n * level)
            continue
        rows = sphere_rows(_symbols(centers), level, squared)
        assert rows.dtype == bool and (rows == (costs <= n * level)).all()


def test_sphere_rows_refuse_no_centers_and_out_of_range():
    with pytest.raises(PreconditionError, match="center"):
        sphere_rows(np.zeros((0, 2), dtype=np.int64), 0, HAMMING)
    with pytest.raises(PreconditionError, match="nonempty"):
        sphere_rows(np.zeros((1, 0), dtype=np.int64), 0, HAMMING)
    for bad, shown in (((0, 2), 2), ((-1, 0), -1)):
        with pytest.raises(PreconditionError, match=f"index {shown} out of range"):
            sphere_rows(np.array([[0, 1], bad]), 0, HAMMING)
    # a block's symbol past int64 is out of range, not an overflow
    for huge in (2**63, 2**70):
        with pytest.raises(PreconditionError, match=f"index {huge} out of range"):
            sphere_indicator(Block((0, huge)), 0, HAMMING)
    # floats, a single row and a list are refused as such, not left to the fold
    for bad, message in (
        (np.array([[0.0, 1.0]]), "integers"),
        (np.array([0, 1]), "center"),
        ([[0, 1], [0, 2]], "index 2 out of range"),
        ([[0, 1], [0]], "equal length"),
    ):
        with pytest.raises(PreconditionError, match=message):
            sphere_rows(bad, 0, HAMMING)


def test_kernel_overflowing_denominator_takes_exact_path(monkeypatch):
    # the common denominator is about 2^40 * 3^30 * 7 > 2^63, so the scaled
    # totals fold as exact Python ints; no block is tested with distortion()
    big = [[0, Fraction(1, 2**40 + 15)], [Fraction(1, 3**30), Fraction(5, 7)]]
    spec = per_letter(big, BINARY, BINARY)
    calls = []
    real = distortion_module.distortion
    monkeypatch.setattr(
        distortion_module, "distortion", lambda *a: calls.append(a) or real(*a)
    )
    table = build_universal_table(6, 2, "plain")
    x = BINARY.to_block("011010")
    for level in (0, Fraction(1, 3**30), Fraction(1, 6), Fraction(5, 7), 10**400):
        m = sphere_mass(x, level, spec, table)
        assert (m.mass, m.sphere_size, m.min_bits) == _oracle_sphere(x, level, spec, table)
    assert len(enumerate_reverse_sphere(x, 10**400, spec)) == 2**6
    centers = _centers_sharing_halves(random.Random(7), 7, 2)
    rng = random.Random(7)
    levels = [0, Fraction(-1, 7), Fraction(1, 3**30), Fraction(2, 7), Fraction(5, 7)]
    levels += _levels_on_the_boundary(rng, centers[0], spec, False)
    levels += _levels_on_the_boundary(rng, centers[0], spec, True)
    # the oracles call the package's distortion(), not the module attribute
    # that the patch counts
    for level in levels + [10**400]:
        got = sphere_rows(_symbols(centers), level, spec)
        assert (got == _oracle_rows(centers, level, spec)).all()
        _assert_reverse_spheres(centers, level, spec, _oracle_rows(centers, level, spec, True))
    assert calls == []


def test_kernel_scalar_kinds_match_oracle():
    table = build_universal_table(5, 2, "plain")
    cases = [
        (squared_disagreement(BINARY), ["01101", "00000"]),
        (squared_disagreement(Alphabet("abc"), BINARY), ["abcab", "ccccc"]),
        (
            callable_spec(lambda x, y: sum(a != b for a, b in zip(x, y)) ** 2, BINARY, BINARY),
            ["01101", "00000"],
        ),
    ]
    levels = [0, Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(2, 5), 5]
    for spec, texts in cases:
        for x in map(spec.source.to_block, texts):
            for level in levels + [Fraction(-1, 5), 10**400]:
                m = sphere_mass(x, level, spec, table)
                want = _oracle_sphere(x, level, spec, table)
                assert (m.mass, m.sphere_size, m.min_bits) == want
    # five letters at n=5: the key of a pair reaches 6^24, so the totals
    # (up to 5 * 6^24) fold as Python ints
    five = Alphabet("abcde")
    spec = squared_disagreement(five)
    assert 5 * 6**24 > distortion_module._INT64_MAX
    centers = [five.to_block("abcde"), five.to_block("eeeea")]
    costs = _oracle_costs(centers, spec)
    for level in (0, Fraction(1, 5), Fraction(4, 5)):
        assert (sphere_rows(_symbols(centers), level, spec) == (costs <= 5 * level)).all()


@pytest.mark.parametrize("reverse", [False, True])
def test_joint_type_row_evaluates_each_joint_type_once(monkeypatch, reverse):
    spec = squared_disagreement(Alphabet("abc"), BINARY)
    calls = []
    real = distortion_module.distortion
    monkeypatch.setattr(distortion_module, "distortion", lambda *a: calls.append(a) or real(*a))
    k = spec.source_size if reverse else spec.repro_size
    texts = ["011001", "111111", "100110"] if reverse else ["abcabc", "aaacca", "cbacba"]
    centers = list(map((spec.repro if reverse else spec.source).to_block, texts))
    every = set()
    for c in centers:
        calls.clear()
        pairs = [(b, c) if reverse else (c, b) for b in enumerate_blocks(6, k)]
        if reverse:
            got = enumerate_reverse_sphere(c, Fraction(1, 3), spec)
            want = [x for x, xhat in pairs if distortion(x, xhat, spec) <= 2]
        else:
            got = sphere_indicator(c, Fraction(1, 3), spec).tolist()
            want = [distortion(x, xhat, spec) <= 2 for x, xhat in pairs]
        types = {joint_empirical_distribution(x, xhat, 1) for x, xhat in pairs}
        # one call per joint type, not one per block (the oracle's calls
        # above go to the package's distortion(), which the patch does not count)
        assert len(calls) == len(types) < k**6
        assert {joint_empirical_distribution(x, xhat, 1) for x, xhat, _ in calls} == types
        assert got == want
        every |= types
    if not reverse:
        # the rows of one call share their joint types
        calls.clear()
        sphere_rows(_symbols(centers), Fraction(1, 3), spec)
        assert len(calls) == len(every)


def test_reverse_sphere_matches_scalar_oracle():
    src, rep = Alphabet("abc"), BINARY
    spec = per_letter([["1/2", 0], [1, "1/3"], [0, 2]], src, rep)
    xhat = rep.to_block("0110")
    for level in (0, Fraction(1, 4), Fraction(1, 2), 2):
        got = enumerate_reverse_sphere(xhat, level, spec)
        want = [x for x in enumerate_blocks(4, 3) if distortion(x, xhat, spec) <= 4 * level]
        assert got == want


def test_reverse_sphere_past_the_cap_builds_nothing(monkeypatch):
    monkeypatch.setenv("UNIRDC_CAP", "8")
    built = []
    for name in ("block_symbols", "within"):
        monkeypatch.setattr(distortion_module, name, lambda *a, name=name: built.append(name))
    xhat = BINARY.to_block("0110")
    with pytest.raises(EnumerationCapError, match="16 states but the cap is 8"):
        enumerate_reverse_sphere(xhat, Fraction(1, 4), HAMMING)
    # the level is refused first, whatever the cap
    with pytest.raises(PreconditionError, match="non-negative"):
        enumerate_reverse_sphere(xhat, Fraction(-1, 4), HAMMING)
    assert built == []


def test_min_lz_in_sphere_lexicographic_tie_break():
    table = build_universal_table(6, 2, "plain")
    for x in list(enumerate_blocks(6, 2))[::5]:
        for level in (Fraction(1, 6), Fraction(1, 3), 1):
            budget = 6 * level
            best = None
            for y in enumerate_blocks(6, 2):
                if distortion(x, y, HAMMING) <= budget:
                    if best is None or table.bit_length_of(y) < best[0]:
                        best = (table.bit_length_of(y), y)
            assert min_lz_in_sphere(x, level, HAMMING, table) == best


TERNARY = Alphabet("012")
# the pairwise membership kernel against distortion(), one spec per path:
# int64 gathers, exact Python-int gathers, joint-type keys and the scalar pass
WITHIN_SPECS = {
    "hamming": HAMMING,
    "ternary rational": per_letter(
        [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]], TERNARY, TERNARY
    ),
    "ternary to binary matrix": per_letter([["1/2", 0], [1, "1/3"], [0, 2]], TERNARY, BINARY),
    # entries near 2^62: two letters already total past int64
    "near 2^62": per_letter([[1, 2**62 + 3], [2**62 - 1, 0]], BINARY, BINARY),
    "squared disagreement": squared_disagreement(BINARY),
    "squared ternary to binary": squared_disagreement(TERNARY, BINARY),
    "callable": callable_spec(
        lambda x, y: Fraction(sum(a != b for a, b in zip(x, y)) ** 2, 3), BINARY, BINARY
    ),
}


def _symbol_rows(draw, n, size, count):
    rows = st.lists(st.integers(0, size - 1), min_size=n, max_size=n)
    return np.array(draw(st.lists(rows, min_size=count, max_size=count)), dtype=np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(WITHIN_SPECS)), st.data())
def test_within_equals_distortion_on_random_pairs(name, data):
    spec = WITHIN_SPECS[name]
    n = data.draw(st.integers(1, 6))
    xs = _symbol_rows(data.draw, n, spec.source_size, data.draw(st.integers(1, 4)))
    ys = _symbol_rows(data.draw, n, spec.repro_size, data.draw(st.integers(1, 4)))
    # every source against every reproduction: distortion() per pair
    costs = np.array(
        [[distortion(Block(tuple(x)), Block(tuple(y)), spec) for y in ys.tolist()]
         for x in xs.tolist()],
        dtype=object,
    )
    on_boundary = Fraction(costs[0, -1]) / n
    for level in (0, Fraction(1, n), Fraction(1, 4), on_boundary, Fraction(-1, n)):
        want = costs <= n * level
        # a scan around source centers, a scan around reproduction centers
        assert (within(xs[:, None], ys[None], level, spec) == want).all()
        assert (within(xs[None], ys[:, None], level, spec) == want.T).all()
        # pair by pair, the round trip's layout
        m = min(len(xs), len(ys))
        pairwise = within(xs[:m], ys[:m], level, spec)
        assert pairwise.dtype == bool and (pairwise == want.diagonal()[:m]).all()
        assert within(xs[0], ys[-1], level, spec) == want[0, -1]


def test_within_takes_python_ints_past_int64():
    spec = WITHIN_SPECS["near 2^62"]
    table, limit = distortion_module._costs(2, Fraction(1, 2), spec)
    assert table.dtype == object and limit == 1
    xs = np.array([[0, 1], [1, 0], [0, 0]])
    ys = np.array([[1, 0], [1, 0], [0, 0]])
    # the pairs total 2^63 + 2 (past int64), 1 and 2
    assert within(xs, ys, Fraction(1, 2), spec).tolist() == [False, True, False]
    assert within(xs, ys, 2**62, spec).tolist() == [False, True, True]
    assert within(xs, ys, Fraction(2**63 + 1, 2), spec).tolist() == [False, True, True]
    assert within(xs, ys, Fraction(2**63 + 2, 2), spec).tolist() == [True, True, True]


@pytest.mark.parametrize("name", sorted(WITHIN_SPECS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_within_over_every_block_equals_sphere_rows(name, n):
    spec = WITHIN_SPECS[name]
    rng = random.Random(f"{name}/{n}")
    sources = block_symbols(np.arange(spec.source_size**n), n, spec.source_size)
    repros = block_symbols(np.arange(spec.repro_size**n), n, spec.repro_size)
    for level in (0, Fraction(1, n), Fraction(1, 4), Fraction(2, 3), Fraction(-1, n), 10**400):
        for _ in range(3):
            x = sources[rng.randrange(len(sources))]
            forward = sphere_rows(x[None], level, spec)
            assert (forward == _oracle_rows([Block(x.tolist())], level, spec)).all()
            assert (within(x[None], repros, level, spec) == forward[0]).all()
    # a reverse sphere is within() over every source block: against the
    # pairwise oracle, at the boundary levels too
    for _ in range(3):
        xhat = Block(repros[rng.randrange(len(repros))].tolist())
        levels = [0, Fraction(1, 4), Fraction(-1, n), 10**400]
        levels += _levels_on_the_boundary(rng, xhat, spec, True)
        for level in levels:
            _assert_reverse_spheres([xhat], level, spec, _oracle_rows([xhat], level, spec, True))


def test_within_refuses_bad_blocks():
    xs = np.array([[0, 1]])
    for ys, message in (
        (np.array([[0, 1, 1]]), "equal length"),
        (np.array([[0, 2]]), "index 2 out of range"),
        (np.array([[-1, 0]]), "index -1 out of range"),
        (np.array([[0.0, 1.0]]), "integers"),
        (np.array(1), "equal length"),
    ):
        with pytest.raises(PreconditionError, match=message):
            within(xs, ys, Fraction(1, 2), HAMMING)
    with pytest.raises(PreconditionError, match="nonempty"):
        within(np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64), 0, HAMMING)
    with pytest.raises(PreconditionError, match="index 2 out of range"):
        within(np.array([[2, 0]]), xs, 1, HAMMING)
