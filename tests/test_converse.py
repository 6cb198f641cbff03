import math
from itertools import combinations

import numpy as np
import pytest
from fractions import Fraction

from unirdc import (
    BINARY,
    Alphabet,
    EnumerationCapError,
    PreconditionError,
    UncoverableError,
    all_type_classes,
    build_universal_table,
    converse_length_bound,
    covering_lower_bound,
    distortion,
    double_counting_check,
    empirical_distribution,
    enumerate_blocks,
    enumerate_type_class,
    greedy_cover,
    hamming,
    length_slack_terms,
    lz_bit_length,
    multinomial,
    per_letter,
    short_codeword_count,
    shortest_first_lengths,
    squared_disagreement,
    tree_node_count,
)
from unirdc.distortion import sphere_rows
from unirdc.core import EmpiricalDistribution, block_indices
from unirdc.errors import UnirdcError

AB = Alphabet("ab")
HAMMING = hamming(BINARY)
HAMMING_AB = hamming(AB)


def dist_of(text, order=1):
    return empirical_distribution(AB.to_block(text), order)


def test_multinomial():
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(6, [1, 2, 3]) == 60
    assert multinomial(5, [5]) == 1


def test_type_class_counting_oracles():
    assert enumerate_type_class(dist_of("aabb")).cardinality == 6
    assert enumerate_type_class(dist_of("abab", 2)).cardinality == 1
    assert enumerate_type_class(dist_of("aaabba", 2)).cardinality == 6
    # a class of 1200 chunks is listed, in lexicographic order
    long = enumerate_type_class(EmpiricalDistribution(1, 1200, {(0,): 1199, (1,): 1}))
    assert [m.symbols for m in long.members] == [
        (0,) * (1199 - j) + (1,) + (0,) * j for j in range(1200)
    ]


def test_type_class_members_consistent():
    tc = enumerate_type_class(dist_of("aabb"))
    assert len(tc.members) == tc.cardinality
    for m in tc.members:
        assert empirical_distribution(m, 1) == tc.distribution
    # members are produced in lexicographic order
    assert [m.symbols for m in tc.members] == sorted(m.symbols for m in tc.members)


@pytest.mark.parametrize("k, max_n, orders", [(2, 10, (1, 2)), (3, 6, (1, 2))])
def test_type_class_symbols_are_the_members_positions(k, max_n, orders):
    # each row of symbols is its member, read as a base-K number in the
    # order of a lexicographic scan of all blocks
    for order in orders:
        for n in range(order, max_n + 1, order):
            for tc in all_type_classes(n, order, k):
                got = block_indices(tc.symbols, k)
                want = [int("".join(map(str, m.symbols)), k) for m in tc.members]
                assert got.tolist() == want
                assert (np.diff(got) > 0).all()
                assert tc.symbols.shape == (tc.cardinality, n)


def test_type_class_compares_by_distribution():
    p, q = enumerate_type_class(dist_of("aabb")), enumerate_type_class(dist_of("abab"))
    assert p == q and hash(p) == hash(q)
    assert p != enumerate_type_class(dist_of("abbb"))
    assert "symbols" not in repr(p)
    # members are built once, on first use, from rows that cannot change
    assert p.members is p.members
    assert [m.symbols for m in p.members] == [tuple(row) for row in p.symbols.tolist()]
    with pytest.raises(ValueError):
        p.symbols[0, 0] = 1


def _grouped_type_classes(n, order, alphabet_size):
    """Every block of length n grouped by its order-chunk distribution."""
    groups = {}
    for b in enumerate_blocks(n, alphabet_size):
        groups.setdefault(empirical_distribution(b, order), []).append(b)
    return [(d, tuple(ms)) for d, ms in groups.items()]


@pytest.mark.parametrize("k, max_n", [(2, 8), (3, 6)])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_all_type_classes_matches_grouping_oracle(order, k, max_n):
    for n in range(order, max_n + 1, order):
        got = [(tc.distribution, tc.members) for tc in all_type_classes(n, order, k)]
        assert got == _grouped_type_classes(n, order, k)


def test_all_type_classes_errors(monkeypatch):
    for n, order in ((5, 2), (4, 0)):
        with pytest.raises(PreconditionError):
            all_type_classes(n, order, 2)  # order must divide n
    monkeypatch.setenv("UNIRDC_CAP", "8")
    assert len(all_type_classes(3, 1, 2)) == 4
    with pytest.raises(EnumerationCapError):
        all_type_classes(4, 1, 2)


def test_all_type_classes_partition():
    classes = all_type_classes(4, 1, 2)
    assert sum(tc.cardinality for tc in classes) == 16
    seen = set()
    for tc in classes:
        seen.update(tc.members)
    assert len(seen) == 16


def test_double_counting_exhaustive_small():
    classes = all_type_classes(4, 1, 2)
    for p in classes:
        for q in classes:
            for level in (0, Fraction(1, 4), Fraction(1, 2), 1):
                r = double_counting_check(p, q, level, HAMMING)
                assert r.ok, r.detail


def test_double_counting_edge_levels():
    p = enumerate_type_class(dist_of("aabb"))
    q = enumerate_type_class(dist_of("abbb"))
    full = double_counting_check(p, q, 1, HAMMING_AB)
    assert full.ok and full.forward_size == q.cardinality
    empty = double_counting_check(p, q, -1, HAMMING_AB)
    assert empty.ok and empty.forward_size == 0 and empty.reverse_size == 0


def test_double_counting_rejects_callable_measure():
    from unirdc import callable_spec

    spec = callable_spec(lambda x, y: 0, AB, AB)
    p = enumerate_type_class(dist_of("aabb"))
    with pytest.raises(PreconditionError):
        double_counting_check(p, p, 0, spec)


def test_covering_bound_trivial_cases():
    tc = enumerate_type_class(dist_of("aabb"))
    assert covering_lower_bound(tc, 1, HAMMING_AB).min_codebook_size == 1
    assert covering_lower_bound(tc, 0, HAMMING_AB).min_codebook_size == tc.cardinality


def test_covering_bound_oracle_n6():
    # balanced type at n=6, one flip allowed: 20 members, best sphere covers 4
    tc = enumerate_type_class(dist_of("aaabbb"))
    rep = covering_lower_bound(tc, Fraction(1, 6), HAMMING_AB)
    assert rep.min_codebook_size == 5
    assert rep.max_covered == 4
    assert rep.best_cover_type is not None


def test_greedy_cover_trivial_cases():
    tc = enumerate_type_class(dist_of("aabb"))
    assert greedy_cover(tc, 1, HAMMING_AB).size == 1
    assert greedy_cover(tc, 0, HAMMING_AB).size == tc.cardinality


def test_greedy_cover_within_classic_ratio():
    tc = enumerate_type_class(dist_of("aaabbb"))
    rep = covering_lower_bound(tc, Fraction(1, 6), HAMMING_AB)
    g = greedy_cover(tc, Fraction(1, 6), HAMMING_AB)
    m0 = rep.min_codebook_size
    assert m0 <= g.size
    assert g.size <= math.ceil(m0 * (1 + math.log(tc.cardinality)))
    # every member is inside some chosen sphere
    budget = 6 * Fraction(1, 6)
    for x in tc.members:
        assert any(distortion(x, xh, HAMMING_AB) <= budget for xh in g.codebook)


def test_greedy_cover_uncoverable():
    src = Alphabet("abc")
    spec = per_letter([[1, 2], [2, 1], [1, 1]], src, BINARY)
    tc = enumerate_type_class(empirical_distribution(src.to_block("abc"), 1))
    with pytest.raises(UncoverableError):
        greedy_cover(tc, Fraction(1, 3), spec)


class _StaleCover(np.ndarray):
    """A cover matrix whose row selections read as empty, so the candidate
    counts of the greedy cover never go down; it refuses to be read more
    than a few hundred times, so a loop that never stops fails instead."""

    reads = 0

    def __getitem__(self, key):
        _StaleCover.reads += 1
        assert _StaleCover.reads < 500, "the greedy loop made no progress"
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return np.zeros((int(key.sum()), self.shape[1]), dtype=bool)
        return np.asarray(self)[key]


def test_greedy_refuses_stale_counts_instead_of_spinning():
    tc = enumerate_type_class(dist_of("aaabbb"))
    cover = sphere_rows(tc.symbols, Fraction(1, 6), HAMMING_AB)
    assert len(greedy_cover(tc, Fraction(1, 6), HAMMING_AB).codebook) < tc.cardinality
    _StaleCover.reads = 0
    # the class keeps the stale view as its cover at this level and measure
    tc.__dict__["_cover"] = (Fraction(1, 6), HAMMING_AB), cover.view(_StaleCover)
    with pytest.raises(UnirdcError, match="uncovered after 20 steps"):
        greedy_cover(tc, Fraction(1, 6), HAMMING_AB)


def test_a_lowered_cap_refuses_a_cover_already_kept(monkeypatch):
    monkeypatch.delenv("UNIRDC_CAP", raising=False)
    tc = enumerate_type_class(dist_of("aaaabbbb"))
    tc.cover(Fraction(1, 8), HAMMING_AB)
    monkeypatch.setenv("UNIRDC_CAP", "8")
    with pytest.raises(EnumerationCapError) as refused:
        tc.cover(Fraction(1, 8), HAMMING_AB)
    assert str(refused.value) == "sphere scan needs 256 states but the cap is 8"


def test_the_kept_cover_is_read_only():
    tc = enumerate_type_class(dist_of("aabb"))
    cover = tc.cover(Fraction(1, 4), HAMMING_AB)
    assert np.array_equal(cover, sphere_rows(tc.symbols, Fraction(1, 4), HAMMING_AB))
    assert not cover.flags.writeable
    with pytest.raises(ValueError):
        cover[0, 0] = not cover[0, 0]


def test_a_second_level_builds_a_new_cover_and_reports_as_a_fresh_class():
    d = dist_of("aaabbb")
    tc = enumerate_type_class(d)
    first = tc.cover(Fraction(1, 6), HAMMING_AB)
    covering_lower_bound(tc, Fraction(1, 6), HAMMING_AB)
    greedy_cover(tc, Fraction(1, 6), HAMMING_AB)
    second = tc.cover(Fraction(1, 3), HAMMING_AB)
    assert second is not first and not np.array_equal(second, first)
    pair = enumerate_type_class(dist_of("ababab"))
    for level in (Fraction(1, 3), Fraction(1, 6)):
        fresh = enumerate_type_class(d)
        assert covering_lower_bound(tc, level, HAMMING_AB) == covering_lower_bound(
            fresh, level, HAMMING_AB
        )
        assert greedy_cover(tc, level, HAMMING_AB) == greedy_cover(fresh, level, HAMMING_AB)
        assert double_counting_check(tc, pair, level, HAMMING_AB) == double_counting_check(
            fresh, pair, level, HAMMING_AB
        )


def test_equal_measures_built_separately_share_one_cover():
    tc = enumerate_type_class(dist_of("aabbab"))
    cover = tc.cover(Fraction(1, 6), hamming(AB))
    assert hamming(AB) is not hamming(AB)
    assert tc.cover(Fraction(1, 6), hamming(AB)) is cover


def test_exhaustive_minimal_covers_respect_bound():
    # brute-force minimum covers can never beat ceil(M0)
    for text, level in (("aabb", Fraction(1, 4)), ("aaab", Fraction(1, 4))):
        tc = enumerate_type_class(dist_of(text))
        rep = covering_lower_bound(tc, level, HAMMING_AB)
        n = tc.distribution.n
        budget = n * level
        candidates = list(enumerate_blocks(n, 2))
        sets = []
        for xh in candidates:
            mask = 0
            for i, x in enumerate(tc.members):
                if distortion(x, xh, HAMMING_AB) <= budget:
                    mask |= 1 << i
            sets.append(mask)
        want = (1 << len(tc.members)) - 1
        best = None
        for size in range(1, 5):
            for combo in combinations(range(len(candidates)), size):
                acc = 0
                for j in combo:
                    acc |= sets[j]
                if acc == want:
                    best = size
                    break
            if best:
                break
        assert best is not None
        assert best >= math.ceil(rep.min_codebook_size)


def _pairwise(n, spec):
    """distortion() of every (source, reproduction) pair of length n."""
    return {
        (x, xh): distortion(x, xh, spec)
        for x in enumerate_blocks(n, spec.source_size)
        for xh in enumerate_blocks(n, spec.repro_size)
    }


def _oracle_covered(d, source_class, xhat, budget):
    return {x for x in source_class.members if d[x, xhat] <= budget}


def _oracle_covering(d, source_class, level, spec):
    """Bound, maximizer type and max covered, from the pairwise distortions."""
    n = source_class.distribution.n
    budget = n * Fraction(level)
    best, best_xhat = 0, None
    for xhat in enumerate_blocks(n, spec.repro_size):
        covered = len(_oracle_covered(d, source_class, xhat, budget))
        if covered > best:
            best, best_xhat = covered, xhat
    if best == 0:
        return None, None, 0
    best_type = empirical_distribution(best_xhat, source_class.distribution.order)
    return Fraction(source_class.cardinality, best), best_type, best


def _oracle_greedy(d, source_class, level, spec):
    """Codebook and gains of the greedy cover, or the uncoverable member."""
    n = source_class.distribution.n
    budget = n * Fraction(level)
    candidates = list(enumerate_blocks(n, spec.repro_size))
    sets = [_oracle_covered(d, source_class, xh, budget) for xh in candidates]
    reachable = set().union(*sets)
    missing = [x for x in source_class.members if x not in reachable]
    if missing:
        return missing[-1]
    left = set(source_class.members)
    chosen, gains = [], []
    while left:
        # largest gain first, then the earliest candidate
        gain, i = max((len(s & left), -i) for i, s in enumerate(sets))
        chosen.append(candidates[-i])
        gains.append(gain)
        left -= sets[-i]
    return tuple(chosen), tuple(gains)


def _oracle_double_counting(d, source_class, repro_class, level):
    budget = source_class.distribution.n * Fraction(level)
    forward = [
        sum(1 for xh in repro_class.members if d[x, xh] <= budget)
        for x in source_class.members
    ]
    reverse = [len(_oracle_covered(d, source_class, xh, budget)) for xh in repro_class.members]
    return forward, reverse


TERNARY = Alphabet("abc")
RATIONAL_3X3 = per_letter(
    [[0, "1/2", 1], ["1/3", 0, "2/3"], ["1/2", "2/3", 1]], TERNARY, TERNARY
)


@pytest.mark.parametrize(
    "spec, n, order",
    [pytest.param(HAMMING, n, 1, id=f"hamming-n{n}") for n in range(1, 7)]
    + [pytest.param(squared_disagreement(BINARY), n, 1, id=f"squared-n{n}") for n in range(1, 7)]
    + [pytest.param(RATIONAL_3X3, 4, 1, id="ternary-rational-n4")]
    + [pytest.param(HAMMING, n, 2, id=f"hamming-n{n}-order2") for n in (2, 4, 6)]
    + [
        pytest.param(squared_disagreement(BINARY), n, 2, id=f"squared-n{n}-order2")
        for n in (2, 4)
    ],
)
def test_cover_matrix_matches_pairwise_oracle(spec, n, order):
    d = _pairwise(n, spec)
    classes = all_type_classes(n, order, spec.source_size)
    levels = sorted({-1, 0, Fraction(1, n), Fraction(1, 2), 1})
    for level in levels:
        for source_class in classes:
            bound, best_type, best = _oracle_covering(d, source_class, level, spec)
            rep = covering_lower_bound(source_class, level, spec)
            assert (rep.min_codebook_size, rep.best_cover_type, rep.max_covered) == (
                bound, best_type, best
            )

            want = _oracle_greedy(d, source_class, level, spec)
            if isinstance(want, tuple):
                g = greedy_cover(source_class, level, spec)
                assert (g.codebook, g.covered_per_step) == want
            else:
                with pytest.raises(UncoverableError) as err:
                    greedy_cover(source_class, level, spec)
                assert err.value.member == want

            for repro_class in all_type_classes(n, order, spec.repro_size):
                forward, reverse = _oracle_double_counting(
                    d, source_class, repro_class, level
                )
                r = double_counting_check(source_class, repro_class, level, spec)
                assert r.ok
                assert set(forward) == {r.forward_size}
                assert set(reverse) == {r.reverse_size}


def test_short_codeword_oracles():
    b = short_codeword_count(1024, 16, 1.0)
    assert b.max_count == 127
    assert b.bound == pytest.approx(2 * 1024 / 16 - 1)
    assert b.fraction_guarantee == pytest.approx(1 - 2 / 16)
    loose = short_codeword_count(1024, 16, 1e-9)
    assert loose.bound == pytest.approx(2 * 1024 - 1, rel=1e-6)


def test_short_codeword_brute_force():
    # shortest-first assignment saturates the counting limit but never beats it
    for m in (10, 31, 64):
        for n, eps in ((4, 1.0), (8, 0.5)):
            b = short_codeword_count(m, n, eps)
            lengths = shortest_first_lengths(m)
            short = sum(1 for L in lengths if L <= b.threshold_bits)
            assert short <= b.max_count


def test_shortest_first_lengths():
    assert shortest_first_lengths(5) == [1, 1, 2, 2, 2]
    assert shortest_first_lengths(1) == [1]
    # exactly 2^l strings of each length l are available
    lengths = shortest_first_lengths(2 + 4 + 8)
    assert lengths.count(1) == 2 and lengths.count(2) == 4 and lengths.count(3) == 8


def test_tree_node_count():
    assert tree_node_count(2, 2) == 7
    assert tree_node_count(2, 1) == 3
    assert tree_node_count(3, 2) == 13


def test_slack_terms_reported():
    terms = length_slack_terms(8, 2, 2, 2)
    assert terms["tree_nodes"] == 7
    assert terms["delta_per_symbol"] > 0
    assert terms["base_slack"] > 0
    assert terms["delta_per_symbol"] == pytest.approx(
        terms["parse_overhead"] + terms["base_slack"] + terms["chunk_term_outside"]
    )
    for order in (3, 0):
        with pytest.raises(PreconditionError):
            length_slack_terms(8, 2, 2, order)  # order must divide n


def test_one_symbol_slack_is_precondition_error():
    # the decomposition divides by log2 n, which is 0 at n = 1
    with pytest.raises(PreconditionError):
        length_slack_terms(1, 2, 2, 1)
    tc = enumerate_type_class(empirical_distribution(BINARY.to_block("0"), 1))
    table = build_universal_table(1, 2, "plain")
    with pytest.raises(PreconditionError):
        converse_length_bound(tc, 0, HAMMING, 1.0, table)


def test_one_over_order_term_smallest_at_full_order():
    # the 1/order contribution is trivially smallest at order n; the total
    # slack is not, since the tree-node terms explode with the order
    n = 8
    assert min(1.0 / l for l in (1, 2, 4, 8)) == 1.0 / n
    totals = {l: length_slack_terms(n, 2, 2, l)["delta_per_symbol"] for l in (1, 2, 4, 8)}
    assert totals[1] < totals[8]


def test_type_log_size_slack_nonnegative_default_convention():
    # log2 |class| >= bits - n * Delta for every block at these sizes
    for n in (4, 6, 8):
        for order in (1, 2):
            delta = length_slack_terms(n, 2, 2, order)["delta_per_symbol"]
            for tc in all_type_classes(n, order, 2):
                log_size = math.log2(tc.cardinality)
                for xh in tc.members:
                    assert log_size >= lz_bit_length(xh, 2) - n * delta


@pytest.mark.parametrize(
    "k, n, order",
    [(2, n, 1) for n in range(2, 9)] + [(2, n, 2) for n in (2, 4, 6, 8)] + [(3, 4, 1)],
)
def test_type_log_size_slack_is_the_least_member_gap(k, n, order):
    # the report's closed form against the gap of every best-cover-class member
    alphabet = Alphabet("012"[:k])
    spec = hamming(alphabet)
    table = build_universal_table(n, k, "plain")
    for level in (Fraction(0), Fraction(1, n), Fraction(1, 2)):
        for tc in all_type_classes(n, order, k):
            rep = converse_length_bound(tc, level, spec, 1.0, table)
            best = rep.best_cover_class
            want = min(
                math.log2(best.cardinality) - (lz_bit_length(xh, k) - n * rep.delta_per_symbol)
                for xh in best.members
            )
            assert rep.type_log_size_slack == want


def test_converse_length_bound_report():
    t = build_universal_table(6, 2, "plain")
    tc = enumerate_type_class(empirical_distribution(BINARY.to_block("010101"), 1))
    rep = converse_length_bound(tc, Fraction(1, 6), HAMMING, 1.0, t)
    assert rep.min_codebook_size is not None
    assert rep.sphere_mass_bits > 0
    assert rep.bound_bits == pytest.approx(
        rep.sphere_mass_bits - 6 * rep.delta_per_symbol - 1.0 * math.log2(6)
    )
    assert rep.tree_nodes == 3
    assert set(rep.slack_terms) == {
        "parse_overhead",
        "base_slack",
        "chunk_term_inside",
        "chunk_term_outside",
        "tree_nodes",
        "delta_per_symbol",
    }


def test_enumerate_type_class_rejects_joint():
    x, y = AB.to_block("ab"), AB.to_block("ba")
    from unirdc import joint_empirical_distribution

    j = joint_empirical_distribution(x, y, 1)
    with pytest.raises(PreconditionError):
        enumerate_type_class(j)
