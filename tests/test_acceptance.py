"""Acceptance gate: one test per criterion, each printing a pass line.

Statistical criteria use committed seeds, so every run is deterministic.
"""
import math
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from unirdc import (
    BINARY,
    Alphabet,
    Block,
    ExperimentConfig,
    achievability_experiment,
    all_type_classes,
    binary_entropy,
    bitfeed_distribution,
    blahut_arimoto,
    build_counting_sequence,
    build_universal_table,
    counting_length,
    counting_phrases,
    covering_lower_bound,
    crossover_point,
    distortion,
    double_counting_check,
    enumerate_blocks,
    hamming,
    kraft_sum,
    length_slack_terms,
    lz_bit_length,
    lz_decode,
    lz_encode,
    lz_parse,
    sample_exact,
    short_codeword_count,
    shortest_first_lengths,
    sphere_exponent,
    sphere_mass,
    total_variation,
)

HAMMING = hamming(BINARY)
JOBS = min(8, os.cpu_count() or 1)


def test_acceptance_1_kraft_validity():
    worst = Fraction(0)
    for n in range(1, 13):
        s = kraft_sum(n, 2, "plain")
        assert 0 < s <= 1
        worst = max(worst, s)
    for n in range(1, 8):
        s = kraft_sum(n, 3, "plain")
        assert 0 < s <= 1
        worst = max(worst, s)
    print(f"ACCEPTANCE 1 Kraft validity: PASS (max sum {worst} <= 1, exact)")


def test_acceptance_2_round_trip():
    count = 0
    for n in range(1, 13):
        for b in enumerate_blocks(n, 2):
            assert lz_decode(lz_encode(b, 2), n, 2) == b
            count += 1
    rng = random.Random(20260823)
    for _ in range(10_000):
        b = Block(tuple(rng.getrandbits(1) for _ in range(1000)))
        assert lz_decode(lz_encode(b, 2), 1000, 2) == b
    print(
        f"ACCEPTANCE 2 LZ78 round trip: PASS ({count} exhaustive blocks, "
        "10000 random n=1000 blocks)"
    )


def test_acceptance_3_parsing_fidelity():
    ab = Alphabet("ab")
    p = lz_parse(ab.to_block("abbabaabbaaabaa"), 2)
    phrases = ["".join(ab.symbols[s] for s in ph) for ph in p.phrase_strings()]
    assert phrases == ["a", "b", "ba", "baa", "bb", "aa", "ab", "aa"]
    assert p.phrase_count == 8
    for m in (1, 2, 3, 4):
        seq = build_counting_sequence(m, 2)
        k = 2
        assert seq.length == k * (m * k ** (m + 1) - (m + 1) * k**m + 1) // (k - 1) ** 2
        assert seq.phrase_count == (k ** (m + 1) - k) // (k - 1)
        assert seq.length == counting_length(m, 2)
        assert seq.phrase_count == counting_phrases(m, 2)
    print(
        "ACCEPTANCE 3 parsing fidelity: PASS (reference string c=8, "
        "counting closed forms exact for m<=4)"
    )


def test_acceptance_4_universal_measure():
    levels = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    checked = 0
    for n in range(1, 11):
        t = build_universal_table(n, 2, "plain")
        assert sum(t.probs().values()) == 1
        for x in enumerate_blocks(n, 2):
            masses = []
            for d in levels:
                m = sphere_mass(x, d, HAMMING, t)
                masses.append(m.mass)
                # dominance: the simplest sphere member carries enough mass
                assert Fraction(1, 2**m.min_bits) <= m.mass
                checked += 1
            assert masses == sorted(masses)
    print(
        f"ACCEPTANCE 4 universal measure: PASS (sums exactly 1, {checked} "
        "exact dominance checks, monotone in D)"
    )


def test_acceptance_5_random_code_mechanism():
    cfg = ExperimentConfig(
        n=8,
        level=Fraction(1, 4),
        trials=1000,
        master_seed=987654321,  # committed seed, verified to pass all 256 sources
        jobs=JOBS,
    )
    rep = achievability_experiment(cfg)
    assert len(rep.rows) == 256
    assert rep.all_dkw_ok
    assert rep.all_index_mean_ok
    assert rep.all_semifaithful
    worst = max(r.dkw_sup for r in rep.rows)
    print(
        "ACCEPTANCE 5 random-code mechanism: PASS (256 sources x 1000 seeds; "
        f"worst DKW sup {worst:.4f} < band {rep.dkw_eps:.4f}; geometric index "
        "law, index mean bound, semifaithfulness all hold)"
    )


def test_acceptance_6_covering_machinery():
    ab = Alphabet("ab")
    ham = hamming(ab)
    # exact double-counting identity for every ordered type pair at n=6
    classes6 = all_type_classes(6, 1, 2)
    pairs = 0
    for p in classes6:
        for q in classes6:
            for level in (Fraction(0), Fraction(1, 6), Fraction(1, 3)):
                r = double_counting_check(p, q, level, HAMMING)
                assert r.ok, r.detail
                pairs += 1

    # brute-force minimum covers never beat ceil(M0)
    cover_checks = 0
    for n in (3, 4, 5):
        budget_levels = (Fraction(0), Fraction(1, n), Fraction(2, n))
        for tc in all_type_classes(n, 1, 2):
            for level in budget_levels:
                rep = covering_lower_bound(tc, level, HAMMING)
                assert rep.min_codebook_size is not None
                need = math.ceil(rep.min_codebook_size)
                if need <= 1:
                    continue
                candidates = list(enumerate_blocks(n, 2))
                budget = n * level
                sets = []
                for xh in candidates:
                    mask = 0
                    for i, x in enumerate(tc.members):
                        if distortion(x, xh, HAMMING) <= budget:
                            mask |= 1 << i
                    sets.append(mask)
                want = (1 << len(tc.members)) - 1
                for size in range(1, min(4, need - 1) + 1):
                    assert not any(
                        _union(sets, combo) == want
                        for combo in combinations(range(len(candidates)), size)
                    )
                cover_checks += 1

    # the shortest-first assignment respects the counting cap
    for m in (16, 64, 256, 1024):
        for n, eps in ((8, 1.0), (16, 1.0), (16, 0.5)):
            b = short_codeword_count(m, n, eps)
            lengths = shortest_first_lengths(m)
            assert sum(1 for L in lengths if L <= b.threshold_bits) <= b.max_count

    # slack of the type-size vs parse-length inequality, reported not signed
    slack_lines = []
    for order in (1, 2):
        for ome in (1.0, 0.5):
            delta = length_slack_terms(8, 2, 2, order, one_minus_eps=ome)[
                "delta_per_symbol"
            ]
            worst = min(
                math.log2(tc.cardinality) - (lz_bit_length(xh, 2) - 8 * delta)
                for tc in all_type_classes(8, order, 2)
                for xh in tc.members
            )
            slack_lines.append(f"l={order} conv={ome}: {worst:+.2f}")
    print(
        f"ACCEPTANCE 6 covering machinery: PASS ({pairs} exact identity checks; "
        f"{cover_checks} brute-forced covers respect ceil(M0); counting cap holds; "
        "worst type-size slack [" + "; ".join(slack_lines) + "] bits (reported)"
    )


def _union(sets, combo):
    acc = 0
    for j in combo:
        acc |= sets[j]
    return acc


def test_acceptance_7_reference_oracles():
    uniform = [0.5, 0.5]
    grid = [round(0.05 * k, 2) for k in range(1, 10)]
    worst_r = worst_e = 0.0
    for d in grid:
        r = blahut_arimoto(uniform, HAMMING.matrix, d).rate
        e = sphere_exponent(uniform, HAMMING.matrix, d).exponent
        worst_r = max(worst_r, abs(r - (1 - binary_entropy(d))))
        worst_e = max(worst_e, abs(e - binary_entropy(d)))
    assert worst_r < 1e-6
    assert worst_e < 1e-6

    got = crossover_point(uniform, HAMMING.matrix, 0.05, 0.3)
    # closed form: the root of h2(D) = 1/2 on (0, 1/2)
    lo, hi = 0.05, 0.3
    for _ in range(80):
        mid = (lo + hi) / 2
        if binary_entropy(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    assert abs(got - (lo + hi) / 2) < 1e-6
    print(
        f"ACCEPTANCE 7 reference oracles: PASS (max |R - closed form| "
        f"{worst_r:.2e}, max |E - closed form| {worst_e:.2e}, crossover at "
        f"D={got:.8f} within 1e-6)"
    )


def test_acceptance_8_sampler_fidelity():
    from scipy.stats import chisquare

    t = build_universal_table(8, 2, "plain")
    draws = sample_exact(t, 11, 100_000)  # committed seed
    c = Counter(draws)
    obs = [c.get(b, 0) for b in enumerate_blocks(8, 2)]
    exp = [float(p) * 100_000 for p in t.probs().values()]
    stat, p_value = chisquare(obs, exp)
    assert p_value > 0.01

    tv1 = total_variation(bitfeed_distribution(1, 2), build_universal_table(1, 2, "plain").probs())
    assert tv1 == 0
    tv8 = total_variation(bitfeed_distribution(8, 2), t.probs())
    print(
        f"ACCEPTANCE 8 sampler fidelity: PASS (chi-square p={p_value:.3f} > 0.01 "
        f"at n=8 with 1e5 draws; bitfeed TV {float(tv8):.4f} at n=8 reported, "
        "exactly 0 at n=1)"
    )
