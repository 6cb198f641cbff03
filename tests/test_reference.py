import math

import pytest
from fractions import Fraction

from unirdc import (
    BINARY,
    Alphabet,
    InfeasibleError,
    binary_entropy,
    blahut_arimoto,
    build_universal_table,
    complexity_crossover,
    crossover_point,
    enumerate_blocks,
    hamming,
    lz_bit_length,
    min_lz_in_sphere,
    sphere_exponent,
    sphere_mass,
)

HAMMING = hamming(BINARY)
H_MATRIX = HAMMING.matrix
UNIFORM = [0.5, 0.5]


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.49991595816, abs=1e-9)


def test_ba_matches_closed_form():
    for d in (0.05, 0.1, 0.15, 0.25, 0.35, 0.45):
        r = blahut_arimoto(UNIFORM, H_MATRIX, d)
        assert r.converged
        assert r.rate == pytest.approx(1 - binary_entropy(d), abs=1e-6)


def test_ba_boundary_levels():
    assert blahut_arimoto(UNIFORM, H_MATRIX, 0.5).rate == 0.0
    assert blahut_arimoto(UNIFORM, H_MATRIX, 0.9).rate == 0.0
    # lossless limit: rate equals the source entropy
    assert blahut_arimoto([0.3, 0.7], H_MATRIX, 0.0).rate == pytest.approx(
        -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7)), abs=1e-9
    )


def test_ba_monotone_in_level():
    rates = [blahut_arimoto(UNIFORM, H_MATRIX, d).rate for d in
             (0.02, 0.1, 0.2, 0.3, 0.4, 0.48)]
    assert all(r >= 0 for r in rates)
    assert rates == sorted(rates, reverse=True)


def test_ba_infeasible():
    src = Alphabet("ab")
    spec_matrix = ((1, 2), (2, 1))  # distortion floor is 1
    with pytest.raises(InfeasibleError):
        blahut_arimoto(UNIFORM, spec_matrix, 0.5)


def test_sphere_exponent_matches_closed_form():
    for d in (0.05, 0.15, 0.25, 0.35, 0.45):
        e = sphere_exponent(UNIFORM, H_MATRIX, d)
        assert e.exponent == pytest.approx(binary_entropy(d), abs=1e-6)
        assert e.multiplier >= 0


def test_sphere_exponent_boundaries():
    assert sphere_exponent(UNIFORM, H_MATRIX, 0.5).exponent == pytest.approx(1.0)
    assert sphere_exponent(UNIFORM, H_MATRIX, 0.9).exponent == pytest.approx(1.0)
    assert sphere_exponent(UNIFORM, H_MATRIX, 0.0).exponent == pytest.approx(0.0, abs=1e-9)


def test_sphere_exponent_reaches_the_minimum_distortion_limit_past_underflow():
    # from multiplier 1075 on, 2^(-lam * d) is 0 for both costs of the row
    # [1, 2]; weighed against the row's minimum the row keeps a weight of 1,
    # so the bisection never divides 0 by 0 and ends in the limit branch
    e = sphere_exponent(UNIFORM, [[0, 1], [1, 2]], 0.5 - 5e-13)
    assert e.multiplier == math.inf
    assert e.channel == ((1.0, 0.0), (1.0, 0.0)) and e.exponent == 0.0


def test_ba_with_costs_whose_weights_underflow():
    # every weight 2^(-slope * d) of these rows is 0 from slope 1 on; the
    # curve is the Hamming curve shifted by 2000 and scaled by 1000
    matrix = [[2000, 3000], [3000, 2000]]
    for d in (0.1, 0.2):
        r = blahut_arimoto(UNIFORM, matrix, 2000 + 1000 * d)
        assert r.converged
        assert r.rate == pytest.approx(1 - binary_entropy(d), abs=1e-6)


def test_sphere_exponent_binomial_cross_check():
    # finite-n sphere sizes: exponent tracks (1/n) log2 of the exact binomial
    # sum at n=16; the finite-n gap shrinks as D grows toward 1/2
    n = 16
    for d_num, d_den in ((3, 8), (1, 2)):
        d = d_num / d_den
        radius = (n * d_num) // d_den
        size = sum(math.comb(n, k) for k in range(radius + 1))
        finite = math.log2(size) / n
        e = sphere_exponent(UNIFORM, H_MATRIX, d).exponent
        assert abs(e - finite) < 0.1


def test_min_lz_in_sphere_oracles():
    t = build_universal_table(6, 2, "plain")
    x = BINARY.to_block("000000")
    bits, best = min_lz_in_sphere(x, 0, HAMMING, t)
    assert best == x and bits == lz_bit_length(x, 2)
    # full sphere: global minimum, attained by a constant block here
    bits, best = min_lz_in_sphere(BINARY.to_block("010101"), 1, HAMMING, t)
    assert bits == min(lz_bit_length(b, 2) for b in enumerate_blocks(6, 2))
    assert len(set(best.symbols)) == 1


def test_min_lz_dominates_mass_bits():
    t = build_universal_table(8, 2, "plain")
    for x in list(enumerate_blocks(8, 2))[::13]:
        for level in (0, Fraction(1, 8), Fraction(1, 4)):
            m = sphere_mass(x, level, HAMMING, t)
            bits, _ = min_lz_in_sphere(x, level, HAMMING, t)
            assert bits >= m.neg_log2_mass() - 1e-9


def test_min_lz_in_sphere_infeasible():
    from unirdc import per_letter

    src = Alphabet("abc")
    spec = per_letter([[1, 2], [2, 1], [1, 1]], src, BINARY)
    t = build_universal_table(3, 2, "plain")
    with pytest.raises(InfeasibleError):
        min_lz_in_sphere(src.to_block("abc"), Fraction(1, 3), spec, t)


def test_crossover_closed_form():
    # R(D) = E(D) exactly where h2(D) = 1/2
    got = crossover_point(UNIFORM, H_MATRIX, 0.05, 0.3)
    assert got == pytest.approx(0.11002786443835959, abs=1e-6)
    assert binary_entropy(got) == pytest.approx(0.5, abs=1e-6)


def test_crossover_requires_bracket():
    from unirdc import PreconditionError

    with pytest.raises(PreconditionError):
        crossover_point(UNIFORM, H_MATRIX, 0.2, 0.3)  # same sign at both ends


@pytest.mark.parametrize("solver", [blahut_arimoto, sphere_exponent])
def test_matrix_entry_beyond_a_float_is_refused(solver):
    from unirdc import PreconditionError

    with pytest.raises(PreconditionError, match="fit in a float"):
        solver(UNIFORM, [[0, 1], [1, 10**400]], 0.25)


def test_complexity_crossover_signs():
    rows = complexity_crossover(UNIFORM, H_MATRIX, [0.02, 0.11, 0.3])
    assert not rows[0].random_code_cheaper  # R > E near zero distortion
    assert rows[2].random_code_cheaper  # E > R near D_max
    assert rows[0].rate == pytest.approx(1 - binary_entropy(0.02), abs=1e-6)
    assert rows[2].exponent == pytest.approx(binary_entropy(0.3), abs=1e-6)
