"""Type classes, double counting, covering lower bounds, and length converses.

A type class collects every block sharing one empirical distribution of
aligned chunks. For distortion measures that depend only on the first-order
joint type, sphere sizes are constant over a type class, which yields an
exact double-counting identity and an exact rational covering lower bound.
Every covering count is a sum over one cover matrix, the sphere rows of the
class members: row j is member j's sphere over all reproduction blocks in
lexicographic order, so column i lists the members block i covers. The class
keeps its matrix (TypeClass.cover), so every converse function asked about
one class at one level and measure reads the same rows.
The length-converse report, taken for a type class its caller holds, folds
the parse-length overhead terms into a single per-symbol slack, all reported
rather than asserted tight.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement, product

import numpy as np

from .core import (
    Block,
    EmpiricalDistribution,
    block_indices,
    blocks_at,
    check_blocks_enumerable,
    check_enumerable,
    empirical_distribution,
)
from .distortion import DistortionSpec, sphere_rows
from .errors import PreconditionError, UncoverableError, UnirdcError
from .lz78 import parse_overhead
from .universal import UniversalTable, row_mass

__all__ = [
    "TypeClass",
    "ConverseBoundReport",
    "GreedyCover",
    "ShortCodewordBound",
    "DoubleCountingResult",
    "multinomial",
    "enumerate_type_class",
    "all_type_classes",
    "double_counting_check",
    "covering_lower_bound",
    "greedy_cover",
    "short_codeword_count",
    "shortest_first_lengths",
    "tree_node_count",
    "length_slack_terms",
    "converse_length_bound",
]


def multinomial(total: int, counts) -> int:
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


@dataclass(frozen=True)
class TypeClass:
    """All blocks sharing one aligned-chunk empirical distribution, one per
    row of symbols in lexicographic order. Classes compare and hash by their
    distributions; members builds the Blocks on first use, and cover the
    sphere rows."""

    distribution: EmpiricalDistribution
    symbols: np.ndarray = field(compare=False, repr=False)

    @property
    def cardinality(self) -> int:
        return len(self.symbols)

    @cached_property
    def members(self) -> tuple[Block, ...]:
        return tuple(map(Block, self.symbols.tolist()))

    def cover(self, level, spec: DistortionSpec) -> np.ndarray:
        """The cover matrix, sphere_rows of the members, read-only.

        The class keeps the matrix of the last (level, measure) asked for, so
        it lives as long as the class does; equal measures built separately
        share it. The size cap is checked on every call, so a lowered cap
        refuses a kept matrix as it would a new one.
        """
        check_blocks_enumerable(spec.repro_size, self.distribution.n, "sphere scan")
        kept = self.__dict__.get("_cover")
        if kept is None or kept[0] != (level, spec):
            rows = sphere_rows(self.symbols, level, spec)
            rows.flags.writeable = False
            kept = self.__dict__["_cover"] = (level, spec), rows
        return kept[1]


def enumerate_type_class(dist: EmpiricalDistribution) -> TypeClass:
    """Materialize the class of a chunk distribution, in lexicographic order.

    One chunk position at a time, every prefix is extended by each chunk kind
    it has left, in sorted order, and the members are read back from each
    position's picks through their parent prefixes.
    """
    if dist.is_joint:
        raise PreconditionError("type classes are built from single-block distributions")
    size = multinomial(dist.n // dist.order, dist.counts.values())
    check_enumerable(size, "type class")
    kinds = sorted(chunk for chunk, count in dist.counts.items() if count)
    narrow = np.min_scalar_type(size), np.min_scalar_type(len(kinds))
    left, levels = np.array([[dist.counts[c] for c in kinds]]), []
    for _ in range(dist.n // dist.order):
        parent, pick = np.nonzero(left)
        left = left[parent]
        left[np.arange(len(parent)), pick] -= 1
        levels.append((parent.astype(narrow[0]), pick.astype(narrow[1])))
    picks, at = np.empty((size, len(levels)), dtype=narrow[1]), np.arange(size)
    for depth in reversed(range(len(levels))):
        parent, pick = levels[depth]
        picks[:, depth], at = pick[at], parent[at]
    chunks = np.array(kinds, dtype=np.min_scalar_type(max(map(max, kinds), default=0)))
    symbols = chunks[picks].reshape(size, dist.n)
    symbols.flags.writeable = False  # members, once built, must keep matching it
    return TypeClass(distribution=dist, symbols=symbols)


def all_type_classes(n: int, order: int, alphabet_size: int) -> list[TypeClass]:
    """Every class of length-n blocks by order-chunk distribution.

    A class's lexicographically first member is its chunks in sorted order, so
    walking the sorted chunk multisets in lexicographic order lists the
    classes in the order a lexicographic scan of all blocks first meets them.
    """
    if n < 1 or order < 1 or n % order:
        raise PreconditionError(f"need n >= 1 and an order dividing it, got n {n}, order {order}")
    if alphabet_size < 2:
        raise PreconditionError("alphabet size must be at least 2")
    check_blocks_enumerable(alphabet_size, n, f"enumerating {alphabet_size}^{n} blocks")
    chunks = product(range(alphabet_size), repeat=order)
    return [
        enumerate_type_class(EmpiricalDistribution(order, n, dict(Counter(multiset))))
        for multiset in combinations_with_replacement(chunks, n // order)
    ]


@dataclass(frozen=True)
class DoubleCountingResult:
    ok: bool
    constant_forward: bool
    constant_reverse: bool
    forward_size: int
    reverse_size: int
    detail: str = ""


def double_counting_check(
    source_class: TypeClass, repro_class: TypeClass, level, spec: DistortionSpec
) -> DoubleCountingResult:
    """Verify |source class| * |repro class in sphere| is symmetric exactly.

    Both counts must also be constant over the respective classes, which is
    what makes the covering bound well defined. Requires a measure that
    depends only on the first-order joint type.
    """
    _require_joint_type(spec)
    if repro_class.distribution.n != source_class.distribution.n:
        raise PreconditionError("classes must share the block length")
    cover = source_class.cover(level, spec)[:, block_indices(repro_class.symbols, spec.repro_size)]
    forward = cover.sum(axis=1).tolist()
    reverse = cover.sum(axis=0).tolist()
    constant_forward = len(set(forward)) == 1
    constant_reverse = len(set(reverse)) == 1
    lhs = source_class.cardinality * forward[0]
    rhs = repro_class.cardinality * reverse[0]
    ok = constant_forward and constant_reverse and lhs == rhs
    detail = "" if ok else (
        f"forward={forward[:8]} reverse={reverse[:8]} lhs={lhs} rhs={rhs}"
    )
    return DoubleCountingResult(
        ok=ok,
        constant_forward=constant_forward,
        constant_reverse=constant_reverse,
        forward_size=forward[0],
        reverse_size=reverse[0],
        detail=detail,
    )


@dataclass(frozen=True)
class ConverseBoundReport:
    """Everything the covering and length converses produce for one setting.

    min_codebook_size is the exact rational covering lower bound (None when no
    candidate covers any member), and best_cover_class the type class of the
    first reproduction block that covers the most members. The slack fields
    decompose the per-symbol overhead subtracted from the sphere-mass bound;
    they are reported, not asserted tight, and at small n they dominate the
    bound.
    """

    min_codebook_size: Fraction | None = None
    best_cover_class: TypeClass | None = None
    max_covered: int = 0
    delta_per_symbol: float = 0.0
    base_slack_per_symbol: float = 0.0
    tree_nodes: int = 0
    epsilon: float = 0.0
    bound_bits: float = 0.0
    sphere_mass_bits: float = 0.0
    type_log_size_slack: float = 0.0
    slack_terms: dict = field(default_factory=dict)

    @property
    def best_cover_type(self) -> EmpiricalDistribution | None:
        return None if self.best_cover_class is None else self.best_cover_class.distribution


def _require_joint_type(spec: DistortionSpec) -> None:
    """Refuse a measure the covering bounds cannot use."""
    if not spec.first_order_only:
        raise PreconditionError("covering bounds need a joint-type-based measure")


def covering_lower_bound(
    source_class: TypeClass, level, spec: DistortionSpec
) -> ConverseBoundReport:
    """Exact covering lower bound |class| / (densest reverse sphere).

    Counts the class members each reproduction block covers (the column sums
    of the cover matrix) and keeps the type of the first maximizer. The bound
    is verified against the double-counting identity, read from the same
    matrix at that type's class, before returning; that class is reported.
    """
    _require_joint_type(spec)
    covered = source_class.cover(level, spec).sum(axis=0)
    best_i = int(covered.argmax())
    best = int(covered[best_i])
    if best == 0:
        return ConverseBoundReport(min_codebook_size=None, best_cover_class=None)

    bound = Fraction(source_class.cardinality, best)
    best_xhat = blocks_at([best_i], source_class.distribution.n, spec.repro_size)[0]
    repro_class = enumerate_type_class(
        empirical_distribution(best_xhat, source_class.distribution.order)
    )
    # cross-check through the identity on the same matrix: the bound must equal
    # the repro class size over the forward sphere size, for every member
    check = double_counting_check(source_class, repro_class, level, spec)
    if not check.ok or Fraction(repro_class.cardinality, check.forward_size) != bound:
        raise AssertionError(f"covering bound failed its identity cross-check: {check}")
    return ConverseBoundReport(
        min_codebook_size=bound, best_cover_class=repro_class, max_covered=best
    )


@dataclass(frozen=True)
class GreedyCover:
    codebook: tuple[Block, ...]
    covered_per_step: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.codebook)


def greedy_cover(source_class: TypeClass, level, spec: DistortionSpec) -> GreedyCover:
    """Greedy set cover of the class by reproduction-block spheres.

    Candidates are all reproduction blocks in lexicographic order; ties go to
    the earlier candidate, so the result is deterministic.
    """
    cover = source_class.cover(level, spec)
    uncoverable = np.flatnonzero(~cover.any(axis=1))
    if uncoverable.size:
        member = source_class.members[int(uncoverable[-1])]
        raise UncoverableError(
            f"member {member.symbols} is outside every candidate sphere", member=member
        )
    # covered[i] counts the still uncovered members that candidate i covers
    covered = cover.sum(axis=0)
    uncovered = np.ones(source_class.cardinality, dtype=bool)
    chosen, gains = [], []
    # every step covers at least one more member, so |class| steps suffice
    while uncovered.any() and len(chosen) < source_class.cardinality:
        i = int(covered.argmax())
        chosen.append(i)
        gains.append(int(covered[i]))
        newly = uncovered & cover[:, i]
        covered -= cover[newly].sum(axis=0)
        uncovered &= ~newly
    if uncovered.any():
        raise UnirdcError(
            f"greedy cover left {int(uncovered.sum())} members uncovered after "
            f"{len(chosen)} steps: the candidate counts went stale"
        )
    codebook = blocks_at(chosen, source_class.distribution.n, spec.repro_size)
    return GreedyCover(codebook=tuple(codebook), covered_per_step=tuple(gains))


@dataclass(frozen=True)
class ShortCodewordBound:
    max_count: int
    bound: float
    fraction_guarantee: float
    threshold_bits: float


def short_codeword_count(codebook_size: int, n: int, epsilon: float) -> ShortCodewordBound:
    """Cap on codewords at most log2 M - epsilon log2 n bits long.

    Any one-to-one binary assignment has at most 2^(t+1) - 1 strings of length
    at most t, so at least a 1 - 2 n^-epsilon fraction of the codebook must be
    longer than the threshold.
    """
    if codebook_size < 1:
        raise PreconditionError("codebook size must be positive")
    if n < 1 or not epsilon > 0:
        raise PreconditionError("need n >= 1 and epsilon > 0")
    threshold = math.log2(codebook_size) - epsilon * math.log2(n)
    bound = 2.0 ** (threshold + 1) - 1
    return ShortCodewordBound(
        max_count=max(0, math.floor(bound)),
        bound=bound,
        fraction_guarantee=1 - 2 * n ** (-epsilon),
        threshold_bits=threshold,
    )


def shortest_first_lengths(count: int) -> list[int]:
    """Lengths of the first count nonempty binary strings, shortest first."""
    return [(j + 1).bit_length() - 1 for j in range(1, count + 1)]


def tree_node_count(source_size: int, order: int) -> int:
    """Nodes of the complete source-ary tree of depth order, exactly."""
    j = source_size
    return (j ** (order + 1) - 1) // (j - 1)


def length_slack_terms(
    n: int, source_size: int, repro_size: int, order: int, one_minus_eps: float = 1.0
) -> dict:
    """All per-symbol slack contributions folded into the length converse.

    The dictionary keeps each printed term separate, including both scaled
    chunk-count corrections, which enter once inside the base slack and once
    alongside it; both are surfaced instead of being merged.
    """
    eps = parse_overhead(n, repro_size, one_minus_eps)  # rejects n < 2 before log2 n
    if order < 1 or n % order != 0:
        raise PreconditionError(f"order {order} must divide n {n}")
    s = tree_node_count(source_size, order)
    s2 = s * s
    log_4s2 = math.log2(4 * s2)
    chunk_term = (repro_size**order / n) * math.log2(n / order + 1)
    base = (
        log_4s2 * math.log2(repro_size) / (one_minus_eps * math.log2(n))
        + s2 * log_4s2 / n
        + chunk_term
        + 1.0 / order
    )
    total = eps + base + chunk_term / n
    return {
        "parse_overhead": eps,
        "base_slack": base,
        "chunk_term_inside": chunk_term,
        "chunk_term_outside": chunk_term / n,
        "tree_nodes": s,
        "delta_per_symbol": total,
    }


def converse_length_bound(
    source_class: TypeClass,
    level,
    spec: DistortionSpec,
    epsilon: float,
    table: UniversalTable,
) -> ConverseBoundReport:
    """Full length-converse report for one source type class.

    Combines the exact covering bound for the class, the sphere-mass bound
    from the universal table at the class's first member x, and the
    per-symbol slack terms at the class's order into
    bound_bits = -log2 mass - n * slack - epsilon * log2 n. Also measures the
    worst gap between log2 |best cover class| and the parse lengths of its
    members after the slack, a quantity reported with its sign intact. All of
    it is read off the class's cover matrix, the mass at x from row 0.
    """
    _require_joint_type(spec)
    table.require_fit(source_class.distribution.n, spec.repro_size)
    report = covering_lower_bound(source_class, level, spec)
    n, order = source_class.distribution.n, source_class.distribution.order
    terms = length_slack_terms(n, spec.source_size, spec.repro_size, order)
    delta = terms["delta_per_symbol"]
    mass_bits = row_mass(source_class.cover(level, spec)[0], table).neg_log2_mass()
    bound = mass_bits - n * delta - epsilon * math.log2(n)

    slack = math.inf
    if report.best_cover_class is not None:
        # the gap falls as the parse length grows: the longest member sets it
        repro_class = report.best_cover_class
        bits = table.bits[block_indices(repro_class.symbols, spec.repro_size)]
        slack = math.log2(repro_class.cardinality) - (int(bits.max()) - n * delta)
    return replace(
        report,
        delta_per_symbol=delta,
        base_slack_per_symbol=terms["base_slack"],
        tree_nodes=terms["tree_nodes"],
        epsilon=epsilon,
        bound_bits=bound,
        sphere_mass_bits=mass_bits,
        type_log_size_slack=slack,
        slack_terms=terms,
    )
