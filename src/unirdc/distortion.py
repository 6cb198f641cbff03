"""Distortion measures, distortion spheres, and witness search.

Three kinds of measure are supported: additive per-letter matrices, functionals
of the first-order joint type (scaled by n), and arbitrary callables. The first
two depend on the pair only through its joint type, which is what the covering
machinery requires; arbitrary callables are rejected there. Per-letter matrices
with integer or rational entries give exact integer/Fraction distortions, so
sphere membership tests never touch floats. sphere_rows tests all K^n
reproductions around source centers; within() tests given pairs of blocks,
such as drawn codewords, callable rows and reverse spheres.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    Alphabet,
    Block,
    EmpiricalDistribution,
    block_symbols,
    blocks_at,
    check_blocks_enumerable,
    joint_empirical_distribution,
    parse_rational,
    symbol_array,
)
from .errors import EnumerationCapError, PreconditionError

__all__ = [
    "DistortionSpec",
    "per_letter",
    "hamming",
    "joint_type_spec",
    "callable_spec",
    "squared_disagreement",
    "distortion",
    "within",
    "sphere_rows",
    "sphere_indicator",
    "enumerate_sphere",
    "enumerate_reverse_sphere",
    "find_witness",
    "spec_from_object",
    "spec_from_json",
    "spec_to_json",
    "load_spec",
]

PER_LETTER = "per_letter_matrix"
JOINT_TYPE = "joint_type_functional"
CALLABLE = "arbitrary_callable"


def _exact(value):
    """Normalize a matrix entry to int or Fraction, keeping integers integral."""
    if isinstance(value, bool):
        raise PreconditionError("matrix entries must be numbers")
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, float, str)):
        f = parse_rational(value, f"matrix entry {value!r} is not a finite rational")
        return int(f) if f.denominator == 1 else f
    raise PreconditionError(f"cannot interpret matrix entry {value!r}")


@dataclass(frozen=True)
class DistortionSpec:
    """A distortion measure together with its source/reproduction alphabets."""

    kind: str
    source: Alphabet
    repro: Alphabet
    matrix: tuple[tuple[object, ...], ...] | None = None
    functional: Callable | None = None
    fn: Callable | None = None

    @property
    def source_size(self) -> int:
        return self.source.size

    @property
    def repro_size(self) -> int:
        return self.repro.size

    @property
    def first_order_only(self) -> bool:
        """True when the measure depends only on the first-order joint type."""
        return self.kind in (PER_LETTER, JOINT_TYPE)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(scale, costs) of a per-letter matrix: scale is the common
        denominator of its entries and costs[a][b] is matrix[a][b] * scale,
        an exact Python int. Worked out once per spec; the matrix is
        immutable."""
        scale = math.lcm(*(Fraction(v).denominator for row in self.matrix for v in row))
        return scale, tuple(tuple(int(v * scale) for v in row) for row in self.matrix)


def per_letter(matrix, source: Alphabet, repro: Alphabet) -> DistortionSpec:
    if not isinstance(matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in matrix
    ):
        raise PreconditionError("a per-letter matrix must be a list of rows")
    rows = tuple(tuple(_exact(v) for v in row) for row in matrix)
    if len(rows) != source.size or any(len(r) != repro.size for r in rows):
        raise PreconditionError("matrix shape must be source size by repro size")
    for row in rows:
        for v in row:
            if v < 0:
                raise PreconditionError("matrix entries must be non-negative")
    return DistortionSpec(kind=PER_LETTER, source=source, repro=repro, matrix=rows)


def hamming(source: Alphabet, repro: Alphabet | None = None) -> DistortionSpec:
    """0/1 per-letter measure; indices agree means zero distortion."""
    repro = repro or source
    matrix = [[0 if i == j else 1 for j in range(repro.size)] for i in range(source.size)]
    return per_letter(matrix, source, repro)


def joint_type_spec(functional: Callable, source: Alphabet, repro: Alphabet) -> DistortionSpec:
    """Distortion n * functional(joint first-order type of the pair)."""
    return DistortionSpec(kind=JOINT_TYPE, source=source, repro=repro, functional=functional)


def callable_spec(fn: Callable, source: Alphabet, repro: Alphabet) -> DistortionSpec:
    """Fully general pairwise distortion; excluded from type-based machinery."""
    return DistortionSpec(kind=CALLABLE, source=source, repro=repro, fn=fn)


def _disagreement_squared(joint: EmpiricalDistribution):
    agree = Fraction(0)
    for (a, b), p in joint.probs().items():
        if a == b:
            agree += p
    return (1 - agree) ** 2


def squared_disagreement(source: Alphabet, repro: Alphabet | None = None) -> DistortionSpec:
    """Built-in non-additive fixture: n * (disagreement rate) squared."""
    return joint_type_spec(_disagreement_squared, source, repro or source)


def distortion(x: Block, xhat: Block, spec: DistortionSpec):
    """Evaluate the measure; exact (int/Fraction) for the exact kinds."""
    if x.n != xhat.n:
        raise PreconditionError("blocks must have equal length")
    if x.n == 0:
        raise PreconditionError("blocks must be nonempty")
    x.validate(spec.source_size)
    xhat.validate(spec.repro_size)
    if spec.kind == PER_LETTER:
        m = spec.matrix
        return sum(m[a][b] for a, b in zip(x.symbols, xhat.symbols))
    if spec.kind == JOINT_TYPE:
        joint = joint_empirical_distribution(x, xhat, 1)
        return x.n * spec.functional(joint)
    return spec.fn(x, xhat)


def _budget(n: int, level) -> Fraction:
    level = Fraction(level)
    if level < 0:
        raise PreconditionError("distortion level must be non-negative")
    return n * level


_INT64_MAX = int(np.iinfo(np.int64).max)
# Largest (centers x K^n) bool array of sphere rows one sphere_rows call builds.
_ROW_BYTES_CAP = 1 << 30


def _fold(table: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """(len(letters), K^L) totals: row j holds the total cost of every block
    of L letters, in lexicographic order, against the L letters letters[j].
    Row a of table holds the cost of each enumerated letter facing letter a;
    one column of letters is folded in at a time, for every row at once."""
    totals = np.zeros((len(letters), 1), dtype=table.dtype)
    for column in letters.T:
        totals = (totals[:, :, None] + table[column][:, None, :]).reshape(len(letters), -1)
    return totals


def _costs(n: int, level, spec: DistortionSpec):
    """(table, limit): the integer cost table of a first-order measure for
    blocks of n letters, and the largest total inside the budget.

    table[a, b] costs source letter a against reproduction letter b. A
    per-letter matrix costs spec.scaled, and limit is floor(n * level *
    scale), negative when nothing is inside. A joint-type measure costs
    (n+1)^(a * |repro| + b), so a pair's total is its joint type's counts
    read as a base-(n+1) number, a key of that type; limit is then None. The
    table is int64 when n times its largest entry fits, and exact Python ints
    (object dtype) otherwise.
    """
    if spec.kind == PER_LETTER:
        scale, costs = spec.scaled
        limit = math.floor(n * Fraction(level) * scale)
    else:
        cells = np.arange(spec.source_size * spec.repro_size, dtype=object)
        costs = (n + 1) ** cells.reshape(spec.source_size, spec.repro_size)
        limit = None
    top = max(map(max, costs)) * n
    table = np.array(costs, dtype=np.int64 if top <= _INT64_MAX else object)
    # the clamp keeps the limit within int64 for int64 totals: NumPy before
    # 2.0 may not subtract a larger Python int from them exactly
    return table, None if limit is None else min(limit, top)


def _judge(keys: np.ndarray, pairs, budget, spec: DistortionSpec, inside: dict) -> np.ndarray:
    """Whether each joint-type key of the array keys is within the budget, as
    a bool array of its shape.

    inside maps a key to its verdict. distortion() runs once per distinct key
    not yet in it, on the first pair that has it: pairs(first) yields the
    (source, reproduction) Blocks at the first flat position of each
    distinct key, in increasing key order.
    """
    distinct, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    distinct = distinct.tolist()
    for key, pair in zip(distinct, pairs(first)):
        if key not in inside:
            inside[key] = distortion(*pair, spec) <= budget
    return np.array([inside[key] for key in distinct])[inverse].reshape(keys.shape)


def within(xs, ys, level, spec: DistortionSpec) -> np.ndarray:
    """Whether each source block of xs lies within total distortion n * level
    of the reproduction block of ys that it faces.

    xs and ys are integer symbol arrays (..., n) that broadcast against each
    other; the result is a bool array of their broadcast shape less the last
    axis. Two (blocks x n) arrays test pair by pair (a round trip), and
    (centers x 1 x n) against (1 x draws x n) tests every draw against every
    center (a scan). The verdicts are those of distortion(): see _membership.
    """
    xs = symbol_array(xs, spec.source_size)
    return _membership(xs.shape[-1], level, spec)(xs, ys)


def _membership(n: int, level, spec: DistortionSpec):
    """within() for blocks of n letters, as a function of (xs, ys) alone.

    A per-letter matrix gathers its spec.scaled costs one position at a time
    into one total per pair, so no array larger than the broadcast shape is
    held (never centers x draws x n), and compares the totals with
    floor(n * level * scale). A joint-type measure gathers the keys of
    sphere_rows the same way, and distortion() runs once per distinct key,
    on the first pair that has it; the function keeps those verdicts, so
    every call through it judges a key once. A callable measure makes one
    Block per row of xs and of ys and takes one distortion() per pair.
    """
    budget = n * Fraction(level)
    if spec.kind != CALLABLE:
        table, limit = _costs(n, level, spec)
    inside = {}  # joint-type key -> within the budget

    def test(xs, ys) -> np.ndarray:
        xs = symbol_array(xs, spec.source_size, n)
        ys = symbol_array(ys, spec.repro_size, n)
        shape = np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1])
        if not shape:
            return test(xs[None], ys[None])[0]
        if spec.kind == CALLABLE:
            xblocks, yblocks = ([Block(r) for r in a.reshape(-1, n).tolist()] for a in (xs, ys))
            at = (np.arange(a.size // n).reshape(a.shape[:-1]) for a in (xs, ys))
            pairs = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*at)))
            out = [distortion(xblocks[i], yblocks[j], spec) <= budget for i, j in pairs]
            return np.array(out, dtype=bool).reshape(shape)
        if limit is not None and limit < 0:
            return np.zeros(shape, dtype=bool)
        totals = np.zeros(shape, dtype=table.dtype)
        for j in range(n):
            totals += table[xs[..., j], ys[..., j]]
        if limit is not None:
            return totals <= limit

        def pairs(first):
            at = np.unravel_index(first, shape)
            xb, yb = np.broadcast_to(xs, shape + (n,)), np.broadcast_to(ys, shape + (n,))
            return zip(map(Block, xb[at].tolist()), map(Block, yb[at].tolist()))

        return _judge(totals, pairs, budget, spec, inside)

    return test


def sphere_rows(centers, level, spec: DistortionSpec) -> np.ndarray:
    """Sphere membership of every block around each center, one row per center.

    centers is a (count x n) integer symbol array, one center's symbols per row.
    Entry (r, i) is True when the reproduction block with the base-K digits
    of i lies within total distortion n * level of centers[r]. A negative
    level gives empty spheres. Rows of more than _ROW_BYTES_CAP bytes in all
    raise EnumerationCapError before anything is allocated.

    A first-order measure folds the integer costs of _costs, the ones within()
    gathers: the first h = n // 2 letters of a center over the K^h heads and
    the others over the K^(n-h) tails, all centers' halves together, one NumPy
    op per position. For a per-letter matrix, block i = head * K^(n-h) + tail
    is inside when its tail total is at most the limit less its head total.
    For a joint-type measure a block's total keys its joint type with the
    center, and distortion() runs once per distinct key of the call, on the
    first block that has it; only these keys total whole blocks, one center at
    a time. A callable measure's rows are within() against every block.
    """
    centers = symbol_array(centers, spec.source_size)
    if centers.ndim != 2 or not len(centers):
        raise PreconditionError("need at least one sphere center, one per row")
    count, n = centers.shape
    k = spec.repro_size
    check_blocks_enumerable(k, n, "sphere scan")
    if count * k**n > _ROW_BYTES_CAP:
        raise EnumerationCapError(
            f"sphere rows for {count} centers need {count} x {k}^{n} bytes, "
            f"above the ceiling of {_ROW_BYTES_CAP}"
        )
    if spec.kind == CALLABLE:
        return _membership(n, level, spec)(centers[:, None], block_symbols(np.arange(k**n), n, k))
    budget = n * Fraction(level)
    rows = np.zeros((count, k**n), dtype=bool)
    table, limit = _costs(n, level, spec)
    if limit is not None and limit < 0:
        return rows
    h = n // 2
    heads = _fold(table, centers[:, :h])
    tails = _fold(table, centers[:, h:])
    if limit is None:
        inside = {}  # key -> within the budget, for every row of the call
        for row, c, head, tail in zip(rows, map(Block, centers.tolist()), heads, tails):
            def pairs(first, c=c):
                return ((c, b) for b in blocks_at(first, n, k))
            row[:] = _judge(np.add.outer(head, tail).ravel(), pairs, budget, spec, inside)
        return rows
    np.less_equal(
        tails[:, None, :], (limit - heads)[:, :, None], out=rows.reshape(count, k**h, k ** (n - h))
    )
    return rows


def sphere_indicator(center, level, spec: DistortionSpec) -> np.ndarray:
    """Sphere membership of every block around one center (a Block or one row
    of a symbol array), in lexicographic order: the one row of sphere_rows."""
    return sphere_rows([center], level, spec)[0]


def enumerate_sphere(x: Block, level, spec: DistortionSpec) -> list[Block]:
    """All reproduction blocks within total distortion n * level of x."""
    _budget(x.n, level)  # rejects a negative level
    inside = np.flatnonzero(sphere_indicator(x, level, spec))
    return blocks_at(inside, x.n, spec.repro_size)


def enumerate_reverse_sphere(xhat: Block, level, spec: DistortionSpec) -> list[Block]:
    """All source blocks within total distortion n * level of xhat, by within()."""
    _budget(xhat.n, level)  # rejects a negative level
    n, k = xhat.n, spec.source_size
    check_blocks_enumerable(k, n, "sphere scan")
    inside = within(block_symbols(np.arange(k**n), n, k), [xhat.symbols], level, spec)
    return blocks_at(np.flatnonzero(inside), n, k)


def find_witness(x, level, spec: DistortionSpec) -> Block | None:
    """Some reproduction block within the budget of x (a Block or one row of a
    symbol array), or None if the sphere is empty.

    For per-letter measures the per-position argmin minimizes the additive
    total, so the greedy choice decides emptiness without enumeration; it
    takes the first argmin of each row of the scaled costs, which is that of
    the matrix. Other kinds return the lexicographically first block of the
    sphere, under the cap.
    """
    budget = _budget(len(x), level)
    if spec.kind == PER_LETTER:
        scale, costs = spec.scaled
        best = [min(range(spec.repro_size), key=row.__getitem__) for row in costs]
        if sum(costs[a][best[a]] for a in x) > budget * scale:
            return None
        return Block(tuple(best[a] for a in x))
    inside = sphere_indicator(x, level, spec)
    first = int(inside.argmax())
    return blocks_at([first], len(x), spec.repro_size)[0] if inside[first] else None


def spec_from_object(data, source: str = "01", repro: str | None = None) -> DistortionSpec:
    """The measure of a parsed distortion JSON object: its kind, its matrix
    and its alphabets.

    An object with an "alphabets" key takes its alphabets from there, the
    source defaulting to "01" and the reproduction to the source. Any other
    object takes the caller's source and repro symbols, repro defaulting to
    source.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise PreconditionError("distortion JSON must be an object with a 'kind'")
    alphabets = data.get("alphabets", {"source": source, "repro": repro or source})
    if not isinstance(alphabets, dict):
        raise PreconditionError("distortion JSON 'alphabets' must be an object")
    source = alphabets.get("source", "01")
    repro = alphabets.get("repro", source)
    if not (isinstance(source, str) and isinstance(repro, str)):
        raise PreconditionError("distortion JSON alphabets must be strings")
    source, repro = Alphabet(source), Alphabet(repro)
    kind = data["kind"]
    if kind == PER_LETTER:
        if "matrix" not in data:
            raise PreconditionError("per-letter distortion JSON needs a matrix")
        return per_letter(data["matrix"], source, repro)
    if kind == "hamming":
        return hamming(source, repro)
    if kind == JOINT_TYPE and data.get("functional") == "squared_disagreement":
        return squared_disagreement(source, repro)
    raise PreconditionError(f"unsupported distortion kind {kind!r} in JSON")


def spec_from_json(text: str) -> DistortionSpec:
    """Parse the JSON wire form: kind, matrix, and source/repro alphabets,
    binary where the text names none."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"invalid distortion JSON: {e}")
    return spec_from_object(data)


def spec_to_json(spec: DistortionSpec) -> str:
    """The JSON wire form that spec_from_json reads back."""
    alphabets = {"source": spec.source.symbols, "repro": spec.repro.symbols}
    if spec.kind == PER_LETTER:
        matrix = [[str(v) for v in row] for row in spec.matrix]
        return json.dumps({"kind": PER_LETTER, "matrix": matrix, "alphabets": alphabets})
    if spec.kind == JOINT_TYPE and spec.functional is _disagreement_squared:
        return json.dumps(
            {"kind": JOINT_TYPE, "functional": "squared_disagreement", "alphabets": alphabets}
        )
    raise PreconditionError("only per-letter and squared_disagreement specs serialize to JSON")


def load_spec(path: str) -> DistortionSpec:
    with open(path, "r", encoding="utf-8") as f:
        return spec_from_json(f.read())
