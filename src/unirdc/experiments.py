"""Reproducible experiment harness: worst-case parse sequences, first-hit
index statistics, ensemble failure decomposition, and the covering converse.

Every run is driven by an explicit seed list (or a master seed it is derived
from). The achievability and ensemble experiments are two reductions of one
seed sweep: workers receive disjoint seed chunks and return the first-hit
index of every source under every seed, and the chunks are joined in seed
order, so reports are bit-identical for a given config regardless of worker
count. The idealized index length that the achievability bound is tested
against, which needs a nominal codebook base, is accounted for here only;
the codec never sees it.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property, partial
from itertools import product

import numpy as np

from .codec import CodebookStream, _index_code_lengths, encode_streams
from .converse import (
    converse_length_bound,
    enumerate_type_class,
    greedy_cover,
    short_codeword_count,
    shortest_first_lengths,
)
from .core import (
    Alphabet, Block, EmpiricalDistribution, block_symbols, check_blocks_enumerable,
    check_enumerable, parse_rational, symbol_array,
)
from .distortion import _membership, spec_from_object
from .errors import PreconditionError
from .lz78 import lz_parse
from .universal import SphereMasses, build_universal_table, require_seed

__all__ = [
    "SCHEMA_VERSION",
    "ALPHA",
    "DEFAULT_MASTER_SEED",
    "derive_seed",
    "CountingSequence",
    "build_counting_sequence",
    "counting_length",
    "counting_phrases",
    "ExperimentConfig",
    "AchievabilityRow",
    "AchievabilityReport",
    "achievability_experiment",
    "EnsembleFailureReport",
    "ensemble_failure_experiment",
    "ConverseExperimentReport",
    "converse_experiment",
    "run_experiment",
    "dkw_band",
    "index_length_terms",
]

SCHEMA_VERSION = "1"
ALPHA = 0.01  # fixed significance for every statistical check
DEFAULT_MASTER_SEED = 77003917


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit child seed from a master seed and an index path."""
    h = hashlib.sha256()
    h.update(b"unirdc-seed")
    h.update((master & (1 << 128) - 1).to_bytes(16, "big"))
    for i in indices:
        h.update((i & (1 << 64) - 1).to_bytes(8, "big"))
    return int.from_bytes(h.digest()[:8], "big")


def dkw_band(trials: int, alpha: float = ALPHA) -> float:
    """Two-sided uniform CDF deviation allowed with probability 1 - alpha."""
    return math.sqrt(math.log(2 / alpha) / (2 * trials))


def index_length_terms(n: int, base: float) -> tuple[float, float]:
    """log2(n ln base + 1) and log2(ln base + 1). The idealized length of index
    i is log2 i plus the first; the achievability bound charges log2 n plus
    the second, which dominates the first for every n >= 1."""
    if base <= 1:
        raise PreconditionError("base must exceed 1")
    return math.log2(n * math.log(base) + 1), math.log2(math.log(base) + 1)


@dataclass(frozen=True)
class CountingSequence:
    """Concatenation of all words of lengths 1..depth in lexicographic order.

    Its incremental parse is exactly that word list, which makes it the
    classic worst case for the phrase count at its length.
    """

    depth: int
    alphabet_size: int
    block: Block
    phrase_count: int
    bit_length: int

    @property
    def length(self) -> int:
        return self.block.n

    @property
    def measured_epsilon(self) -> float:
        """Parse code length over the raw-rate floor n log2 K, minus one."""
        return self.bit_length / (self.length * math.log2(self.alphabet_size)) - 1.0


def counting_length(depth: int, alphabet_size: int) -> int:
    """Closed form for the sequence length."""
    k, m = alphabet_size, depth
    value = Fraction(k, (k - 1) ** 2) * (m * k ** (m + 1) - (m + 1) * k**m + 1)
    assert value.denominator == 1
    return int(value)


def counting_phrases(depth: int, alphabet_size: int) -> int:
    """Closed form for the phrase count."""
    k, m = alphabet_size, depth
    return (k ** (m + 1) - k) // (k - 1)


def build_counting_sequence(depth: int, alphabet_size: int) -> CountingSequence:
    if depth < 1:
        raise PreconditionError("depth must be positive")
    if alphabet_size < 2:
        raise PreconditionError("alphabet size must be at least 2")
    check_enumerable(counting_length(depth, alphabet_size), "counting sequence")
    symbols: list[int] = []
    for i in range(1, depth + 1):
        for word in product(range(alphabet_size), repeat=i):
            symbols.extend(word)
    block = Block(tuple(symbols))
    assert block.n == counting_length(depth, alphabet_size)
    parse = lz_parse(block, alphabet_size)
    assert parse.phrase_count == counting_phrases(depth, alphabet_size)
    assert not parse.final_is_duplicate
    return CountingSequence(
        depth=depth,
        alphabet_size=alphabet_size,
        block=block,
        phrase_count=parse.phrase_count,
        bit_length=parse.bit_length,
    )


@dataclass
class ExperimentConfig:
    """Inputs shared by the experiment drivers; JSON-round-trippable."""

    n: int
    source_alphabet: str = "01"
    repro_alphabet: str = "01"
    order: int = 1
    level: Fraction = Fraction(1, 4)
    distortion: dict = field(default_factory=lambda: {"kind": "hamming"})
    trials: int = 100
    master_seed: int = DEFAULT_MASTER_SEED
    seeds: tuple[int, ...] | None = None
    epsilon: float = 1.0
    base: float | None = None
    max_draws: int = 1 << 20
    mode: str = "exact"
    length_mode: str = "plain"
    slack_bits: float = 0.0
    type_counts: dict | None = None
    source_blocks: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"an experiment needs block length n >= 1, got {self.n}")
        self.level = parse_rational(self.level, f"cannot parse config level {self.level!r}")
        # every experiment would otherwise fail late, or pass vacuously
        if self.level < 0:
            raise PreconditionError(f"distortion level must be non-negative, got {self.level}")
        if not math.isfinite(self.epsilon):
            raise PreconditionError(f"epsilon must be finite, got {self.epsilon}")
        if self.source_blocks is not None and not self.source_blocks:
            raise PreconditionError("an experiment needs at least one source block")
        if self.jobs < 1:
            raise PreconditionError(f"an experiment needs jobs >= 1, got {self.jobs}")

    def spec(self):
        return spec_from_object(self.distortion, self.source_alphabet, self.repro_alphabet)

    def seed_list(self) -> list[int]:
        seeds = self.seeds
        if seeds is None:
            seeds = [derive_seed(self.master_seed, i) for i in range(self.trials)]
        if not seeds:
            raise PreconditionError("an experiment needs at least one seed")
        for seed in seeds:
            require_seed(seed)
        return list(seeds)

    def stream(self, seed: int) -> CodebookStream:
        return CodebookStream(
            seed=seed,
            n=self.n,
            alphabet_size=len(self.repro_alphabet),
            mode=self.mode,
            max_draws=self.max_draws,
            length_mode=self.length_mode,
        )

    @property
    def nominal_base(self) -> float:
        """Per-symbol codebook size assumed by the idealized index length.

        base when given, else twice the reproduction alphabet size. It must
        lie strictly between 1 and infinity; a base that does not exceed the
        reproduction alphabet size is allowed with a UserWarning, since the
        length accounting then loses its interpretation.
        """
        k = len(self.repro_alphabet)
        base = 2.0 * k if self.base is None else self.base
        if not 1 < base < math.inf:
            raise PreconditionError(f"nominal base must lie in (1, inf), got {base!r}")
        if base <= k:
            warnings.warn(
                "nominal codebook base does not exceed the reproduction alphabet size; "
                "the length accounting loses its interpretation",
                stacklevel=2,
            )
        return base

    def sources(self) -> np.ndarray:
        """source_blocks, else every block of length n, as a (sources x n) symbol array."""
        alpha = Alphabet(self.source_alphabet)
        if self.source_blocks is not None:
            blocks = [alpha.to_symbols(t) for t in self.source_blocks]
            return symbol_array(blocks, alpha.size, self.n)
        check_blocks_enumerable(alpha.size, self.n, f"enumerating {alpha.size}^{self.n} blocks")
        return block_symbols(np.arange(alpha.size**self.n), self.n, alpha.size)

    def to_json(self) -> str:
        data = {
            k: v
            for k, v in self.__dict__.items()
            if v is not None
        }
        data["level"] = str(self.level)
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text, parse_constant=_refuse_constant)
        except json.JSONDecodeError as e:
            raise PreconditionError(f"invalid config JSON: {e}")
        if not isinstance(data, dict):
            raise PreconditionError("config must be a JSON object")
        data.pop("experiment", None)
        data.pop("output", None)
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise PreconditionError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            if value is not None or cls.__dataclass_fields__[name].default is not None:
                _check_json_type(name, value, _FIELD_TYPES[name])
        for name, item_types in (("seeds", int), ("source_blocks", str)):
            if data.get(name) is not None:
                for item in data[name]:
                    _check_json_type(f"{name} entry", item, item_types)
                data[name] = tuple(data[name])
        return cls(**data)


# JSON types each config field accepts; None is accepted where it is the default
_NUMBER = (int, float)
_FIELD_TYPES = {
    "n": int,
    "source_alphabet": str,
    "repro_alphabet": str,
    "order": int,
    "level": (str, int, float),
    "distortion": dict,
    "trials": int,
    "master_seed": int,
    "seeds": list,
    "epsilon": _NUMBER,
    "base": _NUMBER,
    "max_draws": int,
    "mode": str,
    "length_mode": str,
    "slack_bits": _NUMBER,
    "type_counts": dict,
    "source_blocks": list,
    "jobs": int,
}


def _refuse_constant(name: str):
    raise PreconditionError(f"config JSON may not hold the non-JSON number {name}")


def _check_json_type(name: str, value, types) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise PreconditionError(
            f"config field {name!r} has the wrong type {type(value).__name__}"
        )


# how the reports print an infinite float, which JSON has no number for
_INFINITIES = {math.inf: "inf", -math.inf: "-inf"}


def _jsonable(value):
    """value as the reports print it, through dicts, lists and tuples: a
    Fraction as its text and an infinite float as "inf" or "-inf"."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return _INFINITIES[value]
    return value


@dataclass(frozen=True)
class AchievabilityRow:
    """Per-source-block statistics over all codebook seeds."""

    block: Block
    mass: Fraction
    neg_log2_mass: float
    trials: int
    escapes: int
    mean_log2_index: float
    se_log2_index: float
    index_mean_ok: bool
    dkw_sup: float
    dkw_ok: bool
    semifaithful_failures: int
    mean_actual_bits: float
    mean_theoretical_bits: float
    length_violation_fraction: float


@dataclass(frozen=True)
class AchievabilityReport:
    """Achievability statistics of every source, held as columns: one list
    per AchievabilityRow field, in field order. The block column holds each
    source's symbols, as the digits printed are not one-to-one past ten
    symbols, and the mass column each mass's text, as the writers print it.
    rows, with each mass as its Fraction, are built on first use; the
    writers never build them."""

    columns: dict
    dkw_eps: float
    alpha: float
    all_dkw_ok: bool
    all_index_mean_ok: bool
    all_semifaithful: bool
    length_violation_fraction: float
    config: dict
    schema_version: str = SCHEMA_VERSION

    @cached_property
    def rows(self) -> tuple[AchievabilityRow, ...]:
        columns = self.columns | {
            "block": map(Block, self.columns["block"]),
            "mass": map(Fraction, self.columns["mass"]),
        }
        return tuple(map(AchievabilityRow, *columns.values()))

    def _written_columns(self) -> dict:
        """The columns as both writers print them: a block as its symbols'
        digits and an infinite float as "inf" or "-inf"."""
        written = self.columns | {
            "block": ["".join(map(str, symbols)) for symbols in self.columns["block"]],
        }
        for name, column in written.items():
            if math.inf in column or -math.inf in column:
                written[name] = [_INFINITIES.get(v, v) for v in column]
        return written

    def to_json(self) -> str:
        head = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}
        written = self._written_columns()
        rows = [dict(zip(written, row)) for row in zip(*written.values())]
        return json.dumps(_jsonable(head) | {"rows": rows}, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        written = self._written_columns()
        w.writerow(written)
        w.writerows(zip(*written.values()))
        return out.getvalue()


def _sweep_chunk(cfg: ExperimentConfig, seeds: list[int], round_trip: bool):
    """Worker: the first-hit index of every source under every seed of a chunk.

    Returns an int64 (seeds x sources) array of indices, 0 for an escape, a
    bool array of the same shape that marks decoded blocks outside the
    budget, and the sources' masses as a SphereMasses, read off their sphere
    rows, built once for the chunk. An empty sphere raises
    UncodableInputError before any draw.
    Only with round_trip set are blocks decoded, by the coded batch's own
    decoded(): one within() call per group of seeds it yields tests them
    against the sources, never reading the sphere rows that chose the hits.
    """
    spec = cfg.spec()
    sources = cfg.sources()
    streams = [cfg.stream(seed) for seed in seeds]
    coded = encode_streams(sources, cfg.level, spec, streams, masses=True)
    failed = np.zeros(coded.first.shape, dtype=bool)
    if round_trip:
        inside = _membership(cfg.n, cfg.level, spec)
        for lo, decoded in coded.decoded(streams):
            failed[lo : lo + len(decoded)] = ~inside(sources, decoded)
    return coded.first, failed, coded.masses


def _process_pool(max_workers: int):
    """A ProcessPoolExecutor, imported only here: a serial run, and every CLI
    process that runs none, never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _sweep(cfg: ExperimentConfig, round_trip: bool):
    """First-hit indices and round-trip failures, (seeds x sources), seed order,
    and the sources' masses as a SphereMasses.

    The sweep runs on min(jobs, seeds, CPUs) workers: one runs in-process,
    and more are worker processes that each take one contiguous chunk of the
    seeds. The masses do not depend on the seeds and are taken from the
    first chunk.
    """
    seeds = cfg.seed_list()
    worker = partial(_sweep_chunk, round_trip=round_trip)
    workers = min(cfg.jobs, len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        results = [worker(cfg, seeds)]
    else:
        cuts = [len(seeds) * w // workers for w in range(workers + 1)]
        chunks = [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        with _process_pool(max_workers=workers) as pool:
            results = list(pool.map(worker, [cfg] * workers, chunks))
    firsts, fails, masses = zip(*results)
    return np.concatenate(firsts), np.concatenate(fails), masses[0]


def achievability_experiment(cfg: ExperimentConfig) -> AchievabilityReport:
    """First-hit index behaviour of the codec against exact sphere masses.

    For every source block and codebook seed, records the first-hit index,
    verifies the decoded block stays within the budget, and compares the
    index statistics against the geometric law implied by the exact sphere
    mass: a uniform CDF band for the tail, and the log-mean bound.
    """
    terms = index_length_terms(cfg.n, cfg.nominal_base)
    first, failed, masses = _sweep(cfg, round_trip=True)
    return _achievability_report(first, failed, masses, cfg, terms)


def _achievability_report(first, failed, masses, cfg, terms) -> AchievabilityReport:
    """The achievability report of a (seeds x sources) first-hit array, its
    round-trip failures, each source's mass and the index length terms. The
    masses are a SphereMasses or any sequence of SphereMass, and are read as
    arrays: no SphereMass is built.

    Every row statistic is an array reduction over all sources at once. One
    stable argsort of each source's indices gives its distinct indices, their
    counts and first occurrences. A float sum adds a source's distinct nonzero
    indices in order of first occurrence, and the sources with L such indices
    are summed as one C-contiguous (sources x L) matrix along its rows, which
    NumPy adds term for term as it adds each row alone; a zero-padded matrix
    of one width would group the terms differently. The empirical CDF is
    constant between distinct indices and the geometric CDF does not
    decrease, so the DKW sup is read at each distinct index v and at v - 1.
    """
    tl_const, c_const = terms
    masses = SphereMasses.of(masses)
    trials, count = first.shape
    eps_band = dkw_band(trials)
    by_source = np.ascontiguousarray(first.T)
    order = np.argsort(by_source, axis=1, kind="stable")
    ordered = by_source.ravel()[(order + np.arange(0, by_source.size, trials)[:, None]).ravel()]
    # one run per distinct index of a source, its entries in seed order
    fresh = np.ones(ordered.size, dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    fresh[::trials] = True
    starts = np.flatnonzero(fresh)
    counts = np.diff(starts, append=ordered.size)
    row, value = starts // trials, ordered[starts]
    escaped = value == 0
    escapes = np.zeros(count, dtype=np.int64)
    escapes[row[escaped]] = counts[escaped]
    hit = ~escaped
    row, value, counts, starts = row[hit], value[hit], counts[hit], starts[hit]

    # the empirical CDF below v and at v, against 1 - (1 - p)^g at g = v - 1 and v
    below = starts - row * trials - escapes[row]
    keep = (1.0 - masses.floats())[row]
    dev = np.maximum(
        np.abs(below / trials - (1.0 - keep ** (value - 1))),
        np.abs((below + counts) / trials - (1.0 - keep**value)),
    )
    dkw_sup = np.zeros(count)
    np.maximum.at(dkw_sup, row, dev)

    # the hits of each source in order of first occurrence, and its slots
    # grouped by their number
    seq = np.argsort(row * trials + order.ravel()[starts], kind="stable")
    value, counts = value[seq], counts[seq]
    distinct = np.bincount(row, minlength=count)
    offset = np.cumsum(distinct) - distinct
    groups = []
    # not np.unique, whose hash path keeps a 1 MiB table for the process's life
    for width in (np.flatnonzero(np.bincount(distinct)[1:]) + 1).tolist():
        members = np.flatnonzero(distinct == width)
        groups.append((members, offset[members][:, None] + np.arange(width)))

    hits = trials - escapes
    scored = hits > 0
    per_hit = np.maximum(hits, 1)

    def mean(weighted, empty):
        total = np.zeros(count)
        for members, slots in groups:
            total[members] = weighted[slots].sum(axis=1)
        return np.where(scored, total / per_hit, empty)

    neg_log2 = masses.neg_log2()
    logs = np.log2(value.astype(float))
    mean_log = mean(logs * counts, math.inf)
    var_log = mean(counts * (logs - mean_log[row]) ** 2, 0.0)
    se = np.sqrt(var_log / per_hit)
    index_ok = (escapes == 0) & (mean_log <= neg_log2 + 3 * se + 1e-12)
    actual = (1 + _index_code_lengths(value)).astype(float)
    theo_bits = logs + tl_const
    bound = neg_log2 + (2 + cfg.epsilon) * math.log2(cfg.n) + c_const + cfg.slack_bits
    over = theo_bits > bound[row]
    viol = np.bincount(row[over], weights=counts[over], minlength=count).astype(np.int64)
    viol += escapes
    dkw_ok = dkw_sup <= eps_band
    columns = (
        cfg.sources().tolist(),
        masses.texts(),
        neg_log2.tolist(),
        [trials] * count,
        escapes.tolist(),
        mean_log.tolist(),
        se.tolist(),
        index_ok.tolist(),
        dkw_sup.tolist(),
        dkw_ok.tolist(),
        failed.sum(axis=0).tolist(),
        mean(actual * counts, math.inf).tolist(),
        mean(theo_bits * counts, math.inf).tolist(),
        (viol / trials).tolist(),
    )
    return AchievabilityReport(
        columns=dict(zip([f.name for f in fields(AchievabilityRow)], columns)),
        dkw_eps=eps_band,
        alpha=ALPHA,
        all_dkw_ok=bool(dkw_ok.all()),
        all_index_mean_ok=bool(index_ok.all()),
        all_semifaithful=not failed.any(),
        length_violation_fraction=int(viol.sum()) / (trials * count),
        config=json.loads(cfg.to_json()),
    )


@dataclass(frozen=True)
class EnsembleFailureReport:
    """Two-term decomposition of ensemble risk over codebook seeds."""

    coverage_failure_rate: float
    length_overshoot_mean: float
    trials: int
    per_seed_failures: int
    config: dict
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.__dict__), sort_keys=True)


def ensemble_failure_experiment(cfg: ExperimentConfig) -> EnsembleFailureReport:
    """Estimate the chance any block misses the codebook, plus length excess.

    Term one is the fraction of seeds for which some source block finds no
    codeword within the draw budget; term two is the mean over seeds of the
    worst per-block length overshoot past the padded per-block bound,
    clamped at zero.
    """
    tl_const, c_const = index_length_terms(cfg.n, cfg.nominal_base)
    pad = (1 + cfg.epsilon) * math.log2(cfg.n)
    first, _, masses = _sweep(cfg, round_trip=False)
    plus = masses.neg_log2() + math.log2(cfg.n) + c_const
    # log2 of each distinct index, an escape charged the last one the budget allows
    drawn, at = np.unique(first, return_inverse=True)
    logs = np.array([math.log2(i or cfg.max_draws) for i in drawn.tolist()])
    excess = logs[at].reshape(first.shape) + tl_const - plus - pad
    overshoots = excess.max(axis=1, initial=0.0).tolist()
    fails = int((first == 0).any(axis=1).sum())
    return EnsembleFailureReport(
        coverage_failure_rate=fails / len(first),
        length_overshoot_mean=sum(overshoots) / len(first),
        trials=len(first),
        per_seed_failures=fails,
        config=json.loads(cfg.to_json()),
    )


@dataclass(frozen=True)
class ConverseExperimentReport:
    """Covering bound versus a concrete codebook and length assignment."""

    min_codebook_size: Fraction | None
    greedy_size: int
    fraction_long: float
    fraction_guarantee: float
    fraction_ok: bool
    short_count: int
    short_bound: int
    identity_ok: bool
    delta_per_symbol: float
    base_slack_per_symbol: float
    tree_nodes: int
    type_log_size_slack: float
    bound_bits: float
    config: dict
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.__dict__), sort_keys=True)


def _type_distribution(cfg: ExperimentConfig) -> EmpiricalDistribution:
    if cfg.order < 1 or cfg.n < 2:
        raise PreconditionError(f"need order >= 1 and n >= 2, got order {cfg.order}, n {cfg.n}")
    if cfg.n % cfg.order:  # before any K^order listing of chunk kinds
        raise PreconditionError(f"order {cfg.order} does not divide n {cfg.n}")
    alpha = Alphabet(cfg.source_alphabet)
    chunks = cfg.n // cfg.order
    if cfg.type_counts is not None:
        if not isinstance(cfg.type_counts, dict):
            raise PreconditionError("type counts must map chunk text to a count")
        counts = {}
        for text, count in cfg.type_counts.items():
            if len(text) != cfg.order:
                raise PreconditionError(f"type chunk {text!r} has the wrong order")
            _check_json_type("type_counts entry", count, int)
            if count < 0:
                raise PreconditionError(f"type count {count} is negative")
            counts[tuple(alpha.index(ch) for ch in text)] = count
        return EmpiricalDistribution(cfg.order, cfg.n, counts)
    cells = alpha.size**cfg.order
    if chunks % cells:
        raise PreconditionError(
            "no balanced default type at this n and order; supply type_counts"
        )
    share = chunks // cells
    counts = {
        tup: share for tup in product(range(alpha.size), repeat=cfg.order)
    }
    return EmpiricalDistribution(cfg.order, cfg.n, counts)


def converse_experiment(cfg: ExperimentConfig) -> ConverseExperimentReport:
    """Check the covering bound against a greedy codebook for one type class.

    identity_ok is true in every returned report: the covering bound raises
    unless double counting holds at the best cover type. The covering bound,
    the sphere mass at the class's first member and the greedy cover all read
    the class's one cover matrix, one sphere row per class member. Epsilon,
    the type and the table size are checked before the class is listed.
    """
    if not cfg.epsilon > 0:  # short_codeword_count's refusal, before any work
        raise PreconditionError("need n >= 1 and epsilon > 0")
    spec = cfg.spec()
    source_type = _type_distribution(cfg)
    table = build_universal_table(cfg.n, spec.repro_size, cfg.length_mode)
    source_class = enumerate_type_class(source_type)
    rep = converse_length_bound(source_class, cfg.level, spec, cfg.epsilon, table)
    greedy = greedy_cover(source_class, cfg.level, spec)
    lengths = shortest_first_lengths(greedy.size)
    scb = short_codeword_count(greedy.size, cfg.n, cfg.epsilon)
    # greedy covered every member, so some sphere meets the class and M0 exists
    threshold = math.log2(rep.min_codebook_size) - cfg.epsilon * math.log2(cfg.n)
    fraction_long = sum(1 for length in lengths if length >= threshold) / greedy.size
    short = sum(1 for length in lengths if length <= scb.threshold_bits)
    return ConverseExperimentReport(
        min_codebook_size=rep.min_codebook_size,
        greedy_size=greedy.size,
        fraction_long=fraction_long,
        fraction_guarantee=scb.fraction_guarantee,
        fraction_ok=fraction_long >= scb.fraction_guarantee,
        short_count=short,
        short_bound=scb.max_count,
        identity_ok=True,
        delta_per_symbol=rep.delta_per_symbol,
        base_slack_per_symbol=rep.base_slack_per_symbol,
        tree_nodes=rep.tree_nodes,
        type_log_size_slack=rep.type_log_size_slack,
        bound_bits=rep.bound_bits,
        config=json.loads(cfg.to_json()),
    )


def run_experiment(name: str, cfg: ExperimentConfig):
    """Dispatch by experiment name; used by the command line front end."""
    if name == "achievability":
        return achievability_experiment(cfg)
    if name == "ensemble_failure":
        return ensemble_failure_experiment(cfg)
    if name == "converse":
        return converse_experiment(cfg)
    raise PreconditionError(f"unknown experiment {name!r}")
