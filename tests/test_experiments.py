import csv
import hashlib
import importlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from dataclasses import fields, replace
from fractions import Fraction

from unirdc import (
    BINARY,
    Alphabet,
    Block,
    ExperimentConfig,
    PreconditionError,
    UncodableInputError,
    UncoverableError,
    achievability_experiment,
    build_counting_sequence,
    callable_spec,
    converse_experiment,
    converse_length_bound,
    empirical_distribution,
    enumerate_type_class,
    EnumerationCapError,
    SphereMass,
    hamming,
    counting_length,
    counting_phrases,
    derive_seed,
    dkw_band,
    ensemble_failure_experiment,
    lz_parse,
    run_experiment,
)
from unirdc import build_universal_table, codec, experiments, sphere_mass
from unirdc.universal import SphereMasses
from unirdc import converse as converse_module

universal_module = importlib.import_module("unirdc.universal")


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def test_dkw_band_value():
    assert dkw_band(1000) == pytest.approx(math.sqrt(math.log(2 / 0.01) / 2000))
    assert dkw_band(1000) == pytest.approx(0.0514700, abs=1e-6)
    assert dkw_band(4000) == dkw_band(1000) / 2


def test_counting_closed_forms():
    for m in (1, 2, 3, 4):
        for k in (2, 3):
            n = counting_length(m, k)
            c = counting_phrases(m, k)
            assert n == k * (m * k ** (m + 1) - (m + 1) * k**m + 1) // (k - 1) ** 2
            assert c == (k ** (m + 1) - k) // (k - 1)
    assert counting_length(2, 2) == 10 and counting_phrases(2, 2) == 6
    assert counting_length(1, 2) == 2 and counting_phrases(1, 2) == 2


def test_counting_sequence_blocks():
    seq = build_counting_sequence(1, 2)
    assert seq.block.symbols == (0, 1)
    for m in (1, 2, 3, 4):
        seq = build_counting_sequence(m, 2)
        assert seq.length == counting_length(m, 2)
        assert seq.phrase_count == counting_phrases(m, 2)
        p = lz_parse(seq.block, 2)
        assert p.phrase_count == seq.phrase_count
        assert not p.final_is_duplicate
        # phrases are exactly all words of length <= m in lexicographic order
        words = [
            tuple(int(b) for b in format(i, f"0{l}b"))
            for l in range(1, m + 1)
            for i in range(2**l)
        ]
        assert list(p.phrase_strings()) == words
        assert seq.measured_epsilon > 0


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        n=6,
        level=Fraction(1, 6),
        trials=9,
        seeds=(4, 5, 6),
        type_counts={"0": 3, "1": 3},
        source_blocks=("010101",),
    )
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.level == Fraction(1, 6)


def test_float_level_reads_as_its_shortest_repr():
    # 0.3 is 3/10, not the double just below it, so the blocks at distance 3
    # of a balanced n=10 source stay inside the budget
    reports = [
        converse_experiment(ExperimentConfig.from_json(json.dumps({"n": 10, "level": level})))
        for level in (0.3, "3/10")
    ]
    for rep in reports:
        assert (rep.min_codebook_size, rep.greedy_size) == (Fraction(42, 11), 7)
    assert reports[0].to_json() == reports[1].to_json()
    assert ExperimentConfig(n=4, level=0.1).level == Fraction(1, 10)


def test_config_rejects_unknown_fields():
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_json('{"n": 4, "mystery_knob": 1}')


def test_config_ignores_driver_keys():
    cfg = ExperimentConfig.from_json('{"experiment": "converse", "n": 4, "output": "x"}')
    assert cfg.n == 4


def test_achievability_deterministic():
    cfg = ExperimentConfig(
        n=4, level=Fraction(1, 4), trials=1, master_seed=44, source_blocks=("0110",)
    )
    assert achievability_experiment(cfg).to_json() == achievability_experiment(cfg).to_json()


def test_achievability_parallel_matches_serial():
    cfg1 = ExperimentConfig(n=4, level=Fraction(1, 4), trials=40, master_seed=9, jobs=1)
    cfg4 = ExperimentConfig(n=4, level=Fraction(1, 4), trials=40, master_seed=9, jobs=4)
    r1, r4 = achievability_experiment(cfg1), achievability_experiment(cfg4)
    assert [vars(a) for a in r1.rows] == [vars(b) for b in r4.rows]
    assert r1.length_violation_fraction == r4.length_violation_fraction


def test_achievability_full_sphere():
    cfg = ExperimentConfig(n=4, level=1, trials=5, master_seed=44)
    rep = achievability_experiment(cfg)
    for row in rep.rows:
        assert row.mean_actual_bits == 2.0  # escape flag + the code for index 1
        assert row.mean_log2_index == 0.0
        assert row.escapes == 0
    assert rep.all_semifaithful
    assert rep.schema_version == "1"


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
@pytest.mark.parametrize("dist", ["hamming", "squared_disagreement"])
def test_round_trip_check_sees_a_corrupted_decode(monkeypatch, mode, dist):
    # at level 0 only the source itself is inside its sphere, so one shifted
    # symbol puts the decoded block outside; a check that read the sphere
    # rows which chose the hit would miss it
    distortion = {"kind": "hamming"} if dist == "hamming" else {
        "kind": "joint_type_functional", "functional": "squared_disagreement"}
    cfg = ExperimentConfig(
        n=4, level=0, trials=6, master_seed=5, mode=mode, distortion=distortion
    )
    clean = achievability_experiment(cfg)
    assert clean.all_semifaithful
    assert [row.semifaithful_failures for row in clean.rows] == [0] * 16
    replay = codec._replay

    def shifted(indices, stream, out):
        replay(indices, stream, out)
        out[3, 1] ^= 1

    monkeypatch.setattr(codec, "_replay", shifted)
    rep = achievability_experiment(cfg)
    assert not rep.all_semifaithful
    assert [row.semifaithful_failures for row in rep.rows] == [0, 0, 0, 6] + [0] * 12


def test_achievability_uncodable_level(monkeypatch):
    # both sweeps refuse the level before any codeword is drawn
    monkeypatch.setattr(codec.CodebookStream, "sampler", lambda self: pytest.fail("drew"))
    cfg = ExperimentConfig(
        n=3,
        source_alphabet="abc",
        repro_alphabet="01",
        level=Fraction(1, 3),
        trials=2,
        distortion={"kind": "per_letter_matrix",
                    "matrix": [[1, 2], [2, 1], [1, 1]]},
    )
    for run in (achievability_experiment, ensemble_failure_experiment):
        with pytest.raises(UncodableInputError):
            run(cfg)


def test_achievability_report_serialization():
    cfg = ExperimentConfig(n=4, level=Fraction(1, 4), trials=10, master_seed=3,
                           source_blocks=("0011", "0101"))
    rep = achievability_experiment(cfg)
    data = json.loads(rep.to_json())
    assert data["schema_version"] == "1"
    assert len(data["rows"]) == 2
    assert rep.to_csv() == (
        "block,mass,neg_log2_mass,trials,escapes,mean_log2_index,se_log2_index,"
        "index_mean_ok,dkw_sup,dkw_ok,semifaithful_failures,mean_actual_bits,"
        "mean_theoretical_bits,length_violation_fraction\r\n"
        "0011,3/10,1.736965594166206,10,0,1.6714245517666122,0.3319340679092864,"
        "True,0.257,True,0,5.3,4.381856856970058,0.0\r\n"
        "0101,3/10,1.736965594166206,10,0,1.5977279923499916,0.23190745008296368,"
        "True,0.21000000000000002,True,0,5.2,4.308160297553437,0.0\r\n"
    )


def test_ensemble_full_sphere_never_fails():
    cfg = ExperimentConfig(n=4, level=1, trials=20, master_seed=2, max_draws=1000)
    rep = ensemble_failure_experiment(cfg)
    assert rep.coverage_failure_rate == 0.0
    assert rep.length_overshoot_mean == 0.0
    assert rep.trials == 20


def test_ensemble_parallel_matches_serial():
    cfg1 = ExperimentConfig(n=6, level=Fraction(1, 6), trials=30, master_seed=5, max_draws=40)
    cfg2 = ExperimentConfig(
        n=6, level=Fraction(1, 6), trials=30, master_seed=5, max_draws=40, jobs=2
    )
    r1, r2 = ensemble_failure_experiment(cfg1), ensemble_failure_experiment(cfg2)
    assert 0 < r1.per_seed_failures < r1.trials
    assert {**vars(r1), "config": None} == {**vars(r2), "config": None}
    assert r1.config | {"jobs": 2} == r2.config


# A sweep with escapes and positive overshoots; the values were taken from
# the code that kept per-source index histograms and per-seed worker rows.
_PINNED_SWEEP = dict(
    n=6, level=Fraction(1, 6), trials=30, master_seed=4, max_draws=30, epsilon=-1.5
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_ensemble_report_is_pinned(jobs):
    rep = ensemble_failure_experiment(ExperimentConfig(**_PINNED_SWEEP, jobs=jobs))
    assert rep.per_seed_failures == 28
    assert rep.coverage_failure_rate == 0.9333333333333333
    assert rep.length_overshoot_mean == 2.479077700455814


@pytest.mark.parametrize(
    "jobs, digest",
    [
        (1, "f84fc886daab847fc90301ba34459eed7c8581766ba2abec25f6c20c8bdb7652"),
        (2, "76a178b052fd4a1bf7cb2a86991cc8cb06c730cc2d171a5cfebc6e0b958bca1a"),
    ],
)
def test_ensemble_report_json_is_pinned(jobs, digest):
    rep = ensemble_failure_experiment(ExperimentConfig(**_PINNED_SWEEP, jobs=jobs))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_achievability_csv_is_pinned(jobs):
    rep = achievability_experiment(ExperimentConfig(**_PINNED_SWEEP, jobs=jobs))
    assert sum(r.escapes for r in rep.rows) == 143
    assert hashlib.sha256(rep.to_csv().encode()).hexdigest() == (
        "21a1b3f9d11762b145182d9543bd90b78a8a405eb9be7ec8082af9c845d42ebb"
    )


def _reference_achievability(first, failed, masses, cfg, dkw=True):
    """The per-source loop that computed the achievability rows before they
    became array reductions, kept as their oracle. It is mended in one place:
    a source that escapes under every seed has DKW sup 0, where the loop's
    empty bincount raised. dkw=False skips the DKW sup, whose dense grid over
    0..max index cannot reach indices near 2^62."""
    tl_const, c_const = experiments.index_length_terms(cfg.n, cfg.nominal_base)
    trials = len(first)
    eps_band = dkw_band(trials)
    rows = []
    total_viol = 0
    total_samples = 0
    blocks = map(Block, cfg.sources().tolist())
    for x, m, column, bad in zip(blocks, masses, first.T, failed.T):
        keys, at, counts = np.unique(column, return_index=True, return_counts=True)
        order = np.argsort(at)
        keys, counts = keys[order], counts[order]
        escapes = int(counts[keys == 0].sum())
        values, counts = keys[keys != 0], counts[keys != 0]
        neg_log2 = m.neg_log2_mass()
        logs = np.log2(values.astype(float))
        m_eff = int(counts.sum())
        mean_log = float((logs * counts).sum() / m_eff) if m_eff else math.inf
        var_log = (
            float((counts * (logs - mean_log) ** 2).sum() / m_eff) if m_eff else 0.0
        )
        se = math.sqrt(var_log / m_eff) if m_eff else 0.0
        index_ok = escapes == 0 and mean_log <= neg_log2 + 3 * se + 1e-12

        dkw_sup = None
        if dkw:
            p = float(m.mass)
            max_i = int(values.max()) if m_eff else 0
            dkw_sup = abs(0.0)
            if max_i:  # the loop raised here when every seed escaped
                grid = np.arange(0, max_i + 1)
                emp = np.cumsum(np.bincount(values, weights=counts, minlength=max_i + 1))
                emp /= trials
                theo = 1.0 - (1.0 - p) ** grid
                dkw_sup = float(np.max(np.abs(emp - theo)))

        actual = np.array(
            [1 + codec.index_code_length(v) for v in values.tolist()], dtype=float
        )
        mean_actual = float((actual * counts).sum() / m_eff) if m_eff else math.inf
        theo_bits = logs + tl_const
        mean_theo = float((theo_bits * counts).sum() / m_eff) if m_eff else math.inf
        bound = neg_log2 + (2 + cfg.epsilon) * math.log2(cfg.n) + c_const + cfg.slack_bits
        viol = int(((theo_bits > bound) * counts).sum()) + escapes
        total_viol += viol
        total_samples += trials
        rows.append(
            experiments.AchievabilityRow(
                block=x,
                mass=m.mass,
                neg_log2_mass=neg_log2,
                trials=trials,
                escapes=escapes,
                mean_log2_index=mean_log,
                se_log2_index=se,
                index_mean_ok=index_ok,
                dkw_sup=dkw_sup,
                dkw_ok=dkw_sup <= eps_band if dkw else None,
                semifaithful_failures=int(bad.sum()),
                mean_actual_bits=mean_actual,
                mean_theoretical_bits=mean_theo,
                length_violation_fraction=viol / trials if trials else 0.0,
            )
        )
    return rows, total_viol / total_samples


def _assert_matches_reference(first, failed, masses, cfg, dkw=True):
    terms = experiments.index_length_terms(cfg.n, cfg.nominal_base)
    rep = experiments._achievability_report(first, failed, masses, cfg, terms)
    want_rows, want_viol = _reference_achievability(first, failed, masses, cfg, dkw)
    assert rep.length_violation_fraction.hex() == want_viol.hex()
    assert len(rep.rows) == len(want_rows)
    skip = () if dkw else ("dkw_sup", "dkw_ok")
    for got, want in zip(rep.rows, want_rows):
        for f in fields(experiments.AchievabilityRow):
            if f.name in skip:
                continue
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            assert (a.hex() == b.hex()) if type(a) is float else (a == b), (f.name, a, b)
    return rep


def _synthetic(rng, trials, n, top, masses):
    """A (trials x 2^n) first-hit array with per-source index ranges, random
    round-trip failures and the given masses, one per source."""
    sources = 2**n
    first = rng.integers(0, np.asarray(top) + 1, size=(trials, sources))
    failed = rng.random((trials, sources)) < 0.1
    masses = [SphereMass(Fraction(m), 1, 1) for m in masses]
    cfg = ExperimentConfig(n=n, trials=trials, epsilon=-1.5, slack_bits=0.25)
    return first, failed, masses, cfg


def _random_masses(rng, count):
    return [Fraction(int(rng.integers(1, 50)), int(rng.integers(50, 4000))) for _ in range(count)]


def test_achievability_rows_match_the_loop_with_escapes():
    rng = np.random.default_rng(1)
    first, failed, masses, cfg = _synthetic(
        rng, 30, 3, [1, 2, 0, 5, 9, 0, 40, 3], _random_masses(rng, 8)
    )
    first[:, 4] = 0  # every seed escapes
    rep = _assert_matches_reference(first, failed, masses, cfg)
    escapes = [r.escapes for r in rep.rows]
    assert escapes[2] == escapes[4] == escapes[5] == 30 and 0 < escapes[0] < 30
    assert rep.rows[4].mean_log2_index == math.inf and rep.rows[4].dkw_sup == 0.0


def test_achievability_runs_when_a_source_escapes_under_every_seed():
    cfg = ExperimentConfig(n=6, level=Fraction(1, 6), trials=1, master_seed=4, max_draws=2)
    report = achievability_experiment(cfg)
    rows = report.rows
    lost = [r for r in rows if r.escapes == r.trials]
    assert 0 < len(lost) < len(rows)
    assert all(r.dkw_sup == 0.0 and r.mean_log2_index == math.inf for r in lost)
    # JSON has no infinity, so the report writes the string "inf"
    text = report.to_json()
    assert "Infinity" not in text
    written = [w["mean_log2_index"] for r, w in zip(rows, json.loads(text)["rows"]) if r in lost]
    assert written == ["inf"] * len(lost)


def test_achievability_rows_match_the_loop_on_one_seed():
    rng = np.random.default_rng(2)
    _assert_matches_reference(*_synthetic(rng, 1, 4, 3, _random_masses(rng, 16)))


def test_achievability_rows_match_the_loop_past_eight_distinct_indices():
    # NumPy's pairwise sum regroups its terms from nine on
    rng = np.random.default_rng(3)
    top = [2, 9, 17, 60, 200, 500, 1500, 4000]
    first, failed, masses, cfg = _synthetic(rng, 300, 3, top, _random_masses(rng, 8))
    rep = _assert_matches_reference(first, failed, masses, cfg)
    assert max(len(set(column.tolist()) - {0}) for column in first.T) > 100
    assert any(r.length_violation_fraction > 0 for r in rep.rows)


def test_achievability_rows_match_the_loop_at_the_extreme_masses():
    # mass 1, the whole space, and masses below 2^-50
    rng = np.random.default_rng(4)
    tiny = [Fraction(1, 2**51 + 7), Fraction(3, 2**60 + 1)]
    first, failed, masses, cfg = _synthetic(rng, 40, 2, [1, 1, 90000, 400000], [1, 1, *tiny])
    first[:, 0] = 1
    rep = _assert_matches_reference(first, failed, masses, cfg)
    assert rep.rows[0].dkw_sup == 0.0 and rep.rows[0].neg_log2_mass == 0.0


def test_achievability_rows_match_the_loop_near_two_to_the_62():
    # exact integer bit lengths: 2^62 - 1 has 62 bits, while its float log2 is 62.0
    rng = np.random.default_rng(5)
    first, failed, masses, cfg = _synthetic(rng, 20, 2, 0, [Fraction(1, 2**62)] * 4)
    near = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**62 - 2**10, 0]
    first[:] = rng.choice(np.array(near, dtype=np.int64), size=first.shape)
    rep = _assert_matches_reference(first, failed, masses, cfg, dkw=False)
    assert all(0.0 <= r.dkw_sup <= 1.0 for r in rep.rows)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "settings",
    [_PINNED_SWEEP, {**_PINNED_SWEEP, "mode": "bitfeed"}, dict(n=4, level=1, trials=7)],
    ids=["pinned", "bitfeed", "level-1"],
)
def test_achievability_rows_match_the_loop_on_a_sweep(settings, jobs):
    cfg = ExperimentConfig(**settings, jobs=jobs)
    first, failed, masses = experiments._sweep(cfg, round_trip=True)
    rep = _assert_matches_reference(first, failed, masses, cfg)
    assert rep.to_json() == achievability_experiment(cfg).to_json()


def _row_jsonable(value):
    """The report's value conversion as it was while the writers went row by
    row, Blocks included."""
    kind = type(value)
    if kind in (float, int, bool, str, type(None)) and (kind is not float or not math.isinf(value)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Block):
        return "".join(str(s) for s in value.symbols)
    if isinstance(value, dict):
        return {str(k): _row_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_row_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _row_by_row_writers(report, rows):
    """The JSON and CSV text the row-by-row writers made of a report's fields
    and a tuple of AchievabilityRows, kept as the column writers' oracle."""
    head = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "columns"}
    text = json.dumps(_row_jsonable(head | {"rows": [r.__dict__ for r in rows]}), sort_keys=True)
    out = io.StringIO()
    w = csv.writer(out)
    names = [f.name for f in fields(experiments.AchievabilityRow)]
    w.writerow(names)
    for r in rows:
        w.writerow([_row_jsonable(getattr(r, name)) for name in names])
    return text, out.getvalue()


_TERNARY_RATIONAL = {"kind": "per_letter_matrix",
                     "matrix": [[0, "1/2", 1], ["1/2", 0, "1/3"], [1, "1/3", 0]]}


@pytest.mark.parametrize(
    "settings, infinite",
    [
        pytest.param(dict(n=6, level=Fraction(1, 6), trials=1, master_seed=4, max_draws=2),
                     True, id="every-seed-escapes"),
        pytest.param({**_PINNED_SWEEP, "mode": "bitfeed"}, False, id="bitfeed"),
        pytest.param(dict(n=5, source_alphabet="012", repro_alphabet="012",
                          level=Fraction(1, 4), trials=9, distortion=_TERNARY_RATIONAL,
                          length_mode="capped", max_draws=50),
                     False, id="ternary-rational-capped"),
        pytest.param(dict(n=6, level=Fraction(1, 6), trials=12, master_seed=7,
                          distortion={"kind": "joint_type_functional",
                                      "functional": "squared_disagreement"}),
                     False, id="squared-disagreement"),
        pytest.param({**_PINNED_SWEEP, "jobs": 2}, False, id="jobs-2"),
    ],
)
def test_column_writers_match_the_row_by_row_writers(settings, infinite):
    cfg = ExperimentConfig(**settings)
    first, failed, masses = experiments._sweep(cfg, round_trip=True)
    rep = _assert_matches_reference(first, failed, masses, cfg)
    want_rows = _reference_achievability(first, failed, masses, cfg)[0]
    assert rep.rows == tuple(want_rows)
    want = _row_by_row_writers(rep, want_rows)
    assert (rep.to_json(), rep.to_csv()) == want
    # a source that escapes under every seed has infinite means, written "inf"
    assert ('"mean_log2_index": "inf"' in want[0] and ",inf," in want[1]) == infinite
    assert achievability_experiment(cfg) == rep


def test_column_writers_print_symbols_past_nine_as_the_row_writers_did():
    # a twelve-letter source alphabet: the block text is not one-to-one, so
    # the block column keeps each source's symbols and rows still get them
    rng = np.random.default_rng(6)
    cfg = ExperimentConfig(n=2, source_alphabet="0123456789ab", trials=5)
    first = rng.integers(0, 6, size=(5, 144))
    failed = rng.random((5, 144)) < 0.1
    masses = [SphereMass(m, 1, 1) for m in _random_masses(rng, 144)]
    masses[7] = SphereMass(Fraction(0), 0, None)  # an infinite -log2 mass
    rep = _assert_matches_reference(first, failed, masses, cfg)
    assert rep.rows[11 * 12 + 10].block == Block((11, 10))
    assert rep.columns["neg_log2_mass"][7] == math.inf
    assert (rep.to_json(), rep.to_csv()) == _row_by_row_writers(rep, rep.rows)


def test_config_refuses_jobs_below_one():
    for jobs in (0, -1):
        with pytest.raises(PreconditionError, match="jobs"):
            ExperimentConfig(n=4, jobs=jobs)


@pytest.mark.parametrize("run", [achievability_experiment, ensemble_failure_experiment])
def test_sweep_builds_each_sphere_row_once(monkeypatch, run):
    calls = _count_sphere_rows(monkeypatch, ("unirdc.codec",))
    counts = []
    for trials in (20, 60):
        calls.clear()
        run(ExperimentConfig(n=6, level=Fraction(1, 6), trials=trials, max_draws=40))
        counts.append(len(calls))
    # one row per source for every seed of the one chunk, masses included
    assert counts[0] == counts[1] == 2**6


def test_sweep_masses_are_the_sphere_masses():
    cfg = ExperimentConfig(
        n=4, source_alphabet="012", repro_alphabet="012", level=Fraction(1, 4), trials=3,
        distortion={"kind": "per_letter_matrix",
                    "matrix": [[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]]},
    )
    spec = cfg.spec()
    table = build_universal_table(cfg.n, 3, cfg.length_mode)
    _, _, masses = experiments._sweep(cfg, round_trip=False)
    want = [sphere_mass(x, cfg.level, spec, table) for x in cfg.sources()]
    assert [m.mass for m in masses] == [m.mass for m in want]
    assert all(isinstance(m.mass, Fraction) for m in masses)
    assert masses == tuple(want)
    rep = achievability_experiment(cfg)
    assert [r.mass for r in rep.rows] == [m.mass for m in want]


@pytest.mark.parametrize(
    "settings",
    [_PINNED_SWEEP, {**_PINNED_SWEEP, "mode": "bitfeed"},
     dict(n=5, source_alphabet="012", repro_alphabet="012", level=Fraction(1, 4), trials=9,
          distortion=_TERNARY_RATIONAL, length_mode="capped", max_draws=50)],
    ids=["pinned", "bitfeed", "ternary-rational-capped"],
)
def test_a_parallel_report_is_the_serial_report(settings):
    # the masses come back from a worker pickled, and print the same bytes
    reps = [achievability_experiment(ExperimentConfig(**settings, jobs=jobs)) for jobs in (1, 2)]
    assert reps[1].config == reps[0].config | {"jobs": 2}
    assert reps[1].to_csv() == reps[0].to_csv()
    assert replace(reps[1], config=reps[0].config).to_json() == reps[0].to_json()


def test_the_sweep_builds_no_sphere_mass(monkeypatch):
    # masses stay arrays from row_mass to the written report
    cfg = ExperimentConfig(**_PINNED_SWEEP)
    want = achievability_experiment(cfg).to_json(), ensemble_failure_experiment(cfg).to_json()

    def refuse(*args, **kwargs):
        raise AssertionError("a SphereMass was built")

    monkeypatch.setattr(universal_module, "SphereMass", refuse)
    got = achievability_experiment(cfg).to_json(), ensemble_failure_experiment(cfg).to_json()
    assert got == want


def _loop_overshoot_mean(first, masses, cfg):
    """The per-(seed, source) loop that computed the ensemble's length
    overshoot before it became array arithmetic, kept as its oracle."""
    tl_const, c_const = experiments.index_length_terms(cfg.n, cfg.nominal_base)
    pad = (1 + cfg.epsilon) * math.log2(cfg.n)
    plus = [m.neg_log2_mass() + math.log2(cfg.n) + c_const for m in masses]
    overshoots = []
    for row in first.tolist():
        excess = [
            math.log2(i or cfg.max_draws) + tl_const - lplus - pad
            for i, lplus in zip(row, plus)
        ]
        overshoots.append(max([0.0, *excess]))
    return sum(overshoots) / len(first)


@pytest.mark.parametrize("seed", [7, 8])
def test_ensemble_overshoot_matches_the_loop(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    first, failed, masses, cfg = _synthetic(rng, 50, 4, [1, 3, 70, 0, 900] * 3 + [5000],
                                            _random_masses(rng, 16))
    masses[2] = SphereMass(Fraction(1), 16, 1)  # -log2 mass 0
    cfg.max_draws = 6000
    cfg.epsilon = -2.0 if seed == 7 else 0.5
    swept = first, failed, SphereMasses.of(masses)  # _sweep returns a SphereMasses
    monkeypatch.setattr(experiments, "_sweep", lambda cfg, round_trip: swept)
    rep = ensemble_failure_experiment(cfg)
    want = _loop_overshoot_mean(first, masses, cfg)
    assert rep.length_overshoot_mean.hex() == want.hex()
    assert rep.length_overshoot_mean > 0 and rep.per_seed_failures == int((first == 0).any(1).sum())


def test_ensemble_builds_no_messages(monkeypatch):
    built = []
    for name in ("_index_message", "_witness_payload"):
        real = getattr(codec, name)
        monkeypatch.setattr(codec, name, lambda *a, real=real: built.append(a) or real(*a))
    rep = ensemble_failure_experiment(ExperimentConfig(**_PINNED_SWEEP))
    assert rep.per_seed_failures == 28  # escapes taken, yet no witness built
    assert built == []


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_the_round_trip_builds_no_index_message(monkeypatch, mode):
    # each seed's row of first hits is replayed as an array, an escaping
    # source's witness message is built once, and every seed opens a second
    # fresh sampler for its replay, so the decode never reuses the scan's draws
    built = {"_index_message": 0, "_witness_payload": 0}
    for name in built:
        real = getattr(codec, name)

        def spy(*a, name=name, real=real):
            built[name] += 1
            return real(*a)

        monkeypatch.setattr(codec, name, spy)
    opened = []
    sampler = codec.CodebookStream.sampler
    monkeypatch.setattr(
        codec.CodebookStream, "sampler", lambda self: opened.append(self.seed) or sampler(self)
    )
    cfg = ExperimentConfig(**_PINNED_SWEEP, mode=mode)
    rep = achievability_experiment(cfg)
    assert built["_index_message"] == 0
    assert built["_witness_payload"] == sum(row.escapes > 0 for row in rep.rows) > 0
    assert sorted(opened) == sorted(cfg.seed_list() * 2)


def test_the_round_trip_judges_one_group_of_seeds_per_mask(monkeypatch):
    cfg = ExperimentConfig(**_PINNED_SWEEP)
    judged = []
    membership = experiments._membership

    def spied(*a):
        inside = membership(*a)
        return lambda xs, ys: judged.append(ys.shape) or inside(xs, ys)

    monkeypatch.setattr(experiments, "_membership", spied)
    whole = achievability_experiment(cfg)
    assert judged == [(30, 64, 6)]  # one within() call for the chunk's 30 seeds
    judged.clear()
    monkeypatch.setattr(codec, "_MASK_BYTES", 1)  # below one seed's blocks
    assert achievability_experiment(cfg).to_json() == whole.to_json()
    assert judged == [(1, 64, 6)] * 30


@pytest.mark.parametrize("base", [0.1, 0, 1, math.inf, math.nan])
@pytest.mark.parametrize("run", [achievability_experiment, ensemble_failure_experiment])
def test_bad_base_is_refused_before_the_sweep(monkeypatch, run, base):
    swept = []
    monkeypatch.setattr(experiments, "_sweep", lambda *args: swept.append(args))
    with pytest.raises(PreconditionError):
        run(ExperimentConfig(n=4, level=Fraction(1, 4), trials=3, base=base))
    assert swept == []


@pytest.mark.parametrize("run", [achievability_experiment, ensemble_failure_experiment])
def test_negative_seed_is_refused_before_the_sweep(monkeypatch, run):
    # Random(-3) seeds like Random(3), so [3, -3] would count one codebook twice
    swept = []
    monkeypatch.setattr(experiments, "_sweep_chunk", lambda *args, **kw: swept.append(args))
    with pytest.raises(PreconditionError, match="seed must be non-negative"):
        run(ExperimentConfig(n=4, level=Fraction(1, 4), seeds=(3, -3)))
    assert swept == []


def test_base_warning():
    assert ExperimentConfig(n=4, repro_alphabet="012").nominal_base == 6.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ExperimentConfig(n=4, base=2.5).nominal_base == 2.5
    with pytest.warns(UserWarning):
        assert ExperimentConfig(n=4, base=2.0).nominal_base == 2.0


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(5000, 8, 8), (5000, 512, 100), (3, 8, 3), (5000, None, 1), (100, 2, 2)],
)
def test_pool_is_sized_by_the_work(monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(experiments, "_process_pool", _InlinePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    chunks = []
    sweep_chunk = experiments._sweep_chunk
    monkeypatch.setattr(
        experiments, "_sweep_chunk", lambda *a, **k: chunks.append(a) or sweep_chunk(*a, **k)
    )
    cfg = ExperimentConfig(n=4, level=Fraction(1, 4), max_draws=3, jobs=jobs)
    rep = ensemble_failure_experiment(cfg)
    # one worker runs in-process, as jobs=1 does, and opens no pool
    assert _InlinePool.sizes == ([workers] if workers > 1 else [])
    assert len(chunks) == workers  # one chunk of seeds per worker
    serial = ensemble_failure_experiment(ExperimentConfig(**{**vars(cfg), "jobs": 1}))
    assert {**vars(rep), "config": None} == {**vars(serial), "config": None}


@pytest.mark.parametrize("run", [achievability_experiment, ensemble_failure_experiment])
def test_sweep_hands_each_chunk_the_config_itself(monkeypatch, run):
    # no worker re-parses the config from JSON, in-process or in a pool
    parsed, chunks = [], []
    monkeypatch.setattr(
        ExperimentConfig, "from_json", classmethod(lambda cls, text: parsed.append(text))
    )
    sweep_chunk = experiments._sweep_chunk
    monkeypatch.setattr(
        experiments, "_sweep_chunk", lambda *a, **k: chunks.append(a) or sweep_chunk(*a, **k)
    )
    cfg = ExperimentConfig(n=4, level=Fraction(1, 4), trials=3, max_draws=5)
    run(cfg)
    assert parsed == []
    assert [args[0] for args in chunks] == [cfg]


def test_every_stream_of_a_sweep_chunk_shares_the_table_of_its_key(monkeypatch):
    seen = []
    real = experiments.encode_streams

    def recording(xs, level, spec, streams, **kw):
        seen.extend(streams)
        return real(xs, level, spec, streams, **kw)

    monkeypatch.setattr(experiments, "encode_streams", recording)
    cfg = ExperimentConfig(n=8, level=Fraction(1, 4), max_draws=5)
    experiments._sweep_chunk(cfg, [3, 5, 7], round_trip=True)
    table = build_universal_table(8, 2, "plain")
    assert len(seen) == 3 and all(s.resolved_table is table for s in seen)


def test_ensemble_failure_decays_when_draws_scale():
    # calibrated draw budgets isolate the decay of the uncovered-source rate
    rates = []
    for n, draws in ((4, 8), (6, 70), (8, 75)):
        cfg = ExperimentConfig(
            n=n, level=Fraction(1, 4), trials=200, master_seed=321,
            max_draws=draws, epsilon=1.0, jobs=4,
        )
        rep = ensemble_failure_experiment(cfg)
        assert rep.length_overshoot_mean <= 0.01
        rates.append(rep.coverage_failure_rate)
    assert rates[0] > rates[1] > rates[2]
    assert rates == [0.515, 0.26, 0.045]


def test_converse_experiment_balanced_type():
    cfg = ExperimentConfig(n=6, level=Fraction(1, 6), epsilon=1.0,
                           type_counts={"0": 3, "1": 3})
    rep = converse_experiment(cfg)
    assert rep.min_codebook_size == 5
    assert rep.greedy_size >= 5
    assert rep.identity_ok
    assert rep.fraction_long >= rep.fraction_guarantee
    assert rep.fraction_ok
    assert rep.tree_nodes == 3


def test_converse_experiment_zero_level():
    cfg = ExperimentConfig(n=6, level=0, epsilon=1.0, type_counts={"0": 3, "1": 3})
    rep = converse_experiment(cfg)
    assert rep.min_codebook_size == 20  # each codeword covers itself only
    assert rep.greedy_size == 20
    assert rep.short_count <= rep.short_bound


def test_converse_experiment_full_sphere_vacuous():
    cfg = ExperimentConfig(n=6, level=1, epsilon=1.0, type_counts={"0": 3, "1": 3})
    rep = converse_experiment(cfg)
    assert rep.min_codebook_size == 1
    assert rep.fraction_ok


_SQUARED = {"kind": "joint_type_functional", "functional": "squared_disagreement"}
_TERNARY = {
    "kind": "per_letter_matrix",
    "matrix": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]],
}


# Each report was taken from the code that checked the covering bound and the
# double-counting identity in separate passes; sharing the passes must not
# move a field.
@pytest.mark.parametrize(
    "kwargs, expected",
    [
        (
            dict(n=8, level=Fraction(1, 8)),
            dict(min_codebook_size=14, greedy_size=14, short_count=0, short_bound=2,
                 tree_nodes=3, fraction_long=1.0, fraction_guarantee=0.75,
                 delta_per_symbol=10.92425953905043,
                 base_slack_per_symbol=9.331955210797283,
                 type_log_size_slack=80.20143123446104,
                 bound_bits=-85.32368698451205),
        ),
        (
            dict(n=8, level=Fraction(1, 8), distortion=_SQUARED),
            dict(min_codebook_size=Fraction(70, 17), greedy_size=6, short_count=0,
                 short_bound=0, tree_nodes=3, fraction_long=1.0, fraction_guarantee=0.75,
                 delta_per_symbol=10.92425953905043,
                 base_slack_per_symbol=9.331955210797283,
                 type_log_size_slack=80.52335932934841,
                 bound_bits=-87.59670547891847),
        ),
        (
            dict(n=6, level=Fraction(1, 6), source_alphabet="012", repro_alphabet="012",
                 distortion=_TERNARY),
            dict(min_codebook_size=Fraction(15, 2), greedy_size=12, short_count=2,
                 short_bound=3, tree_nodes=4, fraction_long=1.0,
                 fraction_guarantee=0.6666666666666667,
                 delta_per_symbol=25.04063810579213,
                 base_slack_per_symbol=22.082560617621553,
                 type_log_size_slack=139.15071923036132,
                 bound_bits=-148.40674750567703),
        ),
        (
            dict(n=8, level=Fraction(1, 8), order=2),
            dict(min_codebook_size=12, greedy_size=13, short_count=0, short_bound=2,
                 tree_nodes=7, fraction_long=1.0, fraction_guarantee=0.75,
                 delta_per_symbol=52.477663135242935,
                 base_slack_per_symbol=50.8392984573544,
                 type_log_size_slack=410.4062675826646,
                 bound_bits=-417.598912660607),
        ),
    ],
    ids=["hamming_n8", "squared_n8", "ternary_n6", "order2_n8"],
)
def test_converse_experiment_pinned_reports(kwargs, expected):
    rep = converse_experiment(ExperimentConfig(**kwargs))
    assert rep.identity_ok is True
    assert rep.fraction_ok is True
    for name, value in expected.items():
        if isinstance(value, float):
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12), name
        else:
            assert getattr(rep, name) == value, name


def _count_sphere_rows(monkeypatch, callers=("unirdc.converse",)):
    """The symbols of the center of every sphere row built through the
    callers' sphere_rows or through distortion.sphere_rows, which
    sphere_indicator (and so sphere_mass) calls."""
    calls = []
    for module in (*callers, "unirdc.distortion"):
        module = importlib.import_module(module)
        original = module.sphere_rows

        def counting(centers, *args, original=original, **kwargs):
            calls.extend(centers)
            return original(centers, *args, **kwargs)

        monkeypatch.setattr(module, "sphere_rows", counting)
    return calls


def test_converse_experiment_builds_one_cover_matrix(monkeypatch):
    # covering (with its identity cross-check), the sphere-mass bound and
    # greedy all read one matrix of one row per class member
    calls = _count_sphere_rows(monkeypatch)
    cfg = ExperimentConfig(n=8, level=Fraction(1, 8))
    rep = converse_experiment(cfg)
    assert rep.min_codebook_size == 14
    assert len(calls) == math.comb(8, 4)


@pytest.mark.parametrize(
    "fields, m0",
    [
        ({"n": 10, "level": Fraction(1, 10)}, 42),
        ({"n": 8, "order": 2, "level": Fraction(1, 4)}, 3),
        (
            {"n": 6, "source_alphabet": "012", "repro_alphabet": "012", "level": Fraction(1, 6),
             "distortion": {"kind": "per_letter_matrix",
                            "matrix": [[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]]}},
            Fraction(15, 2),
        ),
    ],
)
def test_converse_experiment_reads_no_class_members(monkeypatch, fields, m0):
    # every step of a check runs on the class's symbol array; Blocks of the
    # members are built only for the public API and the uncoverable error
    reads = []
    monkeypatch.setattr(
        converse_module.TypeClass, "members", property(lambda self: reads.append(self))
    )
    rep = converse_experiment(ExperimentConfig(**fields))
    assert reads == []
    assert rep.min_codebook_size == m0 and rep.greedy_size >= math.ceil(m0)


def test_converse_length_bound_builds_one_cover_matrix(monkeypatch):
    # the covering report and the sphere mass at the first member both read
    # the class's one matrix: |class| rows, not one more for the mass
    tc = enumerate_type_class(empirical_distribution(BINARY.to_block("01010101"), 1))
    table = build_universal_table(8, 2, "plain")
    level, spec = Fraction(1, 8), hamming(BINARY)
    mass = sphere_mass(tc.members[0], level, spec, table)
    calls = _count_sphere_rows(monkeypatch)
    rep = converse_length_bound(tc, level, spec, 1.0, table)
    assert len(calls) == tc.cardinality == math.comb(8, 4)
    assert rep.min_codebook_size == 14
    assert rep.sphere_mass_bits == mass.neg_log2_mass()


@pytest.mark.parametrize(
    "n, k, message", [(6, 2, "block length"), (8, 3, "reproduction alphabet")]
)
def test_converse_length_bound_refuses_a_mismatched_table_before_any_row(
    monkeypatch, n, k, message
):
    tc = enumerate_type_class(empirical_distribution(BINARY.to_block("01010101"), 1))
    table = build_universal_table(n, k, "plain")
    calls = _count_sphere_rows(monkeypatch)
    with pytest.raises(PreconditionError, match=message):
        converse_length_bound(tc, Fraction(1, 8), hamming(BINARY), 1.0, table)
    assert calls == []


def test_converse_experiment_refuses_a_callable_measure_before_any_row(monkeypatch):
    calls = _count_sphere_rows(monkeypatch)
    spec = callable_spec(lambda x, xh: 0, BINARY, BINARY)
    monkeypatch.setattr(ExperimentConfig, "spec", lambda self: spec)
    with pytest.raises(PreconditionError, match="joint-type"):
        converse_experiment(ExperimentConfig(n=4, level=Fraction(1, 4)))
    assert calls == []


def test_converse_experiment_uncoverable_level_raises_from_greedy():
    # every letter costs at least 1, so no block lies within 1/3 of any member;
    # the covering bound has no densest sphere and greedy refuses
    cfg = ExperimentConfig(
        n=3,
        source_alphabet="abc",
        repro_alphabet="01",
        distortion={"kind": "per_letter_matrix", "matrix": [[1, 2], [2, 1], [1, 1]]},
        level=Fraction(1, 3),
    )
    with pytest.raises(UncoverableError) as info:
        converse_experiment(cfg)
    assert info.value.member is not None
    assert "outside every candidate sphere" in str(info.value)


def test_converse_experiment_enumerates_each_class_once(monkeypatch):
    # the source class, and the best cover class inside covering_lower_bound;
    # the length bound reads both from its caller
    calls = []
    original = importlib.import_module("unirdc.converse").enumerate_type_class

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in ("unirdc.converse", "unirdc.experiments"):
        monkeypatch.setattr(f"{module}.enumerate_type_class", counting)
    rep = converse_experiment(ExperimentConfig(n=8, level=Fraction(1, 8)))
    assert rep.min_codebook_size == 14
    assert len(calls) <= 2


def test_converse_experiment_refuses_a_long_class_before_listing_it(monkeypatch):
    listed = []
    monkeypatch.setattr(
        "unirdc.experiments.enumerate_type_class", lambda *args: listed.append(args)
    )
    # 1200 members, but the 2^1200-block table is beyond the cap
    cfg = ExperimentConfig(n=1200, level=Fraction(1, 1200), type_counts={"0": 1199, "1": 1})
    with pytest.raises(EnumerationCapError):
        converse_experiment(cfg)
    assert listed == []


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(n=4, level=1, trials=2, master_seed=1)
    rep = run_experiment("ensemble_failure", cfg)
    assert rep.coverage_failure_rate == 0.0
    with pytest.raises(PreconditionError):
        run_experiment("no_such_experiment", cfg)
