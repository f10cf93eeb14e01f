"""Tests for the calibration machinery and the analytical cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.tuner import (
    Calibration,
    Candidate,
    CostModel,
    TunerError,
    enumerate_candidates,
    profile_operand,
    run_microbenchmarks,
)
from repro.tuner.calibration import CALIBRATION_VERSION


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------
def test_microbenchmarks_produce_positive_constants():
    """Every constant of the executor that runs is measured and positive; the
    other executor's probes are not run."""
    cal = run_microbenchmarks(elements=1 << 14, repeats=1)
    assert cal.flop_ns > 0 and cal.block_flop_ns > 0 and cal.unit_ns > 0
    steps = (cal.gather_ns, cal.scatter_ns, cal.overhead_us)
    assert steps == (None, None, None) if cal.emitted else min(steps) > 0


def test_a_step_list_calibration_needs_the_step_constants(tmp_path):
    with pytest.raises(TypeError, match="step-list"):
        Calibration(flop_ns=1.0, block_flop_ns=1.0, unit_ns=1.0)
    path = tmp_path / "calibration.json"
    Calibration(flop_ns=1.0, block_flop_ns=1.0, unit_ns=1.0, emitted=True).save(path)
    path.write_text(path.read_text().replace('"emitted": true', '"emitted": false'))
    assert Calibration.load(path) is None  # a hand-edited file is refused, not half-read


def test_microbenchmarks_time_the_emitter_that_runs(steps_only):
    """With no compiler the element-granular probe is the step list's dot."""
    assert run_microbenchmarks(elements=1 << 14, repeats=1).emitted is False


def test_microbenchmarks_time_the_emitted_loop_where_plans_compile():
    from repro.core.insum import plan_insum
    from repro.engine.emit import Emitted
    from repro.engine.specialize import SpecializedKernel

    probe = np.zeros(1)
    plan = plan_insum("y[i] += a[i] * b[i]", {"y": probe, "a": probe, "b": probe})
    compiles = isinstance(SpecializedKernel.build(plan).emitted, Emitted)
    cal = run_microbenchmarks(elements=1 << 14, repeats=1)
    assert cal.emitted is compiles and cal.flop_ns > 0 and cal.block_flop_ns > 0


def test_one_untimed_pass_runs_before_the_timed_repeats(monkeypatch):
    """A process's first pass over the probes reads slow, so it is run and
    thrown away: every probe runs once with no timer open, then ``repeats``
    times under one.  Counted, not timed: the step list's probes take rows,
    the emitted ones run kernels."""
    import repro.tuner.calibration as calibration
    from repro.engine.specialize import SpecializedKernel

    events: list[str] = []

    class Recorder:
        elapsed = 1e-6

        def __enter__(self):
            events.append("timer")
            return self

        def __exit__(self, *exc):
            return False

    def recording(probe):
        def recorded(*args, **kwargs):
            events.append("probe")
            return probe(*args, **kwargs)

        return recorded

    monkeypatch.setattr(calibration, "Timer", Recorder)
    monkeypatch.setattr(np, "take", recording(np.take))
    monkeypatch.setattr(SpecializedKernel, "run", recording(SpecializedKernel.run))
    calibration.run_microbenchmarks(elements=1 << 14, repeats=2)
    warm = events.index("timer")
    timed = events[warm:].count("probe")
    assert warm > 0 and events[:warm] == ["probe"] * warm
    assert timed == 2 * warm  # the same probes, each pass


def test_calibration_json_roundtrip(tmp_path):
    for cal in (
        Calibration(flop_ns=0.5, block_flop_ns=0.05, unit_ns=4.0, emitted=True),
        Calibration(
            flop_ns=0.5, block_flop_ns=0.05, unit_ns=4.0, gather_ns=1.5, scatter_ns=9.0,
            overhead_us=2.0,
        ),
    ):  # fmt: skip
        path = tmp_path / "nested" / "calibration.json"
        cal.save(path)
        assert Calibration.load(path) == cal


def test_calibration_load_rejects_stale_and_corrupt(tmp_path):
    path = tmp_path / "calibration.json"
    assert Calibration.load(path) is None  # missing
    path.write_text("{not json")
    assert Calibration.load(path) is None  # corrupt
    cal = Calibration(
        gather_ns=1.0, scatter_ns=1.0, flop_ns=1.0, block_flop_ns=1.0, unit_ns=1.0, overhead_us=1.0
    )
    cal.save(path)
    current, tag = path.read_text(), f'"version": {CALIBRATION_VERSION}'
    assert CALIBRATION_VERSION == 8
    for version in (-1, 5, 6, 7):  # 6: no unit_ns, no warm pass; 7: a store per stored slot
        path.write_text(current.replace(tag, f'"version": {version}'))
        assert Calibration.load(path) is None  # stale version


def test_calibration_env_var_persistence(tmp_path, monkeypatch):
    from repro.tuner import get_calibration, set_calibration
    from repro.tuner.calibration import CALIBRATION_ENV_VAR

    path = tmp_path / "cal.json"
    monkeypatch.setenv(CALIBRATION_ENV_VAR, str(path))
    set_calibration(None)
    try:
        first = get_calibration()
        assert path.exists()
        set_calibration(None)
        assert get_calibration() == first  # loaded back from the file
    finally:
        set_calibration(None)


# ---------------------------------------------------------------------------
# Cost model rankings
# ---------------------------------------------------------------------------
def _rank_names(dense, n_cols=64):
    profile = profile_operand(dense)
    ranked = CostModel().rank(profile, enumerate_candidates(profile), n_cols=n_cols)
    return [s.candidate for s in ranked]


def test_scatter_free_ell_beats_coo_on_uniform_rows():
    """Rows of exactly equal length: ELL pads nothing, so under any calibration
    it saves COO's store of every row and its second index per nonzero."""
    rng = np.random.default_rng(0)
    dense = np.zeros((256, 256))
    for row in range(256):
        dense[row, rng.choice(256, size=12, replace=False)] = 1.0
    names = [c.format_name for c in _rank_names(dense)]
    assert names.index("ELL") < names.index("COO")
    # The dot sums a row's duplicates, so COO no longer pays a scatter per
    # nonzero: it prices as GroupCOO(g=1), dearer only than groupings that pad.
    profile, model = profile_operand(dense), CostModel()
    coo = model.explain(profile, Candidate("COO"), n_cols=64)
    for g in (1, 4):
        grouped = model.explain(profile, Candidate("GroupCOO", group_size=g), n_cols=64)
        assert grouped["scatter_elements"] == coo["scatter_elements"] == 256 * 64
        assert grouped["run_lengths"] == coo["run_lengths"] == 1
        assert grouped["modeled_ms"] <= coo["modeled_ms"]


def test_block_format_wins_on_block_structure():
    dense = random_block_sparse_matrix(256, (16, 16), 0.08, rng=1)
    best = _rank_names(dense)[0]
    assert best.format_name in ("BlockCOO", "BlockGroupCOO")
    assert best.block_shape == (16, 16)


def _pinned(emitted: bool, **changes):
    """The suite's fixed calibration (conftest.py), as the step list or the
    emitted loop prices it, made process-wide."""
    from dataclasses import replace

    from repro.tuner import get_calibration, set_calibration

    calibration = replace(get_calibration(), emitted=emitted, **changes)
    set_calibration(calibration)
    return calibration


def test_exactly_padded_rows_choose_groupcoo_over_coo():
    """Rows of 16, 32, 48 or 64 nonzeros: a GroupCOO with g <= 16 pads nothing
    and does COO's multiply-adds, but the step list loads 1 + 1/g indices a
    slot against COO's 2.  Without the index-load term the two tie; so they do
    in the emitted loop, where a nonzero's second load hides under its row."""
    from dataclasses import replace

    from repro.tuner import choose_format, get_calibration

    rng = np.random.default_rng(12)
    dense = np.zeros((256, 256))
    for row, occupancy in enumerate(rng.choice([16, 32, 48, 64], size=256)):
        dense[row, rng.choice(256, size=occupancy, replace=False)] = 1.0
    profile = profile_operand(dense)
    decision = choose_format(profile, use_cache=False)  # the fixed calibration: the step list
    chosen = decision.candidate
    assert chosen.format_name == "GroupCOO" and 64 % chosen.group_size == 0
    costs = {scored.candidate: scored.modeled_ms for scored in decision.ranked}
    assert costs[Candidate("COO")] > costs[chosen]
    calibration = get_calibration()
    for tied in (replace(calibration, unit_ns=0.0), replace(calibration, emitted=True)):
        model = CostModel(tied)
        assert model.estimate_ms(profile, Candidate("COO")) == pytest.approx(
            model.estimate_ms(profile, chosen)
        )


@pytest.mark.parametrize("emitted", [False, True])
def test_full_16x16_tiles_choose_16x16_over_8x8_and_4x4(emitted):
    """Every block shape dividing a full 16 x 16 tile does the same
    multiply-adds; the smaller one stores (and loads the indices of) 4x
    (8 x 8) or 16x (4 x 4) the blocks.  On the emitted loop that term alone
    tells them apart."""
    from dataclasses import replace

    from repro.tuner import choose_format

    dense = random_block_sparse_matrix(256, (16, 16), 0.1, rng=9)
    calibration = _pinned(emitted)
    profile = profile_operand(dense)
    assert profile.block_scores[(16, 16)] == pytest.approx(1.0)
    assert choose_format(profile, use_cache=False).candidate.block_shape == (16, 16)
    shapes = [Candidate("BlockCOO", block_shape=(b, b)) for b in (16, 8, 4)]
    costs = [CostModel().estimate_ms(profile, shape) for shape in shapes]
    assert costs[0] < costs[1] < costs[2]
    if emitted:
        tied = CostModel(replace(calibration, unit_ns=0.0))
        assert len({round(tied.estimate_ms(profile, shape), 12) for shape in shapes}) == 1


def test_no_block_candidates_on_unstructured_data():
    dense = random_sparse_matrix((256, 256), 0.05, rng=2)
    assert all(c.block_shape is None for c in _rank_names(dense))


def test_grouping_beats_plain_coo_on_powerlaw_rows():
    rng = np.random.default_rng(3)
    dense = np.zeros((256, 256))
    occupancy = np.minimum(256, (rng.pareto(1.1, 256) * 4 + 1).astype(int))
    for row, occ in enumerate(occupancy):
        dense[row, rng.choice(256, size=occ, replace=False)] = 1.0
    ranked = _rank_names(dense)
    assert ranked[0].format_name == "GroupCOO"
    # What grouping buys now that no format scatters per group: rows with
    # equally many groups share a window, and ``ceil(occ/g)`` takes far fewer
    # distinct values than ``occ``.
    profile, model = profile_operand(dense), CostModel()
    coo = model.explain(profile, Candidate("COO"), n_cols=64)
    grouped = model.explain(profile, ranked[0], n_cols=64)
    assert coo["run_lengths"] == np.unique(occupancy).size > grouped["run_lengths"]
    assert grouped["scatter_elements"] == coo["scatter_elements"]


def test_an_emitted_calibration_prices_every_candidate_as_one_fused_loop():
    """Where plans compile to C every candidate is one call of its loop nest —
    its multiply-adds and stored units at the rates of that loop, no gather
    pass, no stored rows, no windows: one line, scalar and block alike."""
    from dataclasses import replace

    from repro.tuner import get_calibration

    fixed = get_calibration()  # the suite's pinned constants (conftest.py)
    rng = np.random.default_rng(8)
    dense = np.zeros((128, 128))
    occupancy = np.minimum(128, (rng.pareto(1.1, 128) * 4 + 1).astype(int))
    for row, occ in enumerate(occupancy):
        dense[row, rng.choice(128, size=occ, replace=False)] = 1.0
    dense[:16, :16] = 1.0
    profile = profile_operand(dense)
    steps, emitted = CostModel(fixed), CostModel(replace(fixed, emitted=True))
    candidates = [Candidate("COO"), Candidate("ELL"), Candidate("GroupCOO", group_size=4)]
    candidates += [Candidate("BlockCOO", block_shape=(16, 16))]
    candidates += [Candidate("BlockGroupCOO", group_size=2, block_shape=(16, 16))]
    for candidate in candidates:
        terms = emitted.explain(profile, candidate, n_cols=32)
        expected = terms["scalar_macs"] * fixed.flop_ns + terms["block_macs"] * fixed.block_flop_ns
        expected += terms["stored_units"] * fixed.unit_ns
        assert terms["modeled_ms"] == pytest.approx(expected / 1e6)
        assert terms["modeled_ms"] < steps.estimate_ms(profile, candidate, n_cols=32)
    assert emitted.explain(profile, candidates[-1], 32)["block_macs"] > 0


def test_estimate_scales_with_n_cols():
    profile = profile_operand(random_sparse_matrix((128, 128), 0.05, rng=4))
    model = CostModel()
    coo = Candidate("COO")
    assert model.estimate_ms(profile, coo, n_cols=128) > model.estimate_ms(profile, coo, n_cols=16)


def test_explain_census_terms():
    profile = profile_operand(random_sparse_matrix((64, 64), 0.1, rng=5))
    terms = CostModel().explain(profile, Candidate("COO"), n_cols=8)
    nnz, occupancy = profile.nnz, profile.occupancy
    assert terms["gather_elements"] == nnz * 8
    assert terms["stored_units"] == nnz
    assert terms["index_loads"] == 2 * nnz  # a row and a column a nonzero
    assert terms["scatter_elements"] == np.count_nonzero(occupancy) * 8  # one store a row
    assert terms["scalar_macs"] == 2 * nnz * 8
    assert terms["block_macs"] == 0
    assert terms["run_lengths"] == np.unique(occupancy[occupancy > 0]).size
    assert terms["modeled_ms"] > 0


def test_block_formats_store_each_nonempty_block_row_once():
    dense = random_block_sparse_matrix(128, (16, 16), 0.2, rng=7)
    profile = profile_operand(dense)
    stats = profile.blocks[(16, 16)]
    model = CostModel()
    for candidate in (
        Candidate("BlockCOO", block_shape=(16, 16)),
        Candidate("BlockGroupCOO", group_size=2, block_shape=(16, 16)),
    ):
        terms = model.explain(profile, candidate, n_cols=8)
        assert terms["scatter_elements"] == stats.nonempty_rows * 16 * 8
        assert 1 <= terms["run_lengths"] <= stats.nonempty_rows


def test_unknown_candidate_raises():
    profile = profile_operand(random_sparse_matrix((32, 32), 0.1, rng=6))
    with pytest.raises(TunerError):
        CostModel().estimate_ms(profile, Candidate("CSR"))
    with pytest.raises(TunerError):
        # Block candidate without block statistics in the profile.
        CostModel().estimate_ms(profile, Candidate("BlockCOO", block_shape=(3, 3)))
