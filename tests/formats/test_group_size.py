"""Tests for the group-size cost model and heuristic (Section 4.2)."""

import numpy as np
import pytest

from repro.formats.group_size import (
    GroupSizeModel,
    exact_indirect_access_count,
    optimal_group_size,
    power_of_two_candidates,
    relaxed_indirect_access_count,
    select_group_size,
)

# Declared in requirements-dev.txt; a bare machine skips this module instead of
# stopping ``pytest -x`` at collection.
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


PAPER_OCC = [3, 1, 1, 2]  # Figure 4's example occupancy


def test_exact_cost_matches_figure4_example():
    # g=1: groups = 7, F = 2 * 7 = 14 ; g=2: groups = 2+1+1+1 = 5, F = 3*5 = 15
    assert exact_indirect_access_count(PAPER_OCC, 1) == 14
    assert exact_indirect_access_count(PAPER_OCC, 2) == 15
    assert exact_indirect_access_count(PAPER_OCC, 3) == 4 * 4


def test_exact_cost_is_the_per_row_loop_on_the_kernel_benchmark_occupancies():
    """The vectorised count is the same integers as the loop it replaced, on
    occupancies of the kinds behind the thirteen ``kernel_spmm`` cases (the
    three graph stand-ins at 2048 rows, 32 x 32 block masks at both densities,
    the 256 x 192 reference request) and on empty ones."""
    from repro.datasets import load_graph_matrix
    from repro.utils.rng import rng as stream

    occupancies = [np.zeros(0, dtype=np.int64), np.zeros(5, dtype=np.int64)]
    for graph in ("cora", "amazon0505", "soc-BlogCatalog"):
        matrix = load_graph_matrix(graph, max_rows=2048, rng=stream(2026, f"graph/{graph}"))
        occupancies.append(matrix.row_occupancy())
    for density in (0.1, 0.3):
        tiles = stream(2026, f"block/{density}").random((32, 32)) < density
        occupancies.append(np.kron(tiles, np.ones((32, 32), dtype=bool)).sum(axis=1))
    occupancies.append((stream(2026, "reference").random((256, 192)) < 0.1).sum(axis=1))
    for occupancy in occupancies:
        for group_size in (1, 2, 3, 4, 8, 32):
            loop = sum(-(-int(o) // group_size) for o in occupancy if o > 0) * (group_size + 1)
            count = exact_indirect_access_count(occupancy, group_size)
            assert isinstance(count, int) and count == loop
    assert exact_indirect_access_count([], 4) == 0


def test_exact_cost_ignores_empty_rows():
    assert exact_indirect_access_count([0, 3, 0], 2) == exact_indirect_access_count([3], 2)


def test_relaxed_cost_formula():
    occ = [4, 4]
    # S=8, n=2: F~ = S + S/g + n*g + n
    assert relaxed_indirect_access_count(occ, 2) == pytest.approx(8 + 4 + 4 + 2)


def test_relaxed_upper_bounds_exact_at_integer_g():
    occ = [5, 3, 8, 1]
    for g in range(1, 10):
        assert relaxed_indirect_access_count(occ, g) >= exact_indirect_access_count(occ, g) - 1e-9


def test_optimal_group_size_closed_form():
    occ = np.full(16, 64)
    assert optimal_group_size(occ) == pytest.approx(8.0)  # sqrt(1024/16)


def test_optimal_group_size_skips_empty_rows():
    assert optimal_group_size([0, 0, 16]) == pytest.approx(4.0)
    assert optimal_group_size([0, 0, 0]) == 1.0


def test_power_of_two_candidates_bracket_g_star():
    candidates = power_of_two_candidates(6.0)
    assert 4 in candidates and 8 in candidates
    assert all(c & (c - 1) == 0 for c in candidates)


def test_power_of_two_candidates_respect_max():
    assert max(power_of_two_candidates(100.0, max_group=16)) <= 16


def test_select_group_size_minimises_exact_cost():
    occ = np.full(64, 36)
    chosen = select_group_size(occ)
    g_star = optimal_group_size(occ)
    assert chosen in power_of_two_candidates(g_star, max_group=64)


def test_select_group_size_uses_runtime_callback():
    occ = np.full(8, 32)
    chosen = select_group_size(occ, runtime_fn=lambda g: abs(g - 4))
    assert chosen == 4


def test_invalid_group_sizes_rejected():
    with pytest.raises(ValueError):
        exact_indirect_access_count(PAPER_OCC, 0)
    with pytest.raises(ValueError):
        relaxed_indirect_access_count(PAPER_OCC, 0)


def test_group_size_model_sweep():
    model = GroupSizeModel(np.asarray(PAPER_OCC))
    sweep = model.sweep([1, 2, 3])
    assert set(sweep) == {1, 2, 3}
    assert sweep[1]["indirect_accesses"] == 14
    assert model.total_nonzeros == 7
    assert model.padded_slots(2) == 10
    assert model.format_size(2) > model.total_nonzeros


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=64),
)
def test_exact_cost_structure_property(occupancy, group_size):
    """F(g) = (g+1) * total groups, and groups shrink as g grows."""
    cost = exact_indirect_access_count(occupancy, group_size)
    groups = sum(-(-o // group_size) for o in occupancy if o > 0)
    assert cost == (group_size + 1) * groups
    larger = exact_indirect_access_count(occupancy, group_size + 1)
    larger_groups = sum(-(-o // (group_size + 1)) for o in occupancy if o > 0)
    assert larger_groups <= groups
    assert larger >= 0 and cost >= 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), max_size=60),
    st.one_of(st.none(), st.integers(min_value=1, max_value=128)),
)
def test_select_group_size_is_the_per_candidate_minimum(occupancy, max_group):
    """One vectorised F(g) over the candidates picks what the per-candidate
    ``min`` over :func:`exact_indirect_access_count` picks, ties included."""
    occ = np.asarray(occupancy, dtype=np.int64)
    bound = max_group
    if bound is None and occ.size:
        bound = max(1, 1 << (max(1, int(occ.max())) - 1).bit_length())
    candidates = power_of_two_candidates(optimal_group_size(occ), max_group=bound)
    expected = min(candidates, key=lambda g: exact_indirect_access_count(occ, g))
    assert select_group_size(occ, max_group=max_group) == expected
