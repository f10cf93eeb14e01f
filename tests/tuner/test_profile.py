"""Property tests for the SparsityProfile extractor.

The two load-bearing properties from the issue:

* the unstructured statistics are invariant under row permutation (the
  cost terms for COO/GroupCOO/ELL must not depend on row order);
* planted block structure (from ``datasets/blocksparse.py``) is detected —
  high fill for the planted shape, low fill after the structure is
  destroyed by a random permutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import random_block_sparse_matrix, random_sparse_matrix
from repro.formats import BCSR, BlockCOO, BlockGroupCOO, COO, CSR, ELL, GroupCOO
from repro.tuner import profile_operand


@pytest.mark.parametrize("seed", range(8))
def test_unstructured_stats_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    density = float(rng.uniform(0.02, 0.3))
    dense = random_sparse_matrix((96, 64), density, rng=rng)
    permuted = dense[rng.permutation(dense.shape[0])]

    base = profile_operand(dense)
    shuffled = profile_operand(permuted)
    assert base.unstructured_key() == shuffled.unstructured_key()
    # The full occupancy arrays are permutations of each other.
    assert sorted(base.occupancy) == sorted(shuffled.occupancy)


@pytest.mark.parametrize("seed", range(4))
def test_unstructured_stats_invariant_for_format_instances(seed):
    rng = np.random.default_rng(100 + seed)
    dense = random_sparse_matrix((64, 48), 0.1, rng=rng)
    permuted = dense[rng.permutation(dense.shape[0])]
    for build in (COO.from_dense, CSR.from_dense, ELL.from_dense, GroupCOO.from_dense):
        assert (
            profile_operand(build(dense)).unstructured_key()
            == profile_operand(build(permuted)).unstructured_key()
        )


def test_profile_identical_across_formats():
    """Every storage format of one matrix yields one structural profile."""
    rng = np.random.default_rng(7)
    dense = random_block_sparse_matrix(64, (8, 8), 0.2, rng=rng).astype(np.float64)
    reference = profile_operand(dense)
    formats = [
        COO.from_dense(dense),
        CSR.from_dense(dense),
        ELL.from_dense(dense),
        GroupCOO.from_dense(dense),
        BCSR.from_dense(dense, (8, 8)),
        BlockCOO.from_dense(dense, (8, 8)),
        BlockGroupCOO.from_dense(dense, (8, 8)),
    ]
    for fmt in formats:
        profile = profile_operand(fmt)
        assert profile.unstructured_key() == reference.unstructured_key(), fmt.format_name
        assert profile.block_scores == reference.block_scores, fmt.format_name


def _unique_oracle(dense: np.ndarray) -> dict:
    """``{block shape: (fill, num_blocks, nonempty_rows, row_max)}`` with
    ``np.unique`` over the block ids, for every candidate shape dividing the
    matrix (none when it holds no nonzero)."""
    from repro.tuner.profile import CANDIDATE_BLOCK_SHAPES

    rows, cols = np.nonzero(dense)
    expected = {}
    for bm, bk in CANDIDATE_BLOCK_SHAPES:
        if dense.shape[0] % bm or dense.shape[1] % bk or not rows.size:
            continue
        grid_cols = dense.shape[1] // bk
        blocks = np.unique((rows // bm) * grid_cols + cols // bk)
        _, per_row = np.unique(blocks // grid_cols, return_counts=True)
        fill = rows.size / (blocks.size * bm * bk)
        expected[(bm, bk)] = (fill, blocks.size, per_row.size, int(per_row.max()))
    return expected


def _edge_matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(21)
    single = np.zeros((64, 64))
    single[37, 5] = 2.0
    return {
        "empty": np.zeros((64, 64)),
        "single": single,
        "full tiles": random_block_sparse_matrix(64, (16, 16), 0.25, rng=rng),
        "not divisible": random_sparse_matrix((72, 40), 0.1, rng=rng),
        "blocky": random_block_sparse_matrix(64, (8, 8), 0.2, rng=rng),
    }


@pytest.mark.parametrize("name", list(_edge_matrices()))
def test_block_census_matches_the_unique_oracle_on_every_format(name):
    """The block census (one sort and a neighbour-difference mask a shape)
    counts what ``np.unique`` counts, from a dense matrix or any format."""
    dense = _edge_matrices()[name].astype(np.float64)
    expected = _unique_oracle(dense)
    builds = [lambda d: d, COO.from_dense, CSR.from_dense, ELL.from_dense, GroupCOO.from_dense]
    if dense.shape == (64, 64):
        builds += [
            lambda d: BCSR.from_dense(d, (8, 8)),
            lambda d: BlockCOO.from_dense(d, (8, 8)),
            lambda d: BlockGroupCOO.from_dense(d, (8, 8)),
        ]
    for build in builds:
        operand = build(dense)
        profile = profile_operand(operand)
        census = {
            shape: (stats.fill, stats.num_blocks, stats.nonempty_rows, stats.row_max)
            for shape, stats in profile.blocks.items()
        }
        assert census == expected, getattr(operand, "format_name", "dense")
    if name == "not divisible":
        assert set(expected) == {(4, 4), (8, 8)}  # 72 x 40: no 16 or 32 divides 40


@pytest.mark.parametrize("block", [(8, 8), (16, 16)])
def test_planted_block_structure_is_detected(block):
    dense = random_block_sparse_matrix(128, block, 0.15, rng=3)
    profile = profile_operand(dense)
    assert profile.block_scores[block] == pytest.approx(1.0)
    assert profile.best_block_shape() == block


def test_destroyed_block_structure_is_not_detected():
    rng = np.random.default_rng(11)
    dense = random_block_sparse_matrix(128, (16, 16), 0.1, rng=rng)
    shuffled = dense[rng.permutation(128)][:, rng.permutation(128)]
    profile = profile_operand(shuffled)
    # Shuffling rows and columns breaks blocks apart: fill collapses far
    # below the planted-structure score of 1.0.
    assert profile.block_scores[(16, 16)] < 0.5
    # The unstructured statistics, by contrast, survive the shuffle.
    assert profile.unstructured_key() == profile_operand(dense).unstructured_key()


def test_uniform_matrix_has_no_block_candidate():
    dense = random_sparse_matrix((128, 128), 0.03, rng=0)
    profile = profile_operand(dense)
    assert profile.best_block_shape() is None


def test_bucket_separates_regimes_and_groups_lookalikes():
    uniform_a = random_sparse_matrix((128, 128), 0.05, rng=0)
    uniform_b = random_sparse_matrix((128, 128), 0.05, rng=1)
    blocky = random_block_sparse_matrix(128, (16, 16), 0.08, rng=2)
    assert profile_operand(uniform_a).bucket() == profile_operand(uniform_b).bucket()
    assert profile_operand(uniform_a).bucket() != profile_operand(blocky).bucket()


def test_profile_of_empty_matrix():
    profile = profile_operand(np.zeros((16, 16)))
    assert profile.nnz == 0
    assert profile.density == 0.0
    assert profile.row_max == 0
    assert profile.best_block_shape() is None
    assert profile.bucket() is not None


def test_profile_rejects_non_matrix():
    from repro.errors import FormatError

    with pytest.raises(FormatError):
        profile_operand(np.zeros((4, 4, 4)))
