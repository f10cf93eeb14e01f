"""Utilities for extracting dense blocks from sparse matrices."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.arrays import nonzero_entries


def dense_to_blocks(dense: np.ndarray, block_shape: tuple[int, int]) -> np.ndarray:
    """Reshape a matrix into a 4-D array of blocks ``(Mb, Kb, bM, bK)``.

    Raises if the matrix dimensions are not divisible by the block shape;
    callers that need padding should pad first (the datasets module pads
    its generated matrices to block multiples).
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {dense.shape}")
    rows, cols = dense.shape
    block_rows, block_cols = block_shape
    if block_rows <= 0 or block_cols <= 0:
        raise ShapeError(f"block shape must be positive, got {block_shape}")
    if rows % block_rows or cols % block_cols:
        raise ShapeError(
            f"matrix of shape {dense.shape} is not divisible into {block_shape} blocks"
        )
    return (
        dense.reshape(rows // block_rows, block_rows, cols // block_cols, block_cols)
        .transpose(0, 2, 1, 3)
        .copy()
    )


def blocks_to_dense(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dense_to_blocks`."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 4:
        raise ShapeError(f"expected a (Mb, Kb, bM, bK) array, got shape {blocks.shape}")
    mb, kb, block_rows, block_cols = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(mb * block_rows, kb * block_cols)


def nonzero_blocks(
    dense: np.ndarray, block_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find the nonzero blocks of a matrix.

    Returns
    -------
    (block_rows, block_cols, block_values):
        Coordinates of each nonzero block (1-D int arrays of length
        ``n_blocks``) and the block values as an array of shape
        ``(n_blocks, bM, bK)``, ordered row-major by block coordinate.
    """
    blocks = dense_to_blocks(dense, block_shape)
    (block_rows, block_cols), _ = nonzero_entries(np.any(blocks != 0, axis=(2, 3)))
    return block_rows, block_cols, blocks[block_rows, block_cols]


def block_occupancy(dense: np.ndarray, block_shape: tuple[int, int]) -> np.ndarray:
    """Number of nonzero blocks per block-row (``occ`` for block formats)."""
    blocks = dense_to_blocks(dense, block_shape)
    mask = np.any(blocks != 0, axis=(2, 3))
    return mask.sum(axis=1)
