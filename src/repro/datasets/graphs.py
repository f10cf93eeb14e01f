"""Synthetic stand-ins for the TC-GNN sparse-matrix suite (Figure 11).

The paper's unstructured SpMM study uses fourteen real-world matrices from
the TC-GNN datasets.  This module generates synthetic matrices with the
same names, whose published node counts, nonzero counts, and degree-
distribution character (heavily skewed for the social graphs, near-regular
for the biochemical ones) are reproduced at a configurable scale.  Figure
11's qualitative behaviour — Sputnik winning on heavily skewed inputs,
cuSPARSE suffering from load imbalance, GroupCOO paying padding on skew —
depends only on those properties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.formats.csr import CSR
from repro.utils.rng import stream_seed


@dataclass(frozen=True)
class GraphSpec:
    """Published characteristics of one TC-GNN matrix.

    ``skew`` selects the degree-distribution family used by the generator:
    ``"power_law"`` (social / web graphs with a heavy tail), ``"moderate"``
    (citation and co-purchase graphs), or ``"regular"`` (molecule /
    protein graphs whose degrees are narrowly distributed).
    """

    name: str
    num_rows: int
    num_nonzeros: int
    skew: str

    @property
    def average_degree(self) -> float:
        return self.num_nonzeros / self.num_rows


#: Published sizes of the TC-GNN matrices used in Figure 11.
GRAPH_SPECS: dict[str, GraphSpec] = {
    spec.name: spec
    for spec in [
        GraphSpec("amazon0505", 410_236, 4_878_874, "moderate"),
        GraphSpec("amazon0601", 403_394, 4_886_816, "moderate"),
        GraphSpec("artist", 50_515, 1_638_396, "power_law"),
        GraphSpec("citeseer", 3_327, 9_464, "moderate"),
        GraphSpec("com-amazon", 334_863, 1_851_744, "moderate"),
        GraphSpec("cora", 2_708, 10_858, "moderate"),
        GraphSpec("DD", 334_925, 1_686_092, "regular"),
        GraphSpec("OVCAR-8H", 1_889_542, 3_946_402, "regular"),
        GraphSpec("ppi", 56_944, 1_612_348, "power_law"),
        GraphSpec("PROTEINS_full", 43_466, 162_088, "regular"),
        GraphSpec("pubmed", 19_717, 88_676, "moderate"),
        GraphSpec("soc-BlogCatalog", 88_784, 4_186_390, "power_law"),
        GraphSpec("Yeast", 1_710_902, 3_636_546, "regular"),
        GraphSpec("YeastH", 3_139_988, 6_487_230, "regular"),
    ]
}


def list_graphs() -> list[str]:
    """Names of the available synthetic TC-GNN matrices."""
    return sorted(GRAPH_SPECS)


def _degree_sequence(spec: GraphSpec, num_rows: int, nnz_target: int, rng) -> np.ndarray:
    """Draw a per-row nonzero count with the spec's distribution shape."""
    average = max(1.0, nnz_target / num_rows)
    if spec.skew == "power_law":
        # Heavy-tailed (Zipf-like) degrees: a few hub rows hold a large
        # share of the nonzeros, like 'artist' and 'soc-BlogCatalog'.
        raw = rng.pareto(1.6, size=num_rows) + 1.0
    elif spec.skew == "regular":
        # Molecule graphs: degrees concentrated around the mean.
        raw = rng.normal(loc=1.0, scale=0.15, size=num_rows).clip(0.3, 2.0)
    else:
        # Citation / co-purchase graphs: moderately skewed.
        raw = rng.lognormal(mean=0.0, sigma=0.8, size=num_rows)
    degrees = np.maximum(1, np.round(raw * average / raw.mean())).astype(np.int64)
    # Rescale to hit the nonzero target as closely as possible.
    scale = nnz_target / degrees.sum()
    degrees = np.maximum(1, np.round(degrees * scale)).astype(np.int64)
    return np.minimum(degrees, num_rows)


def load_graph_matrix(
    name: str,
    max_rows: int = 8_192,
    rng: np.random.Generator | int | None = None,
) -> CSR:
    """Generate the synthetic matrix registered under ``name`` as CSR.

    Parameters
    ----------
    name:
        One of :func:`list_graphs`.
    max_rows:
        Matrices larger than this are scaled down proportionally (rows and
        nonzeros by the same factor) so the NumPy benchmark harness stays
        tractable; the degree-distribution shape is preserved.
    rng:
        Seed or generator; each matrix name uses its own default seed so
        repeated calls are reproducible.
    """
    if name not in GRAPH_SPECS:
        raise ShapeError(f"unknown graph {name!r}; available: {', '.join(list_graphs())}")
    spec = GRAPH_SPECS[name]
    if rng is None:
        rng = stream_seed(name)
    rng = np.random.default_rng(rng)

    scale = min(1.0, max_rows / spec.num_rows)
    num_rows = max(64, int(spec.num_rows * scale))
    nnz_target = max(num_rows, int(spec.num_nonzeros * scale))

    degrees = _degree_sequence(spec, num_rows, nnz_target, rng)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    nnz = int(indptr[-1])

    indices = np.empty(nnz, dtype=np.int64)
    for row in range(num_rows):
        start, end = indptr[row], indptr[row + 1]
        degree = end - start
        # Sampling without replacement per row keeps the matrix simple
        # (0/1-ish structure) while preserving the degree distribution.
        if degree >= num_rows:
            cols = np.arange(num_rows)
        else:
            cols = rng.choice(num_rows, size=degree, replace=False)
        indices[start:end] = np.sort(cols)
    data = rng.standard_normal(nnz).astype(np.float32)
    data[data == 0] = 1.0
    return CSR((num_rows, num_rows), indptr, indices, data)
