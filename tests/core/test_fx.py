"""Tests for the FX-like graph IR, its operators, and its interpreter."""

import numpy as np
import pytest

from repro.core.fx import Graph, GraphModule, Interpreter, OpCategory, get_op
from repro.core.fx.graph import linearize
from repro.core.fx.ops import OPS, coord_gather, index_add, index_select, scatter_add_coords
from repro.errors import FXGraphError


def build_gather_einsum_scatter_graph():
    graph = Graph()
    a = graph.placeholder("A")
    b = graph.placeholder("B")
    index = graph.placeholder("I")
    out = graph.placeholder("C")
    gathered = graph.call("index_select", b, 0, index)
    product = graph.call("einsum", "p,pn->pn", a, gathered)
    scattered = graph.call("index_add", out, 0, index, product)
    graph.output(scattered)
    return graph


# -- operator library ----------------------------------------------------------
def test_registry_contains_core_ops():
    for name in ["index_select", "einsum", "index_add", "mul", "sum", "reshape", "zeros"]:
        assert name in OPS


def test_get_unknown_op_raises():
    with pytest.raises(FXGraphError):
        get_op("definitely_not_an_op")


def test_categories():
    assert get_op("index_select").category is OpCategory.GATHER
    assert get_op("einsum").category is OpCategory.CONTRACTION
    assert get_op("index_add").category is OpCategory.SCATTER
    assert get_op("mul").category is OpCategory.POINTWISE


def test_index_select_matches_take(rng):
    x = rng.standard_normal((5, 3))
    idx = np.array([4, 0, 0])
    np.testing.assert_allclose(index_select(x, 0, idx), x[idx])


def test_index_select_rejects_2d_index(rng):
    with pytest.raises(FXGraphError):
        index_select(rng.standard_normal((5, 3)), 0, np.zeros((2, 2), dtype=int))


def test_index_add_accumulates_duplicates(rng):
    out = np.zeros((4, 2))
    src = np.ones((3, 2))
    result = index_add(out, 0, np.array([1, 1, 3]), src)
    np.testing.assert_allclose(result[1], [2.0, 2.0])
    np.testing.assert_allclose(result[3], [1.0, 1.0])
    np.testing.assert_allclose(out, 0.0)  # functional: input untouched


def test_index_add_along_nonzero_dim(rng):
    out = np.zeros((2, 3))
    src = rng.standard_normal((2, 2))
    result = index_add(out, 1, np.array([2, 2]), src)
    np.testing.assert_allclose(result[:, 2], src.sum(axis=1))


def test_coord_gather_pairs(rng):
    x = rng.standard_normal((4, 5))
    rows = np.array([0, 3])
    cols = np.array([1, 2])
    np.testing.assert_allclose(coord_gather(x, [rows, cols]), x[rows, cols])


def test_scatter_add_coords(rng):
    out = np.zeros((3, 3))
    result = scatter_add_coords(out, [np.array([0, 0]), np.array([1, 1])], np.array([2.0, 3.0]))
    assert result[0, 1] == 5.0


# -- graph construction and validation ------------------------------------------
def test_graph_names_are_unique():
    graph = Graph()
    first = graph.call("zeros", [2])
    second = graph.call("zeros", [2])
    assert first.name != second.name


def test_graph_validate_detects_missing_output():
    graph = Graph()
    graph.placeholder("A")
    with pytest.raises(FXGraphError, match="output"):
        graph.validate()


def test_graph_format_is_readable():
    graph = build_gather_einsum_scatter_graph()
    text = graph.format()
    assert "index_select" in text and "einsum" in text and "index_add" in text


def test_users_of_and_categories():
    graph = build_gather_einsum_scatter_graph()
    gather = graph.nodes_by_category(OpCategory.GATHER)[0]
    users = graph.users_of(gather)
    assert any(u.target == "einsum" for u in users)


def test_input_nodes_keep_argument_order_through_nested_arguments():
    graph = Graph()
    a, b, c, d = (graph.placeholder(name) for name in "ABCD")
    node = graph.call("scatter_add_coords", a, [b, None, (c, a)], source=d)
    assert node.input_nodes() == [a, b, c, a, d]


def test_linearize_detects_cycles():
    graph = build_gather_einsum_scatter_graph()
    nodes = list(graph.nodes)
    # Reversed order is still linearizable (it sorts); create a cycle manually.
    nodes[4].args = (nodes[5], *nodes[4].args[1:])
    with pytest.raises(FXGraphError, match="cycle"):
        linearize([nodes[4], nodes[5]])


# -- interpretation -----------------------------------------------------------------
def test_interpreter_runs_gather_einsum_scatter(rng):
    graph = build_gather_einsum_scatter_graph()
    module = GraphModule(graph)
    values = rng.standard_normal(3)
    b = rng.standard_normal((4, 2))
    idx = np.array([0, 2, 2])
    out = module(A=values, B=b, I=idx, C=np.zeros((4, 2)))
    expected = np.zeros((4, 2))
    np.add.at(expected, idx, values[:, None] * b[idx])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_interpreter_missing_input(rng):
    module = GraphModule(build_gather_einsum_scatter_graph())
    with pytest.raises(FXGraphError, match="missing input"):
        module(A=np.zeros(3))


def test_graph_module_required_inputs():
    module = GraphModule(build_gather_einsum_scatter_graph())
    assert set(module.required_inputs()) == {"A", "B", "I", "C"}
    assert "def" in module.print_readable()


def test_interpreter_rejects_unknown_node_kind():
    graph = build_gather_einsum_scatter_graph()
    graph.nodes[0].op = "mystery"
    with pytest.raises(FXGraphError):
        Interpreter(graph).run(
            A=np.zeros(3), B=np.zeros((4, 2)), I=np.zeros(3, int), C=np.zeros((4, 2))
        )
