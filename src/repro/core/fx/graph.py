"""A small FX-style functional graph IR.

A :class:`Graph` is an ordered list of :class:`Node` objects.  Nodes are one
of three kinds (mirroring ``torch.fx``):

* ``placeholder`` — an input tensor, identified by name;
* ``call_function`` — applies a registered operator to earlier nodes and
  constants;
* ``output`` — marks the node whose value the graph returns.

The graph is purely functional: no node mutates its inputs.  The
:class:`GraphModule` couples a graph with the interpreter so it can be
called like a function on NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.core.fx.ops import OpCategory, get_op
from repro.errors import FXGraphError


@dataclass
class Node:
    """One node of the graph.

    Attributes
    ----------
    name:
        Unique name within the graph (used by IR dumps and as the SSA value
        name in generated code).
    op:
        ``"placeholder"``, ``"call_function"``, or ``"output"``.
    target:
        For ``call_function`` nodes, the registered operator name.
        For placeholders, the input tensor name.
    args / kwargs:
        Positional and keyword arguments; may contain other nodes,
        constants, or (nested) lists/tuples of either.
    meta:
        Free-form metadata (inferred shapes, loop-variable subscripts,
        the role of the node in the gather/einsum/scatter pipeline, ...).
    """

    name: str
    op: str
    target: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def category(self) -> OpCategory | None:
        """Operator category for call_function nodes, else None."""
        if self.op != "call_function":
            return None
        return get_op(self.target).category

    def input_nodes(self) -> list["Node"]:
        """All nodes this node reads, in argument order."""
        # An explicit stack, not a recursive local function: a closure that
        # names itself is a reference cycle, and one made per call would pin
        # ``found`` until the cyclic collector runs.
        found: list[Node] = []
        stack: list[Any] = [*self.args, *self.kwargs.values()][::-1]
        while stack:
            value = stack.pop()
            if isinstance(value, Node):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                stack.extend(reversed(value))
        return found

    def format(self) -> str:
        """Single-line textual form used in graph dumps."""

        def fmt(value: Any) -> str:
            if isinstance(value, Node):
                return f"%{value.name}"
            if isinstance(value, (list, tuple)):
                return "[" + ", ".join(fmt(v) for v in value) + "]"
            if hasattr(value, "shape") and hasattr(value, "dtype"):
                return f"<tensor {tuple(value.shape)}>"
            return repr(value)

        if self.op == "placeholder":
            return f"%{self.name} = placeholder[{self.target}]"
        if self.op == "output":
            return f"output(%{self.args[0].name})" if self.args else "output()"
        rendered_args = ", ".join(fmt(a) for a in self.args)
        rendered_kwargs = ", ".join(f"{k}={fmt(v)}" for k, v in self.kwargs.items())
        all_args = ", ".join(part for part in (rendered_args, rendered_kwargs) if part)
        return f"%{self.name} = {self.target}({all_args})"

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name})"


class Graph:
    """An ordered, functional graph of operations."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._names: set[str] = set()
        self.output_node: Node | None = None

    # -- construction -------------------------------------------------------
    def _unique_name(self, base: str) -> str:
        if base not in self._names:
            self._names.add(base)
            return base
        suffix = 1
        while f"{base}_{suffix}" in self._names:
            suffix += 1
        name = f"{base}_{suffix}"
        self._names.add(name)
        return name

    def placeholder(self, target: str, name: str | None = None, **meta: Any) -> Node:
        """Add an input node bound to the tensor called ``target`` at run time."""
        node = Node(
            name=self._unique_name(name or target),
            op="placeholder",
            target=target,
            meta=dict(meta),
        )
        self.nodes.append(node)
        return node

    def call(self, target: str, *args: Any, name: str | None = None, **kwargs: Any) -> Node:
        """Add a call_function node applying operator ``target``."""
        get_op(target)  # validate the operator exists
        meta = kwargs.pop("meta", {})
        node = Node(
            name=self._unique_name(name or target),
            op="call_function",
            target=target,
            args=tuple(args),
            kwargs=kwargs,
            meta=dict(meta),
        )
        self.nodes.append(node)
        return node

    def output(self, node: Node) -> Node:
        """Mark ``node`` as the graph output."""
        out = Node(name=self._unique_name("out"), op="output", target="output", args=(node,))
        self.nodes.append(out)
        self.output_node = out
        return out

    # -- inspection -----------------------------------------------------------
    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def placeholders(self) -> list[Node]:
        return [n for n in self.nodes if n.op == "placeholder"]

    @property
    def call_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.op == "call_function"]

    def nodes_by_category(self, category: OpCategory) -> list[Node]:
        """Call nodes whose operator belongs to ``category``."""
        return [n for n in self.call_nodes if n.category is category]

    def users_of(self, node: Node) -> list[Node]:
        """All nodes that read ``node``."""
        return [n for n in self.nodes if node in n.input_nodes()]

    def validate(self) -> None:
        """Check that the graph is well-formed (SSA order, one output)."""
        seen: set[int] = set()
        for node in self.nodes:
            for used in node.input_nodes():
                if id(used) not in seen:
                    raise FXGraphError(
                        f"node {node.name!r} uses {used.name!r} before its definition"
                    )
            seen.add(id(node))
        if self.output_node is None:
            raise FXGraphError("graph has no output node")

    def format(self) -> str:
        """Readable multi-line dump of the graph."""
        return "\n".join(node.format() for node in self.nodes)

    def __str__(self) -> str:
        return self.format()


class GraphModule:
    """A graph plus the machinery to execute it on NumPy inputs."""

    def __init__(self, graph: Graph, name: str = "graph_module"):
        graph.validate()
        self.graph = graph
        self.name = name

    def __call__(self, **tensors) -> Any:
        from repro.core.fx.interpreter import Interpreter

        return Interpreter(self.graph).run(**tensors)

    def required_inputs(self) -> list[str]:
        """Names of the tensors the module needs at call time."""
        return [node.target for node in self.graph.placeholders]

    def print_readable(self) -> str:
        """Return a readable dump (mirrors ``GraphModule.print_readable``)."""
        header = f"def {self.name}({', '.join(self.required_inputs())}):"
        body = "\n".join("    " + line for line in self.graph.format().splitlines())
        return f"{header}\n{body}"


def linearize(nodes: Iterable[Node]) -> list[Node]:
    """Return nodes in a valid topological order (stable for already-ordered input)."""
    ordered: list[Node] = []
    placed: set[int] = set()
    pending = list(nodes)
    while pending:
        progressed = False
        remaining: list[Node] = []
        for node in pending:
            if all(id(dep) in placed for dep in node.input_nodes()):
                ordered.append(node)
                placed.add(id(node))
                progressed = True
            else:
                remaining.append(node)
        if not progressed:
            raise FXGraphError("cycle detected while linearizing graph nodes")
        pending = remaining
    return ordered
