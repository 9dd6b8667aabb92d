"""Finite node-labelled graphs and bitmask node sets.

Nodes are labelled 1..n.  A set of nodes is represented as a plain int
bitmask where bit (i - 1) stands for node i, so set operations are the
usual integer bit operations.  Capacity is fixed at 64 nodes.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InvalidEdgeError, InvalidSizeError, SizeLimitError

MAX_NODES = 64

PATH_KINDS = ("path_A", "path_B", "path_C")
CYCLE_KIND = "cycle"
CUSTOM_KIND = "custom"


def node_bit(i: int) -> int:
    return 1 << (i - 1)


def nodes_to_mask(nodes: Iterable[int]) -> int:
    mask = 0
    for i in nodes:
        mask |= node_bit(i)
    return mask


def mask_to_nodes(mask: int) -> tuple[int, ...]:
    return tuple(iter_nodes(mask))


def iter_nodes(mask: int) -> Iterator[int]:
    """Yield node labels of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def format_nodeset(mask: int) -> str:
    return "{" + ",".join(str(i) for i in iter_nodes(mask)) + "}"


def parse_nodeset(text: str) -> int:
    """Parse a node set literal such as ``{1,2,5}`` or ``{}``.

    Labels are ASCII digit strings naming nodes 1..MAX_NODES; any other
    label is refused before it is converted, so no label can ask for a
    huge int.
    """
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise InvalidSizeError(f"node set literal must be brace-delimited: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return 0
    mask = 0
    for part in body.split(","):
        part = part.strip()
        if not (part.isascii() and part.isdigit()):
            raise InvalidSizeError(f"bad node label {part!r} in {text!r}")
        digits = part.lstrip("0") or "0"
        # the length test comes first, so int() never sees a long label
        if len(digits) > len(str(MAX_NODES)) or int(digits) > MAX_NODES:
            raise InvalidSizeError(f"node labels run up to {MAX_NODES}")
        label = int(digits)
        if label < 1:
            raise InvalidSizeError(f"node labels start at 1, got {label}")
        mask |= node_bit(label)
    return mask


class CoxeterGraph:
    """Undirected simple graph on nodes 1..n with a recorded shape kind.

    The kind tag is for reporting only; equality and hashing look at the
    node count and edge set alone.
    """

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]],
                 kind: str = CUSTOM_KIND):
        if node_count < 1:
            raise InvalidSizeError(f"need at least one node, got {node_count}")
        if node_count > MAX_NODES:
            raise SizeLimitError(f"at most {MAX_NODES} nodes supported, got {node_count}")
        self.n = node_count
        self.kind = kind
        canon = set()
        for a, b in edges:
            if a == b:
                raise InvalidEdgeError(f"loop edge at node {a}")
            if not (1 <= a <= node_count and 1 <= b <= node_count):
                raise InvalidEdgeError(f"edge ({a},{b}) leaves 1..{node_count}")
            canon.add((min(a, b), max(a, b)))
        self.edges = frozenset(canon)
        # edges grouped by label distance d, each group as the mask of its
        # lower ends: a path has one group, a cycle two
        self._low_ends: dict[int, int] = {}
        for a, b in self.edges:
            self._low_ends[b - a] = self._low_ends.get(b - a, 0) | node_bit(a)
        self.full_mask = (1 << node_count) - 1

    def neighbors(self, i: int) -> int:
        """Bitmask of nodes adjacent to node i."""
        return self.adjacent_to_set(node_bit(i))

    def degree(self, i: int) -> int:
        return self.neighbors(i).bit_count()

    def adjacent_to_set(self, mask):
        """Nodes adjacent to a node of mask, an int or an unsigned array of masks."""
        out = mask & 0  # 0, or zeros shaped like an array mask
        for d, low in self._low_ends.items():
            out = out | ((mask & low) << d) | ((mask >> d) & low)
        return out

    def check_subset(self, mask: int) -> None:
        if mask & ~self.full_mask:
            raise InvalidSizeError(
                f"node set {format_nodeset(mask)} leaves 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoxeterGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CoxeterGraph(n={self.n}, kind={self.kind!r}, edges={sorted(self.edges)})"


def build_path_diagram(series: str, n: int) -> CoxeterGraph:
    """Path graph 1-2-...-n tagged as series A, B, or C.

    The three series share the same underlying graph; the tag is kept for
    reporting.  n = 1 is a single node, n = 0 is rejected.
    """
    series = series.upper()
    if f"path_{series}" not in PATH_KINDS:
        raise InvalidSizeError(f"unknown path series {series!r}")
    if n < 1:
        raise InvalidSizeError(f"path needs at least one node, got {n}")
    return CoxeterGraph(n, ((i, i + 1) for i in range(1, n)), kind=f"path_{series}")


def build_cycle_diagram(n: int) -> CoxeterGraph:
    """Cycle graph 1-2-...-n-1.  Needs n >= 3."""
    if n < 3:
        raise InvalidSizeError(f"cycle needs at least three nodes, got {n}")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((n, 1))
    return CoxeterGraph(n, edges, kind=CYCLE_KIND)


def build_custom_graph(n: int, edges: Iterable[tuple[int, int]]) -> CoxeterGraph:
    """Arbitrary simple graph on 1..n from an explicit edge list."""
    return CoxeterGraph(n, edges, kind=CUSTOM_KIND)


def reach(g: CoxeterGraph, seed, within):
    """seed grown by its neighbours in within to a fixed point, elementwise
    on ints or unsigned arrays of masks."""
    while True:
        grown = seed | (g.adjacent_to_set(seed) & within)
        # a plain == on an int: np.array_equal would cost more than the step
        if (grown == seed) if isinstance(grown, int) else (grown == seed).all():
            return grown
        seed = grown


def connected_components(g: CoxeterGraph, mask: int) -> list[int]:
    """Connected components of the subgraph induced by mask.

    Returned as bitmasks in increasing order of their minimum element.
    The empty set has no components.
    """
    g.check_subset(mask)
    out = []
    rest = mask
    while rest:
        comp = reach(g, rest & -rest, mask)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected_subset(g: CoxeterGraph, mask: int) -> bool:
    """Whether mask induces a connected subgraph.  Empty counts as connected."""
    return len(connected_components(g, mask)) <= 1


def end_nodes(g: CoxeterGraph) -> int:
    """Bitmask of nodes with degree exactly one."""
    return nodes_to_mask(i for i in range(1, g.n + 1) if g.degree(i) == 1)


def is_standard_path(g: CoxeterGraph) -> bool:
    """Whether the adjacency is exactly 1-2-...-n (labels in path order)."""
    return g == build_path_diagram("A", g.n)


def is_standard_cycle(g: CoxeterGraph) -> bool:
    """Whether the adjacency is exactly the cycle 1-2-...-n-1."""
    return g.n >= 3 and g == build_cycle_diagram(g.n)
