"""Lattices of admissible node subsets of a graph.

Fix a graph on nodes 1..n and a distinguished node set j0.  A subset u
is admissible when no connected component of u lies entirely inside j0.
The admissible subsets ordered by inclusion form a lattice: joins are
unions, and the meet of u and v keeps the components of u & v that
reach outside j0.  Elements are single int bitmasks throughout.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .diagram import CoxeterGraph, connected_components, iter_nodes, node_bit
from .errors import EmptyIntervalError, MembershipError, SizeLimitError
from .poset_engine import FinitePoset, _subset_order

# Full enumeration is exponential in the node count; refuse past this.
# _subset_order builds the order from uint32 masks, so it must stay <= 32.
MAX_ENUM_NODES = 24
assert MAX_ENUM_NODES <= 32

# The poset view holds dense N x N arrays.  The order and FinitePoset.covers
# take about 2 bytes per pair of elements on a cross section lattice, whose
# covers come from its ranks, and an analysis peaks at about 13 while it
# holds both int32 lattice tables and builds a Mobius row (248 MB peak RSS
# for path A 12 with nothing marked, 4,096 elements), so 12,000 elements
# keep an analysis near 2 GB.
MAX_POSET_ELEMENTS = 12_000


def is_admissible(g: CoxeterGraph, j0_mask: int, u_mask: int) -> bool:
    """Whether every connected component of u_mask reaches outside j0_mask."""
    g.check_subset(j0_mask)
    g.check_subset(u_mask)
    for comp in connected_components(g, u_mask):
        if not comp & ~j0_mask:
            return False
    return True


def _admissible_extensions(g: CoxeterGraph, j0_mask: int, u_mask: int) -> Iterator[int]:
    """Nodes whose addition to an admissible set stays admissible.

    Adding a node keeps admissibility exactly when the node is outside
    j0 or touches the current set, since its new component then either
    contains the node itself or absorbs a component that already
    reached outside j0.
    """
    reach = ~j0_mask | g.adjacent_to_set(u_mask)
    for alpha in iter_nodes(g.full_mask & ~u_mask & reach):
        yield alpha


def enumerate_lattice(g: CoxeterGraph, j0_mask: int) -> list[int]:
    """All admissible subsets, sorted by cardinality then mask value.

    A nonempty admissible set stays admissible without some node (a leaf
    of a spanning tree of one of its components, other than a node of
    that component outside j0), so each rank grows from the one below by
    the rule of _admissible_extensions, and each level is sorted on its
    own.
    """
    g.check_subset(j0_mask)
    if g.n > MAX_ENUM_NODES:
        raise SizeLimitError(
            f"enumeration capped at {MAX_ENUM_NODES} nodes, got {g.n}")
    steps = [(node_bit(a), not j0_mask & node_bit(a), g.neighbors(a))
             for a in range(1, g.n + 1)]
    out: list[int] = []
    level = [0]
    while level:
        out += level
        level = sorted({u | bit for u in level for bit, free, nb in steps
                        if not u & bit and (free or u & nb)})
    return out


class CrossSectionLattice:
    """The lattice of admissible subsets for a fixed graph and j0."""

    def __init__(self, graph: CoxeterGraph, j0_mask: int):
        graph.check_subset(j0_mask)
        self.graph = graph
        self.j0 = int(j0_mask)
        self.elements: tuple[int, ...] = tuple(enumerate_lattice(graph, j0_mask))
        self._index = {m: i for i, m in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def is_degenerate(self) -> bool:
        """True when j0 is the whole node set and only the empty set remains."""
        return self.j0 == self.graph.full_mask and self.graph.n > 0

    def index(self, mask: int) -> int:
        try:
            return self._index[mask]
        except KeyError:
            raise MembershipError(f"{hex(mask)} is not an element") from None

    def _check_member(self, mask: int) -> int:
        self.index(mask)
        return int(mask)

    def rank(self, mask: int) -> int:
        return self._check_member(mask).bit_count()

    def leq(self, u: int, v: int) -> bool:
        u = self._check_member(u)
        v = self._check_member(v)
        return u & ~v == 0

    def join(self, u: int, v: int) -> int:
        u = self._check_member(u)
        v = self._check_member(v)
        return u | v

    def meet(self, u: int, v: int) -> int:
        """Union of the components of the intersection that escape j0."""
        u = self._check_member(u)
        v = self._check_member(v)
        out = 0
        for comp in connected_components(self.graph, u & v):
            if comp & ~self.j0:
                out |= comp
        return out

    def covers(self, u: int) -> list[int]:
        """Upper covers of u, which are exactly its one-node extensions."""
        u = self._check_member(u)
        return [u | node_bit(a) for a in _admissible_extensions(self.graph, self.j0, u)]

    def atoms(self) -> list[int]:
        return self.covers(0)

    @cached_property
    def _poset(self) -> FinitePoset:
        if self.size > MAX_POSET_ELEMENTS:
            raise SizeLimitError(
                f"poset view capped at {MAX_POSET_ELEMENTS} elements, got {self.size}")
        return FinitePoset._adopt(_subset_order(self.elements), labels=self.elements,
                                  ranks=tuple(map(int.bit_count, self.elements)))

    def to_poset(self) -> FinitePoset:
        """Index-based poset view; labels carry the element masks.

        Raises SizeLimitError above MAX_POSET_ELEMENTS elements, before
        any dense array is allocated.
        """
        return self._poset

    def interval(self, u: int, v: int) -> FinitePoset:
        u = self._check_member(u)
        v = self._check_member(v)
        if u & ~v:
            raise EmptyIntervalError(
                f"interval [{hex(u)}, {hex(v)}] is empty")
        return self._poset.interval_poset(self.index(u), self.index(v))
