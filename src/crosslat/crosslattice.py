"""Lattices of admissible node subsets of a graph.

Fix a graph on nodes 1..n and a distinguished node set j0.  A subset u
is admissible when no connected component of u lies entirely inside j0,
that is when u equals its escaping part: the nodes joined inside u to a
node of u outside j0.  The admissible subsets ordered by inclusion form
a lattice: joins are unions, and the meet of u and v is the escaping
part of u & v.  Elements are single int bitmasks throughout.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .diagram import CoxeterGraph, iter_nodes, node_bit, reach
from .errors import EmptyIntervalError, MembershipError, SizeLimitError
from .poset_engine import FinitePoset, _popcount_sorted, _subset_order

# Full enumeration tests all 2**n subsets at once as uint32 arrays; refuse
# past this.  At 24 nodes the list of ints it returns dominates: path A 24
# with {2,4} marked (13.1 million elements) peaks at 598 MB RSS.  The uint32
# masks of _subset_order and the sort key popcount << n | mask need the assert.
MAX_ENUM_NODES = 24
assert (MAX_ENUM_NODES + 1) << MAX_ENUM_NODES <= 1 << 32

# The poset view holds dense N x N arrays.  The order and FinitePoset.covers
# take about 2 bytes per pair of elements on a cross section lattice, whose
# covers come from its ranks, and an analysis peaks at about 13 while it
# holds both int32 lattice tables and builds a Mobius row (248 MB peak RSS
# for path A 12 with nothing marked, 4,096 elements), so 12,000 elements
# keep an analysis near 2 GB.
MAX_POSET_ELEMENTS = 12_000


def _escaping(g: CoxeterGraph, j0_mask: int, m):
    """The components of m (an int or uint32 array) that reach outside j0."""
    return reach(g, m & (g.full_mask & ~j0_mask), m)


def is_admissible(g: CoxeterGraph, j0_mask: int, u_mask: int) -> bool:
    """Whether every connected component of u_mask reaches outside j0_mask."""
    g.check_subset(j0_mask)
    g.check_subset(u_mask)
    return _escaping(g, j0_mask, u_mask) == u_mask


def enumerate_lattice(g: CoxeterGraph, j0_mask: int) -> list[int]:
    """All admissible subsets, sorted by cardinality then mask value."""
    g.check_subset(j0_mask)
    if g.n > MAX_ENUM_NODES:
        raise SizeLimitError(
            f"enumeration capped at {MAX_ENUM_NODES} nodes, got {g.n}")
    cube = np.arange(1 << g.n, dtype=np.uint32)
    cube = cube[_escaping(g, j0_mask, cube) == cube]
    return _popcount_sorted(cube, g.n)


class CrossSectionLattice:
    """The lattice of admissible subsets for a fixed graph and j0."""

    def __init__(self, graph: CoxeterGraph, j0_mask: int):
        graph.check_subset(j0_mask)
        self.graph = graph
        self.j0 = int(j0_mask)
        self.elements: tuple[int, ...] = tuple(enumerate_lattice(graph, j0_mask))

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.elements)}

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
        return _escaping(self.graph, self.j0, u & v)

    def covers(self, u: int) -> list[int]:
        """Upper covers of u, which are exactly its one-node extensions.

        Any admissible v > u has a component C that meets v - u and reaches
        outside j0.  Either a node of C - u lies outside j0, or u holds a
        node of C outside j0 and, C being connected, a node of C - u touches
        u.  Adding that node to u keeps u admissible, as its new component
        reaches outside j0.  So every v > u lies above an admissible
        one-node extension of u; from u = 0 on, the lattice is graded by
        popcount, and each nonempty element stays admissible without some
        node.
        """
        u = self._check_member(u)
        grown = (u | node_bit(a) for a in iter_nodes(self.graph.full_mask & ~u))
        return [w for w in grown if w in self._index]

    def atoms(self) -> list[int]:
        return self.covers(0)

    @cached_property
    def _poset(self) -> FinitePoset:
        if self.size > MAX_POSET_ELEMENTS:
            raise SizeLimitError(
                f"poset view capped at {MAX_POSET_ELEMENTS} elements, got {self.size}")
        return FinitePoset._adopt(_subset_order(self.elements),
                                  ranks=tuple(map(int.bit_count, self.elements)))

    def to_poset(self) -> FinitePoset:
        """The engine's view of the lattice: index i is self.elements[i].

        Raises SizeLimitError above MAX_POSET_ELEMENTS elements, before
        any dense array is allocated.
        """
        return self._poset

    def interval(self, u: int, v: int) -> FinitePoset:
        """[u, v] as a poset: index i is the i-th w of elements with u <= w <= v."""
        u = self._check_member(u)
        v = self._check_member(v)
        if u & ~v:
            raise EmptyIntervalError(
                f"interval [{hex(u)}, {hex(v)}] is empty")
        return self._poset.interval_poset(self.index(u), self.index(v))
