"""Reference routes that the engine does not need, kept for the tests.

Each helper answers by the definition, by a plain search or by the dense
build the engine used before, and takes the poset (or polynomial, or cross
section lattice, or lattice table, or what a poset builder takes) as its
first argument.  The engine in crosslat.poset_engine answers the same
questions, where it needs them, through one faster route; the tests
compare it against these.  The
theorem scan helper takes a cross section lattice and stands in for a part
of crosslat.theorem_suite.  The adjacency and admissibility helpers at the
end take the graph first and stand in for crosslat.diagram and
crosslat.crosslattice.
"""
import numpy as np

from crosslat.diagram import iter_nodes, node_bit
from crosslat.errors import GradednessError, PreconditionError
from crosslat.poset_engine import (
    CharPolynomial,
    FinitePoset,
    _row_blocks,
    boolean_lattice,
    posets_isomorphic,
)
from crosslat.theorem_suite import relcomp_criterion


def evaluate(poly: CharPolynomial, x: int) -> int:
    """The polynomial's value at x, by Horner's rule."""
    out = 0
    for c in reversed(poly.coeffs):
        out = out * x + c
    return out


# -- ranks -------------------------------------------------------------------------


def ranks_by_cover_loop(p: FinitePoset, cov: np.ndarray) -> tuple[int, ...]:
    """What rank() returns, from the cover matrix cov by a loop over elements.

    Injected ranks are returned as given.  Otherwise each element, in linext
    order, takes one more than the rank of its first lower cover, and every
    cover must then raise the rank by one.
    """
    if p._injected_ranks is not None:
        return p._injected_ranks
    if p.bottom is None:
        raise GradednessError("poset has no unique minimum")
    rank = np.full(p.size, -1, dtype=np.int64)
    rank[p.bottom] = 0
    for v in p.linext:
        if v == p.bottom:
            continue
        below = np.where(cov[:, v])[0]
        if len(below) == 0:
            raise GradednessError("second minimal element found")
        rank[v] = rank[below[0]] + 1
    src, dst = np.where(cov)
    if not (rank[dst] == rank[src] + 1).all():
        raise GradednessError("cover relation is not rank-consistent")
    return tuple(int(r) for r in rank)


# -- order builders ----------------------------------------------------------------


def boolean_lattice_by_outer_product(k: int) -> FinitePoset:
    """boolean_lattice(k), its order from one N x N int64 temporary."""
    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
    arr = np.asarray(masks, dtype=np.int64)
    return FinitePoset._adopt((arr[:, None] & ~arr[None, :]) == 0)


def chain_product_by_broadcast(sizes) -> FinitePoset:
    """chain_product_poset(sizes), its order from one N x N x k temporary."""
    coords = [()]
    for s in sizes:
        coords = [c + (v,) for c in coords for v in range(s)]
    coords.sort(key=lambda c: (sum(c), c))
    arr = np.asarray(coords, dtype=np.int64).reshape(len(coords), len(sizes))
    return FinitePoset._adopt((arr[:, None, :] <= arr[None, :, :]).all(axis=2))


def cross_section_poset_by_block_loop(lat) -> FinitePoset:
    """lat.to_poset(), its order from uint32 masks by a block loop of its own."""
    arr = np.asarray(lat.elements, dtype=np.uint32)
    leq = np.empty((lat.size, lat.size), dtype=bool)
    for rows in _row_blocks(lat.size, 5):
        leq[rows] = (arr[rows, None] & ~arr) == 0
    ranks = tuple(map(int.bit_count, lat.elements))
    return FinitePoset._adopt(leq, ranks=ranks)


# -- Mobius rows --------------------------------------------------------------------


def antichain_blocks(p: FinitePoset) -> list[np.ndarray]:
    """Antichains covering the poset, each after every block below it.

    A graded poset gives its rank levels; any other poset gives one
    element per block in linear-extension order.
    """
    try:
        ranks = np.asarray(p.rank())
    except GradednessError:
        return [np.array([v]) for v in p.linext]
    order = np.argsort(ranks, kind="stable")
    ends = np.bincount(ranks).cumsum().tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def mobius_by_antichain_blocks(p: FinitePoset, x: int) -> np.ndarray:
    """What mobius_from(x) returns, by Rota's recursion over gathered blocks.

    Each block's entries above x take minus the product of the whole row
    with the block's gathered columns of leq; no overflow check.
    """
    L = p.leq
    above = L[x].copy()
    above[x] = False
    mu = np.zeros(p.size, dtype=np.int64)
    mu[x] = 1
    for block in antichain_blocks(p):
        b = block[above[block]]
        if len(b):
            mu[b] = -(mu @ L[:, b])
    return mu


# -- interval tables ---------------------------------------------------------------


def _restricted(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A lattice table restricted to the sublattice idx, renumbered.

    An interval of a lattice is a sublattice, so this is its join or meet
    table; the engine builds an interval's tables from its own order.
    """
    pos = np.full(len(table), -1, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    return pos[table[np.ix_(idx, idx)]]


# -- derived posets and chains -------------------------------------------------------


def poset_from_cover_relations(n: int, covers) -> FinitePoset:
    """Reflexive-transitive closure of the given cover pairs on 0..n-1."""
    rel = np.eye(n, dtype=bool)
    for a, b in covers:
        rel[a, b] = True
    while True:
        grown = rel | (rel.astype(np.int64) @ rel > 0)
        if (grown == rel).all():
            return FinitePoset(rel)
        rel = grown


def dual(p: FinitePoset) -> FinitePoset:
    """The same elements with the order reversed."""
    return FinitePoset(p.leq.T)


def maximal_chains(p: FinitePoset) -> list[tuple[int, ...]]:
    """All inclusion-maximal chains, as index tuples bottom-up."""
    succ, _ = p._cover_lists
    minimals = np.flatnonzero(p.leq.sum(axis=0) == 1).tolist()
    out: list[tuple[int, ...]] = []
    stack = [(m, (m,)) for m in reversed(minimals)]
    while stack:
        v, chain = stack.pop()
        if not succ[v]:
            out.append(chain)
            continue
        for nxt in reversed(succ[v]):
            stack.append((nxt, chain + (nxt,)))
    return out


def lattice_maximal_chains(lat) -> list[tuple[int, ...]]:
    """Maximal chains of a CrossSectionLattice, as tuples of element masks."""
    return [tuple(lat.elements[i] for i in ch) for ch in maximal_chains(lat.to_poset())]


# -- symmetry ----------------------------------------------------------------------


def rank_counts(p: FinitePoset) -> tuple[int, ...]:
    return tuple(np.bincount(p.rank()).tolist())


def is_rank_symmetric(p: FinitePoset) -> bool:
    counts = rank_counts(p)
    return counts == counts[::-1]


def is_locally_rank_symmetric(p: FinitePoset) -> bool:
    """Every interval has a palindromic rank-count vector."""
    ranks = np.asarray(p.rank())
    L = p.leq
    for x in range(p.size):
        for y in np.flatnonzero(L[x, :]):
            idx = np.flatnonzero(L[x, :] & L[:, y])
            counts = np.bincount(ranks[idx] - ranks[x])
            if not (counts == counts[::-1]).all():
                return False
    return True


def is_self_dual(p: FinitePoset) -> bool:
    return posets_isomorphic(p, dual(p))


def is_locally_self_dual(p: FinitePoset) -> bool:
    """Every interval is isomorphic to its own dual.

    An interval isomorphic to one already confirmed, which then shares its
    rank-count vector, needs no test of its own against its dual.
    """
    confirmed: list[tuple[tuple[int, ...], FinitePoset]] = []
    for x in range(p.size):
        for y in np.flatnonzero(p.leq[x, :]).tolist():
            sub = p.interval_poset(x, y)
            key = rank_counts(sub)
            if any(ckey == key and posets_isomorphic(sub, rep) for ckey, rep in confirmed):
                continue
            if not is_self_dual(sub):
                return False
            confirmed.append((key, sub))
    return True


# -- modularity by the definition ---------------------------------------------------


def is_modular_pair(p: FinitePoset, a: int, b: int) -> bool:
    """Whether c v (a ^ b) = (c v a) ^ b for every c below b."""
    join, meet = p._lattice_tables()
    cs = np.flatnonzero(p.leq[:, b])
    return bool((join[cs, meet[a, b]] == meet[join[cs, a], b]).all())


def is_left_modular(p: FinitePoset, a: int) -> bool:
    """Whether (a, b) is a modular pair for every b."""
    join, meet = p._lattice_tables()
    lhs = join[:, meet[a, :]]
    rhs = meet[join[:, a], :]
    return bool(((lhs == rhs) | ~p.leq).all())


def is_right_modular(p: FinitePoset, b: int) -> bool:
    """Whether (a, b) is a modular pair for every a."""
    join, meet = p._lattice_tables()
    cs = np.flatnonzero(p.leq[:, b])
    lhs = join[np.ix_(cs, meet[:, b])]
    rhs = meet[join[cs, :], b]
    return bool((lhs == rhs).all())


def is_modular_lattice(p: FinitePoset) -> bool:
    """Whether the lattice is upper semimodular and every element modular."""
    return p.is_upper_semimodular() and bool(p.modular_element_mask().all())


# -- rank 3 shapes -----------------------------------------------------------------


def fence6_poset() -> FinitePoset:
    """Six-element rank-3 lattice with covers a<b, a<c, b<d, c<d, c<e, d<f, e<f."""
    return poset_from_cover_relations(
        6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])


def classify_rank3_interval(p: FinitePoset) -> str:
    """Tag a rank-3 bounded poset as boolean3, chain4, fence6, or other."""
    try:
        rtop = p.rank_of_top()
    except (GradednessError, PreconditionError) as exc:
        raise PreconditionError("classification needs a graded bounded poset") from exc
    if rtop != 3:
        raise PreconditionError(f"expected rank 3, got {rtop}")
    if p.size == 8 and posets_isomorphic(p, boolean_lattice(3)):
        return "boolean3"
    if p.size == 4:
        return "chain4"
    if p.size == 6 and posets_isomorphic(p, fence6_poset()):
        return "fence6"
    return "other"


# -- theorem scan -------------------------------------------------------------------


def interval_mismatches_by_loop(lat) -> int:
    """The theorem scan's interval mismatch count, with no memo.

    Every interval [x, y] of lat is built, and its relatively complemented,
    atomic and Boolean flags are computed afresh; it counts when they and
    relcomp_criterion do not all agree.
    """
    poset = lat.to_poset()
    elements = lat.elements
    bad = 0
    for xi in range(poset.size):
        for yi in np.flatnonzero(poset.leq[xi]).tolist():
            inter = poset.interval_poset(xi, yi)
            flags = {relcomp_criterion(lat, elements[xi], elements[yi]),
                     inter.is_relatively_complemented(), inter.is_atomic(), inter.is_boolean()}
            bad += len(flags) != 1
    return bad


# -- adjacency and admissibility ---------------------------------------------------


def adjacent_by_node_loop(g, mask: int) -> int:
    """g.adjacent_to_set(mask), as the OR of each node's neighbour mask."""
    adj = [0] * (g.n + 1)
    for a, b in g.edges:
        adj[a] |= node_bit(b)
        adj[b] |= node_bit(a)
    out = 0
    for i in iter_nodes(mask):
        out |= adj[i]
    return out


def admissible_extensions(g, j0: int, u: int):
    """Nodes whose addition to the admissible set u keeps it admissible.

    They are the nodes outside j0 or touching u: the node's new component
    then contains the node itself, or absorbs a component of u, which
    already reached outside j0.
    """
    return iter_nodes(g.full_mask & ~u & (~j0 | adjacent_by_node_loop(g, u)))


def enumerate_by_levels(g, j0: int) -> list[int]:
    """enumerate_lattice(g, j0) by the level step.

    Each popcount level grows from the one below by admissible
    extensions (see CrossSectionLattice.covers) and is sorted on its own.
    """
    out: list[int] = []
    level = [0]
    while level:
        out += level
        level = sorted({u | node_bit(a) for u in level
                        for a in admissible_extensions(g, j0, u)})
    return out
