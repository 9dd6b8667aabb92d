"""Reference routes that the engine does not need, kept for the tests.

Each helper answers by the definition, by a plain search or by the dense
build the engine used before, and takes the poset (or polynomial, or cross
section lattice, or lattice table, or what a poset builder takes) as its
first argument.  The engine in crosslat.poset_engine answers the same
questions, where it needs them, through one faster route; the tests
compare it against these.  The flag helpers stand in for parts of
crosslat.flags.  The theorem scan helpers take a cross section lattice
and stand in for parts of crosslat.theorem_suite.  The adjacency and
admissibility helpers at the end take the graph first and stand in for
crosslat.diagram and crosslat.crosslattice.
"""
from itertools import combinations

import numpy as np

from crosslat.diagram import format_nodeset, is_connected_subset, iter_nodes, node_bit
from crosslat.errors import EmptyIntervalError, GradednessError, PreconditionError
from crosslat.flags import _rank_sets
from crosslat.poset_engine import (
    CharPolynomial,
    FinitePoset,
    _row_blocks,
    boolean_lattice,
    posets_isomorphic,
)


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


def antichain_tower(width: int, levels: int = 15) -> FinitePoset:
    """Ordinal sum of a bottom, `levels` antichains of `width` elements and a top."""
    level = np.array([0] + [k for k in range(1, levels + 1) for _ in range(width)]
                     + [levels + 1])
    return FinitePoset((level[:, None] < level[None, :]) | np.eye(len(level), dtype=bool))


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


# -- flag counts --------------------------------------------------------------------


def flag_f_vector_by_rank_sets(p: FinitePoset) -> dict[tuple[int, ...], int]:
    """flag_f_vector(p) by one int64 vector-matrix product per rank set.

    The leq blocks between every two ranks are gathered first; the vector
    of a rank set s counts the chains with rank set s ending at each
    element of rank s[-1], and extends the vector of s[:-1] by one block.
    No overflow check: the caller keeps the counts below 2^63.
    """
    ranks = p.rank()
    n = ranks[p.top]
    layers: list[list[int]] = [[] for _ in range(n + 1)]
    for v, r in enumerate(ranks):
        layers[r].append(v)
    steps = {(a, b): p.leq[np.ix_(layers[a], layers[b])].astype(np.int64)
             for a, b in combinations(range(n), 2)}
    ends = {(): np.ones(1, dtype=np.int64)}
    out = {}
    for s in _rank_sets(n):
        vec = ends[s[:-1]] @ steps[((0,) + s)[-2:]] if s else ends[s]
        out[s] = int(vec.sum())
        # s + (n-1,) is the last extension of s[:-1]
        if s and s[-1] == n - 1:
            del ends[s[:-1]]
        else:
            ends[s] = vec
    return out


def subset_sums_by_loop(values, degree: int, sign: int) -> dict[tuple[int, ...], int]:
    """flags._subset_sums(values, degree, sign) by a Python loop per bit."""
    keys = _rank_sets(degree)
    masks = [sum(1 << (i - 1) for i in s) for s in keys]
    sums = [0] * len(keys)
    for key, mask in zip(keys, masks):
        sums[mask] = values.get(key, 0)
    for bit in (1 << b for b in range(degree - 1)):
        for mask in range(len(sums)):
            if mask & bit:
                sums[mask] += sign * sums[mask ^ bit]
    return {key: sums[mask] for key, mask in zip(keys, masks)}


# -- theorem scan -------------------------------------------------------------------


def relcomp_by_node_loop(lat, u: int, v: int) -> bool:
    """relcomp_criterion(lat, u, v) on two masks, one node of j0 & (v - u)
    at a time: each must have a neighbour in u."""
    lat.index(u)
    lat.index(v)
    if u & ~v:
        raise EmptyIntervalError(f"{format_nodeset(u)} is not below {format_nodeset(v)}")
    g = lat.graph
    for a in iter_nodes(v & ~u & lat.j0):
        if not g.neighbors(a) & u:
            return False
    return True


def mobius_by_node_loop(lat, u: int, v: int) -> int:
    """mobius_formula(lat, u, v) on two masks, through relcomp_by_node_loop."""
    lat.index(u)
    lat.index(v)
    if u & ~v or not relcomp_by_node_loop(lat, u, v):
        return 0
    return -1 if (v & ~u).bit_count() % 2 else 1


def join_irreducible_by_components(lat, u: int) -> bool:
    """join_irreducible_criterion(lat, u) on one mask, its j0 block's
    connectivity from the block's components."""
    lat.index(u)
    if u == 0:
        raise PreconditionError("the bottom element is not classified")
    inside = u & lat.j0
    outside = u & ~lat.j0
    if inside == 0:
        return u.bit_count() == 1
    if outside.bit_count() != 1 or not is_connected_subset(lat.graph, inside):
        return False
    return bool(lat.graph.adjacent_to_set(inside) & outside)


def interval_mismatches_by_loop(lat) -> int:
    """The theorem scan's interval mismatch count, with no memo.

    Every interval [x, y] of lat is built, and its relatively complemented,
    atomic and Boolean flags are computed afresh; it counts when they and
    relcomp_by_node_loop do not all agree.
    """
    poset = lat.to_poset()
    elements = lat.elements
    bad = 0
    for xi in range(poset.size):
        for yi in np.flatnonzero(poset.leq[xi]).tolist():
            inter = poset.interval_poset(xi, yi)
            flags = {relcomp_by_node_loop(lat, elements[xi], elements[yi]),
                     inter.is_relatively_complemented(), inter.is_atomic(), inter.is_boolean()}
            bad += len(flags) != 1
    return bad


def pair_mismatches_by_loop(lat) -> tuple[int, int, bool]:
    """The theorem scan's Mobius and meet/join mismatch counts and its
    covering flag, one ordered pair of elements at a time.

    A pair counts once when mobius_by_node_loop differs from poset.mobius, and
    once more for each of lat.meet and lat.join that differs from the
    element the engine's table gives.  The flag is False when some x
    covers x ^ y while y is not covered by x v y.
    """
    poset = lat.to_poset()
    elements = lat.elements
    cov = poset.covers.tolist()
    mobius_bad = table_bad = 0
    covering_ok = True
    for i, u in enumerate(elements):
        for j, v in enumerate(elements):
            if mobius_by_node_loop(lat, u, v) != poset.mobius(i, j):
                mobius_bad += 1
            m, jn = poset.meet(i, j), poset.join(i, j)
            if lat.meet(u, v) != elements[m]:
                table_bad += 1
            if lat.join(u, v) != elements[jn]:
                table_bad += 1
            if cov[m][i] and not cov[j][jn]:
                covering_ok = False
    return mobius_bad, table_bad, covering_ok


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
