"""Closed-form criteria for cross section lattices, with exhaustive scans.

Each criterion has a second, independent route through the generic poset
engine; scan functions run both on every configuration in range and
report agreement row by row.  A row's note field flags configurations
that sit outside a statement's scope (degenerate j0, single free node,
cycles without an adjacent free pair) so callers can exclude them from
hard assertions while still seeing the numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .crosslattice import CrossSectionLattice
from .diagram import (
    CYCLE_KIND,
    PATH_KINDS,
    CoxeterGraph,
    build_cycle_diagram,
    build_path_diagram,
    connected_components,
    end_nodes,
    format_nodeset,
    is_connected_subset,
    is_standard_cycle,
    is_standard_path,
    iter_nodes,
    node_bit,
    reach,
)
from .errors import (
    EmptyIntervalError,
    InvalidSizeError,
    PreconditionError,
    SizeLimitError,
    UnsupportedGraphError,
)
from .flags import flag_beta
from .poset_engine import CharPolynomial, chain_product_poset, posets_isomorphic

MAX_SCAN_NODES = 12

# Notes marking rows outside a statement's hypothesis; such rows are
# reported but never counted as disagreements.
NO_ADJACENT_FREE_PAIR = "no-adjacent-free-pair"
SINGLE_FREE_NODE = "single-free-node"
HYPOTHESIS_NOTES = frozenset({NO_ADJACENT_FREE_PAIR, SINGLE_FREE_NODE})


@dataclass(frozen=True)
class CriterionReport:
    """One criterion-versus-oracle comparison on one configuration."""

    graph: str
    n: int
    j0_mask: int
    criterion: str
    value: str
    oracle: str
    agree: bool
    note: str = ""

    def to_row(self) -> dict:
        return {**vars(self), "j0_mask": f"0x{self.j0_mask:x}"}


def _row(lat: CrossSectionLattice, criterion: str, value: str, oracle: str,
         agree: Optional[bool] = None, note: str = "") -> CriterionReport:
    """A report on lat's configuration; agree defaults to value == oracle."""
    return CriterionReport(lat.graph.kind, lat.graph.n, lat.j0, criterion, value, oracle,
                           value == oracle if agree is None else agree, note)


def _mismatches(count: int) -> str:
    return f"{count} mismatches" if count else "ok"


# The graph families that scans sweep and graph literals name
FAMILIES = (*PATH_KINDS, CYCLE_KIND)


def family_literal(kind: str) -> str:
    """A family's command-line spelling: path_A -> "path A", cycle -> "cycle"."""
    return kind.replace("_", " ")


def family_graph(kind: str, n: int) -> CoxeterGraph:
    if kind in PATH_KINDS:
        return build_path_diagram(kind[-1], n)
    if kind == CYCLE_KIND:
        return build_cycle_diagram(n)
    raise UnsupportedGraphError(f"unknown graph family {kind!r}")


# -- element and interval criteria -------------------------------------------


def relcomp_criterion(lat: CrossSectionLattice, u, v):
    """Interval [u, v] is relatively complemented iff every node of
    j0 & (v - u) has a neighbour in u.

    u and v are masks, and the answer a bool, or uint arrays of masks that
    broadcast together, and the answer a bool array: the one bit test
    v & ~u & j0 & ~adjacent_to_set(u) == 0 per pair.  Raises
    EmptyIntervalError when some u is not below its v.
    """
    lat.index(u)
    lat.index(v)
    outside = (u | v) != v
    if np.any(outside):
        u, v = np.broadcast_arrays(u, v)
        k = np.flatnonzero(outside)[0]
        raise EmptyIntervalError(f"{format_nodeset(int(u.flat[k]))} is not below "
                                 f"{format_nodeset(int(v.flat[k]))}")
    return _relcomp_bits(lat, u, v)


def _relcomp_bits(lat: CrossSectionLattice, u, v):
    """relcomp_criterion's bit test, unchecked.  (u | v) ^ u is v & ~u
    without ~u, which for an int u is negative and would not mix with a
    uint array v."""
    need = ((u | v) ^ u) & lat.j0
    return need & lat.graph.adjacent_to_set(u) == need


def mobius_formula(lat: CrossSectionLattice, u, v):
    """Mobius value: a sign when [u, v] is relatively complemented, else 0.

    Elementwise on masks, giving an int, or on uint arrays of masks that
    broadcast together, giving an array; a pair with u not below v gives 0.
    """
    lat.index(u)
    lat.index(v)
    sign = np.where(np.bitwise_count((u | v) ^ u) & 1, -1, 1)
    out = np.where(((u | v) == v) & _relcomp_bits(lat, u, v), sign, 0)
    return out if out.ndim else int(out)


def join_irreducible_criterion(lat: CrossSectionLattice, u):
    """Join irreducible: one free node, or a connected j0 block plus one
    free node adjacent to it.

    u is a mask, and the answer a bool, or a uint array of masks, and the
    answer a bool array.  The free node of an element touches its block:
    each component of an element reaches outside j0, so an element with
    one free node is connected.  So only the block is tested, for being
    all reached inside itself from its lowest node.  Raises
    PreconditionError when some u is the bottom.
    """
    lat.index(u)
    if not np.all(u):
        raise PreconditionError("the bottom element is not classified")
    if not isinstance(u, np.ndarray):
        u = int(u)  # a numpy scalar would warn on the negation below
    inside = u & lat.j0
    connected = reach(lat.graph, inside & -inside, inside) == inside
    out = (np.bitwise_count(u ^ inside) == 1) & connected
    return out if isinstance(out, np.ndarray) else bool(out)


# -- whole-lattice criteria ----------------------------------------------------


def distributivity_criterion(lat: CrossSectionLattice) -> bool:
    """Distributive iff the free nodes form a connected subgraph."""
    g = lat.graph
    if not is_connected_subset(g, g.full_mask):
        raise PreconditionError("criterion stated for connected graphs")
    return is_connected_subset(g, g.full_mask & ~lat.j0)


def supersolvability_criterion(lat: CrossSectionLattice) -> bool:
    """On a path: every j0 component is a singleton or touches an end node."""
    g = lat.graph
    if not is_standard_path(g):
        raise UnsupportedGraphError("criterion stated for path graphs")
    ends = end_nodes(g)
    for comp in connected_components(g, lat.j0):
        if comp.bit_count() > 1 and not comp & ends:
            return False
    return True


def construct_m_chain(lat: CrossSectionLattice) -> tuple[int, ...]:
    """A maximal chain of modular elements for a supersolvable path config.

    Free nodes enter in increasing label order; a j0 block attached to
    node 1 enters top-down so every step stays admissible; the rest of
    j0 enters in increasing order.
    """
    if not supersolvability_criterion(lat):
        raise PreconditionError("configuration fails the supersolvability criterion")
    if lat.is_degenerate():
        return (0,)
    g, j0 = lat.graph, lat.j0
    order: list[int] = list(iter_nodes(g.full_mask & ~j0))
    prefix = 0
    for comp in connected_components(g, j0):
        if comp & node_bit(1):
            prefix = comp
    order.extend(reversed(list(iter_nodes(prefix))))
    order.extend(iter_nodes(j0 & ~prefix))
    chain = [0]
    cur = 0
    for a in order:
        cur |= node_bit(a)
        chain.append(cur)
    return tuple(chain)


def charpoly_formula(lat: CrossSectionLattice) -> CharPolynomial:
    """x^|j0| (x-1)^(n-|j0|)."""
    n = lat.graph.n
    k = lat.j0.bit_count()
    return CharPolynomial.x_power_times_x_minus_one_power(k, n - k)


def stanley_factorization(lat: CrossSectionLattice, chain) -> CharPolynomial:
    """Product of (x - a_i) with a_i the atoms reached at step i of the chain."""
    chain = tuple(int(c) for c in chain)
    for mask in chain:
        lat.index(mask)
    top = lat.elements[-1]
    if not chain or chain[0] != 0 or chain[-1] != top:
        raise PreconditionError("chain must run from bottom to top")
    for a, b in zip(chain, chain[1:]):
        if a & ~b or (b & ~a).bit_count() != 1:
            raise PreconditionError("chain is not maximal")
    atom_mask = lat.graph.full_mask & ~lat.j0
    roots = [(b & ~a & atom_mask).bit_count() for a, b in zip(chain, chain[1:])]
    return CharPolynomial.from_roots(roots)


def combinatorially_smooth_typeA(lat: CrossSectionLattice) -> bool:
    """Four-shape list for type A paths: empty, proper prefix, proper
    suffix, or prefix plus suffix with at least two free nodes between."""
    g = lat.graph
    if g.kind != "path_A" or not is_standard_path(g):
        raise UnsupportedGraphError("smoothness list applies to type A paths")
    n = g.n
    if n < 2:
        raise UnsupportedGraphError("smoothness list starts at two nodes")
    j0 = lat.j0
    if j0 == 0:
        return True
    runs = []
    for comp in connected_components(g, j0):
        nodes = list(iter_nodes(comp))
        runs.append((nodes[0], nodes[-1]))
    if len(runs) == 1:
        lo, hi = runs[0]
        return (lo == 1 and hi < n) or (lo > 1 and hi == n)
    if len(runs) == 2:
        (lo1, hi1), (lo2, hi2) = runs
        return lo1 == 1 and hi2 == n and lo2 - hi1 >= 3
    return False


# -- conjectured product structure ----------------------------------------------


def conjecture_expected_sizes(lat: CrossSectionLattice) -> tuple[tuple[int, ...], bool]:
    """Predicted chain sizes for a prefix/suffix configuration on a path.

    With prefix length k and suffix starting at l, the prediction is
    C_(k+2) x C_(n-l+3) x C_2^(l-k-3).  A negative exponent happens
    exactly when a single free node remains; those rows are flagged.
    """
    g = lat.graph
    if not is_standard_path(g):
        raise UnsupportedGraphError("prediction stated for path graphs")
    if lat.is_degenerate() or not distributivity_criterion(lat):
        raise PreconditionError("prediction needs a nondegenerate prefix/suffix j0")
    n = g.n
    free = list(iter_nodes(g.full_mask & ~lat.j0))
    k = free[0] - 1
    l = free[-1] + 1
    exponent = l - k - 3
    sizes = (k + 2, n - l + 3) + (2,) * max(exponent, 0)
    return sizes, exponent < 0


def conjecture_chains_check(lat: CrossSectionLattice) -> CriterionReport:
    """Predicted chain product against the join-irreducible factorization
    and a direct isomorphism test."""
    sizes, flagged = conjecture_expected_sizes(lat)
    expected = tuple(sorted((s - 1 for s in sizes), reverse=True))
    poset = lat.to_poset()
    actual = poset.chain_product_factorization()
    same_type = actual == expected
    iso = posets_isomorphic(poset, chain_product_poset(sizes))
    return _row(lat, "conjecture_chain_product", str(expected),
                str(actual) if actual is not None else "not-a-chain-product",
                agree=same_type and iso, note=SINGLE_FREE_NODE if flagged else "")


# -- circuit variant ---------------------------------------------------------------


@dataclass(frozen=True)
class CircuitAnalysis:
    """Cycle-graph results: singleton predicate, brute force, and the
    cut-to-path relabeling when two adjacent free vertices exist."""

    n: int
    j0_mask: int
    size: int
    degenerate: bool
    predicate_singletons: bool
    brute_supersolvable: bool
    witness: Optional[tuple[int, ...]]
    phi_applicable: bool
    path_j0_mask: Optional[int]
    phi_matches: Optional[bool]


def circuit_analysis(lat: CrossSectionLattice) -> CircuitAnalysis:
    g = lat.graph
    if not is_standard_cycle(g):
        raise UnsupportedGraphError("circuit analysis needs a cycle graph")
    brute, wit = lat.to_poset().is_supersolvable_bruteforce()
    witness = tuple(lat.elements[i] for i in wit) if wit is not None else None
    path_j0, phi_matches = _path_image(lat)
    return CircuitAnalysis(
        n=g.n,
        j0_mask=lat.j0,
        size=lat.size,
        degenerate=lat.is_degenerate(),
        predicate_singletons=_singleton_components(lat),
        brute_supersolvable=brute,
        witness=witness,
        phi_applicable=path_j0 is not None,
        path_j0_mask=path_j0,
        phi_matches=phi_matches,
    )


def _singleton_components(lat: CrossSectionLattice) -> bool:
    return all(c.bit_count() == 1 for c in connected_components(lat.graph, lat.j0))


def _path_image(lat: CrossSectionLattice) -> tuple[Optional[int], Optional[bool]]:
    """Cut a cycle configuration between its first two adjacent free nodes.

    Returns the j0 of the path A configuration that the cut relabels it to
    and whether the relabeled elements are that configuration's, or
    (None, None) when no two adjacent nodes are free.
    """
    n = lat.graph.n
    full = lat.graph.full_mask
    free = full & ~lat.j0
    for cut in range(1, n + 1):
        if free & node_bit(cut) and free & node_bit(cut % n + 1):
            break
    else:
        return None, None

    def relabel(masks):
        # node cut + 1 becomes node 1 and node cut becomes node n: every
        # node set turns cut places right
        return ((masks >> cut) | (masks << (n - cut))) & full

    path_j0 = relabel(lat.j0)
    path_lat = CrossSectionLattice(build_path_diagram("A", n), path_j0)
    image = np.sort(relabel(np.array(lat.elements)))
    return path_j0, np.array_equal(image, np.sort(path_lat.elements))


# -- scans -------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRule:
    """How a scan is graded and which configurations it covers.

    A disagreement on a theorem-grade scan is a defect; on a
    conjecture-grade scan it is a recorded counterexample.  A scan that
    skips the degenerate j0 leaves out the full node set, one
    configuration per n.
    """

    theorem_grade: bool
    skips_degenerate: bool
    families: tuple[str, ...] = PATH_KINDS
    n_min: int = 1

    def n_range(self, kind: str, n_max: int, n_min: int = 1) -> range:
        """The node counts a scan of ``kind`` up to ``n_max`` runs over."""
        if kind not in self.families:
            names = ", ".join(map(family_literal, self.families))
            raise UnsupportedGraphError(f"scan runs on {names}, not {family_literal(kind)}")
        n_min = max(n_min, self.n_min)
        if n_max > MAX_SCAN_NODES:
            raise SizeLimitError(f"scans are capped at {MAX_SCAN_NODES} nodes")
        if n_max < n_min:
            raise InvalidSizeError(f"n_max must be at least {n_min}")
        return range(n_min, n_max + 1)


def _automorphisms(kind: str, n: int) -> list[tuple[int, ...]]:
    """Node relabelings that map the family's n-node graph onto itself.

    They form a group, perm[i] is the image of node i + 1, less one, and
    the identity comes first.  A path has its mirror, and a cycle its
    rotations and reflections.
    """
    if kind == CYCLE_KIND:
        return ([tuple((i + k) % n for i in range(n)) for k in range(n)]
                + [tuple((k - i) % n for i in range(n)) for k in range(n)])
    return [tuple(range(n)), tuple(range(n - 1, -1, -1))]


def _configs_by_n(scan: str, kind: str, n_min: int, n_max: int
                  ) -> Iterator[tuple[CoxeterGraph, Iterator[CrossSectionLattice]]]:
    """Each n's graph and its lattices, in increasing n and j0."""
    rule = SCAN_RULES[scan]
    for n in rule.n_range(kind, n_max, n_min):
        g = family_graph(kind, n)
        j0s = range(g.full_mask) if rule.skips_degenerate else range(g.full_mask + 1)
        yield g, (CrossSectionLattice(g, j0) for j0 in j0s)


def _by_orbit(scan: str, kind: str, n_min: int, n_max: int, oracle
              ) -> Iterator[tuple[CrossSectionLattice, object]]:
    """Each configuration with oracle(its poset), run once per orbit.

    The orbits are those of j0 under _automorphisms: per n, one table per
    relabeling holds the image of every node set, and a configuration's
    representative is the least image of its j0.  The representative
    comes first and runs the oracle.  Every other configuration reuses
    that value once its elements, relabeled onto the representative, are
    the representative's: the relabeling is then an isomorphism of the two
    inclusion orders, whether or not it keeps the graph's edges, so the
    value is the configuration's own.  Otherwise it raises RuntimeError.
    """
    for g, lattices in _configs_by_n(scan, kind, n_min, n_max):
        perms = _automorphisms(kind, g.n)
        masks = np.arange(g.full_mask + 1)
        tables = np.zeros((len(perms), len(masks)), dtype=masks.dtype)
        for table, perm in zip(tables, perms):
            for i, image in enumerate(perm):
                table |= ((masks >> i) & 1) << image
        best = tables.argmin(axis=0).tolist()
        known: dict[int, tuple[np.ndarray, object]] = {}
        for lat in lattices:
            relabel = tables[best[lat.j0]]
            rep = int(relabel[lat.j0])
            elements = np.sort(relabel[np.array(lat.elements)])
            if rep == lat.j0:
                known[rep] = (elements, oracle(lat.to_poset()))
            elif not np.array_equal(elements, known[rep][0]):
                raise RuntimeError(f"relabeling maps j0=0x{lat.j0:x} outside the lattice "
                                   f"of its orbit representative j0=0x{rep:x}")
            yield lat, known[rep][1]


def theorem_equivalence_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Every closed-form criterion against its engine oracle, all j0."""
    rows: list[CriterionReport] = []
    interval_flags: dict[bytes, tuple[bool, bool, bool]] = {}
    for _, lattices in _configs_by_n("theorems", kind, n_min, n_max):
        for lat in lattices:
            _theorem_rows(lat, rows, interval_flags)
    return rows


def _theorem_rows(lat: CrossSectionLattice, rows: list[CriterionReport],
                  interval_flags: dict[bytes, tuple[bool, bool, bool]]) -> None:
    """Append lat's rows.

    interval_flags maps an interval's order matrix, as bytes, to its
    relatively complemented, atomic and Boolean flags.  Each flag reads
    only that matrix (its covers, grading, bottom, top and tables all
    follow from it), so an interval whose matrix is already a key takes
    the cached flags.  The criterion, the Mobius and meet/join formulas and
    the covering condition each run once over whole arrays of pairs.
    """
    poset = lat.to_poset()
    elements = lat.elements
    masks = np.array(elements, dtype=np.uint32)

    # each interval's ends, in the row-major order of leq
    bottoms, tops = np.nonzero(poset.leq)
    crits = relcomp_criterion(lat, masks[bottoms], masks[tops])
    interval_bad = 0
    for xi, yi, crit in zip(bottoms.tolist(), tops.tolist(), crits.tolist()):
        inter = poset.interval_poset(xi, yi)
        key = inter.leq.tobytes()
        flags = interval_flags.get(key)
        if flags is None:
            flags = interval_flags[key] = (inter.is_relatively_complemented(),
                                           inter.is_atomic(), inter.is_boolean())
        if len({crit, *flags}) != 1:
            interval_bad += 1

    # all ordered pairs (x, y) at once, x down the rows: the Mobius formula
    # against the Mobius rows, the meet/join formulas against the tables,
    # and Birkhoff's covering condition, that x covering x ^ y implies that
    # x v y covers y
    xs = np.arange(poset.size)[:, None]
    ys = xs.T
    us, vs = masks[xs], masks[ys]
    mu = np.stack([poset.mobius_from(x) for x in range(poset.size)])
    mobius_bad = np.count_nonzero(mobius_formula(lat, us, vs) != np.where(poset.leq, mu, 0))
    meets, joins = poset.meet(xs, ys), poset.join(xs, ys)
    table_bad = (np.count_nonzero(lat.meet(us, vs) != masks[meets])
                 + np.count_nonzero(lat.join(us, vs) != masks[joins]))
    cov = poset.covers
    covering_ok = not (cov[meets, xs] & ~cov[ys, joins]).any()

    crit_ji = set(masks[1:][join_irreducible_criterion(lat, masks[1:])].tolist())
    brute_ji = {elements[i] for i in poset.join_irreducibles()}
    rows.extend([
        _row(lat, "interval_relcomp_atomic_boolean", _mismatches(interval_bad), "ok"),
        _row(lat, "interval_mobius_formula", _mismatches(mobius_bad), "ok"),
        _row(lat, "join_irreducible_set",
             "ok" if crit_ji == brute_ji else "set mismatch", "ok"),
        _row(lat, "meet_glb_formula", _mismatches(table_bad), "ok"),
        _row(lat, "upper_semimodularity",
             str(poset.is_upper_semimodular()), str(covering_ok)),
        _row(lat, "distributivity_free_connected",
             str(distributivity_criterion(lat)), str(poset.is_distributive_lattice())),
        _row(lat, "supersolvable_end_or_singleton",
             str(supersolvability_criterion(lat)),
             str(poset.is_supersolvable_bruteforce()[0])),
    ])


def supersolvable_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Path criterion against the modular-chain search, all j0."""
    return [_row(lat, "supersolvable_end_or_singleton",
                 str(supersolvability_criterion(lat)), str(brute))
            for lat, brute in _by_orbit("supersolvable", kind, n_min, n_max,
                                        _brute_supersolvable)]


def _brute_supersolvable(poset) -> bool:
    return poset.is_supersolvable_bruteforce()[0]


def conjecture_charpoly_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Product-form characteristic polynomial against direct Mobius sums.

    Degenerate j0 (the full node set) is skipped: it corresponds to a
    zero highest weight, which the monoid setting excludes.
    """
    return [_row(lat, "charpoly_product_form", str(charpoly_formula(lat)), direct)
            for lat, direct in _by_orbit("charpoly", kind, n_min, n_max,
                                         lambda p: str(p.characteristic_polynomial()))]


def conjecture_chains_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Chain-product prediction on every distributive nondegenerate config."""
    return [conjecture_chains_check(lat)
            for _, lattices in _configs_by_n("chains", kind, n_min, n_max)
            for lat in lattices if distributivity_criterion(lat)]


def partition_count(n: int) -> int:
    """Number of integer partitions of n."""

    @lru_cache(maxsize=None)
    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(remaining, largest), 0, -1))

    return count(n, n)


def distributive_count_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Distinct chain-product lattices per n: factorization types against
    a brute isomorphism classification."""
    rows = []
    for g, lattices in _configs_by_n("distributive-count", kind, n_min, n_max):
        types = set()
        # one representative poset per isomorphism class, the chain
        # products apart from the rest
        products: list = []
        others: list = []
        for lat in lattices:
            if not distributivity_criterion(lat):
                continue
            poset = lat.to_poset()
            fact = poset.chain_product_factorization()
            if fact is not None:
                types.add(fact)
            reps = others if fact is None else products
            if not any(posets_isomorphic(poset, r) for r in reps):
                reps.append(poset)
        rows.append(CriterionReport(
            g.kind, g.n, 0, "distributive_class_count",
            str(len(types)), str(len(products)), len(types) == len(products),
            note=f"partitions={partition_count(g.n)};nonproduct_classes={len(others)}"))
    return rows


def inner_product_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """beta({1}) against the free node count; the two differ by one.

    Reported for inspection, not a theorem check: agree stays False on
    every row with at least two free nodes.  Lattices of rank below 2 are
    left out.
    """
    def beta1_and_atoms(p):
        return (flag_beta(p).get((1,), 0), len(p.atoms())) if p.rank_of_top() >= 2 else None

    rows = []
    for lat, flag in _by_orbit("inner-product", kind, n_min, n_max, beta1_and_atoms):
        if flag is not None:
            beta1, atoms = flag
            free_count = (lat.graph.full_mask & ~lat.j0).bit_count()
            rows.append(_row(lat, "flag_beta1_vs_free_count", str(beta1), str(free_count),
                             note=f"beta1_plus_1={beta1 + 1};atoms={atoms}"))
    return rows


def circuit_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Cycle-graph scan: path image equality and the singleton predicate.

    Rows for j0 without two adjacent free vertices carry a note; the
    singleton predicate is only proved under that hypothesis, and it
    genuinely fails outside it (a lone free vertex gives a supersolvable
    lattice through the chain symmetric around that vertex).
    """
    rows = []
    for lat, brute in _by_orbit("circuit", kind, n_min, n_max, _brute_supersolvable):
        path_j0, phi_matches = _path_image(lat)
        if path_j0 is not None:
            rows.append(_row(lat, "circuit_path_image",
                             "equal" if phi_matches else "different", "equal",
                             note=f"path_j0=0x{path_j0:x}"))
        rows.append(_row(lat, "circuit_supersolvable_singletons",
                         str(_singleton_components(lat)), str(brute),
                         note="" if path_j0 is not None else NO_ADJACENT_FREE_PAIR))
    return rows


SCAN_FUNCTIONS = {
    "theorems": theorem_equivalence_scan,
    "supersolvable": supersolvable_scan,
    "charpoly": conjecture_charpoly_scan,
    "chains": conjecture_chains_scan,
    "distributive-count": distributive_count_scan,
    "inner-product": inner_product_scan,
    "circuit": circuit_scan,
}

# One rule per scan name; the entries hold no functions, so tools that
# rewrap the values of SCAN_FUNCTIONS leave this table alone.
SCAN_RULES = {
    "theorems": ScanRule(theorem_grade=True, skips_degenerate=False),
    "supersolvable": ScanRule(theorem_grade=True, skips_degenerate=False),
    "charpoly": ScanRule(theorem_grade=False, skips_degenerate=True),
    "chains": ScanRule(theorem_grade=False, skips_degenerate=True),
    "distributive-count": ScanRule(theorem_grade=True, skips_degenerate=True),
    "inner-product": ScanRule(theorem_grade=False, skips_degenerate=True),
    "circuit": ScanRule(theorem_grade=True, skips_degenerate=True,
                        families=(CYCLE_KIND,), n_min=3),
}
