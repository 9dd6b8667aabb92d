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
        return {
            "graph": self.graph,
            "n": self.n,
            "j0_mask": f"0x{self.j0_mask:x}",
            "criterion": self.criterion,
            "value": self.value,
            "oracle": self.oracle,
            "agree": self.agree,
            "note": self.note,
        }


def family_graph(kind: str, n: int) -> CoxeterGraph:
    if kind in PATH_KINDS:
        return build_path_diagram(kind[-1], n)
    if kind == CYCLE_KIND:
        return build_cycle_diagram(n)
    raise UnsupportedGraphError(f"unknown graph family {kind!r}")


# -- element and interval criteria -------------------------------------------


def relcomp_criterion(lat: CrossSectionLattice, u: int, v: int) -> bool:
    """Interval [u, v] is relatively complemented iff no node of
    j0 & (v - u) is isolated from u."""
    lat.index(u)
    lat.index(v)
    if u & ~v:
        raise EmptyIntervalError(f"{format_nodeset(u)} is not below {format_nodeset(v)}")
    g = lat.graph
    for a in iter_nodes(v & ~u & lat.j0):
        if not g.neighbors(a) & u:
            return False
    return True


def mobius_formula(lat: CrossSectionLattice, u: int, v: int) -> int:
    """Mobius value: a sign when [u, v] is relatively complemented, else 0."""
    lat.index(u)
    lat.index(v)
    if u & ~v:
        return 0
    if not relcomp_criterion(lat, u, v):
        return 0
    return -1 if (v & ~u).bit_count() % 2 else 1


def join_irreducible_criterion(lat: CrossSectionLattice, u: int) -> bool:
    """Join irreducible: one free node, or a connected j0 block plus one
    free node adjacent to it."""
    lat.index(u)
    if u == 0:
        raise PreconditionError("the bottom element is not classified")
    inside = u & lat.j0
    outside = u & ~lat.j0
    if inside == 0:
        return u.bit_count() == 1
    if outside.bit_count() != 1:
        return False
    if not is_connected_subset(lat.graph, inside):
        return False
    return bool(lat.graph.adjacent_to_set(inside) & outside)


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
    return CriterionReport(
        graph=lat.graph.kind,
        n=lat.graph.n,
        j0_mask=lat.j0,
        criterion="conjecture_chain_product",
        value=str(expected),
        oracle=str(actual) if actual is not None else "not-a-chain-product",
        agree=same_type and iso,
        note=SINGLE_FREE_NODE if flagged else "",
    )


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
    n = g.n
    j0 = lat.j0
    comps = connected_components(g, j0)
    predicate = all(c.bit_count() == 1 for c in comps)
    brute, wit = lat.to_poset().is_supersolvable_bruteforce()
    witness = tuple(lat.elements[i] for i in wit) if wit is not None else None

    free = g.full_mask & ~j0
    cut = None
    for c in range(1, n + 1):
        nxt = c % n + 1
        if free & node_bit(c) and free & node_bit(nxt):
            cut = c
            break
    path_j0 = None
    phi_matches = None
    if cut is not None:
        positions = {((cut - 1 + p) % n) + 1: p for p in range(1, n + 1)}

        def relabel(mask: int) -> int:
            out = 0
            for a in iter_nodes(mask):
                out |= node_bit(positions[a])
            return out

        path_j0 = relabel(j0)
        path_lat = CrossSectionLattice(build_path_diagram("A", n), path_j0)
        phi_matches = {relabel(u) for u in lat.elements} == set(path_lat.elements)
    return CircuitAnalysis(
        n=n,
        j0_mask=j0,
        size=lat.size,
        degenerate=lat.is_degenerate(),
        predicate_singletons=predicate,
        brute_supersolvable=brute,
        witness=witness,
        phi_applicable=cut is not None,
        path_j0_mask=path_j0,
        phi_matches=phi_matches,
    )


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
            names = ", ".join(f.replace("_", " ") for f in self.families)
            raise UnsupportedGraphError(f"scan runs on {names}, not {kind.replace('_', ' ')}")
        n_min = max(n_min, self.n_min)
        if n_max > MAX_SCAN_NODES:
            raise SizeLimitError(f"scans are capped at {MAX_SCAN_NODES} nodes")
        if n_max < n_min:
            raise InvalidSizeError(f"n_max must be at least {n_min}")
        return range(n_min, n_max + 1)


def _configs_by_n(scan: str, kind: str, n_min: int, n_max: int
                  ) -> Iterator[tuple[CoxeterGraph, Iterator[CrossSectionLattice]]]:
    """Each n's graph and configurations, in increasing n and j0."""
    rule = SCAN_RULES[scan]
    for n in rule.n_range(kind, n_max, n_min):
        g = family_graph(kind, n)
        j0s = range(g.full_mask) if rule.skips_degenerate else range(g.full_mask + 1)
        yield g, (CrossSectionLattice(g, j0) for j0 in j0s)


def theorem_equivalence_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Every closed-form criterion against its engine oracle, all j0."""
    rows: list[CriterionReport] = []
    for _, lats in _configs_by_n("theorems", kind, n_min, n_max):
        for lat in lats:
            _theorem_rows(lat, rows)
    return rows


def _theorem_rows(lat: CrossSectionLattice, rows: list[CriterionReport]) -> None:
    poset = lat.to_poset()
    g = lat.graph

    def report(criterion: str, value: str, oracle: str) -> None:
        rows.append(CriterionReport(g.kind, g.n, lat.j0, criterion,
                                    value, oracle, value == oracle))

    leq = poset.leq
    mismatch = 0
    for xi in range(poset.size):
        for yi in np.where(leq[xi, :])[0]:
            inter = poset.interval_poset(xi, int(yi))
            crit = relcomp_criterion(lat, lat.elements[xi], lat.elements[int(yi)])
            flags = {crit, inter.is_relatively_complemented(),
                     inter.is_atomic(), inter.is_boolean()}
            if len(flags) != 1:
                mismatch += 1
    report("interval_relcomp_atomic_boolean",
           "ok" if not mismatch else f"{mismatch} mismatches", "ok")

    mismatch = 0
    for xi in range(poset.size):
        for yi in range(poset.size):
            formula = mobius_formula(lat, lat.elements[xi], lat.elements[yi])
            if formula != poset.mobius(xi, yi):
                mismatch += 1
    report("interval_mobius_formula",
           "ok" if not mismatch else f"{mismatch} mismatches", "ok")

    crit_ji = {u for u in lat.elements[1:] if join_irreducible_criterion(lat, u)}
    brute_ji = {lat.elements[i] for i in poset.join_irreducibles()}
    report("join_irreducible_set",
           "ok" if crit_ji == brute_ji else "set mismatch", "ok")

    # one pass over pairs checks the meet/join formulas and Birkhoff's
    # covering condition: x covering x ^ y implies that x v y covers y
    cov = poset.covers.tolist()
    mismatch = 0
    covering_ok = True
    for i, u in enumerate(lat.elements):
        for j, v in enumerate(lat.elements):
            m, jn = poset.meet(i, j), poset.join(i, j)
            if lat.meet(u, v) != lat.elements[m]:
                mismatch += 1
            if lat.join(u, v) != lat.elements[jn]:
                mismatch += 1
            if cov[m][i] and not cov[j][jn]:
                covering_ok = False
    report("meet_glb_formula",
           "ok" if not mismatch else f"{mismatch} mismatches", "ok")
    report("upper_semimodularity",
           str(poset.is_upper_semimodular()), str(covering_ok))

    report("distributivity_free_connected",
           str(distributivity_criterion(lat)),
           str(poset.is_distributive_lattice()))

    brute, _ = poset.is_supersolvable_bruteforce()
    report("supersolvable_end_or_singleton",
           str(supersolvability_criterion(lat)), str(brute))


def supersolvable_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Path criterion against the modular-chain search, all j0."""
    rows = []
    for _, lats in _configs_by_n("supersolvable", kind, n_min, n_max):
        for lat in lats:
            crit = supersolvability_criterion(lat)
            brute, _ = lat.to_poset().is_supersolvable_bruteforce()
            rows.append(CriterionReport(lat.graph.kind, lat.graph.n, lat.j0,
                                        "supersolvable_end_or_singleton",
                                        str(crit), str(brute), crit == brute))
    return rows


def conjecture_charpoly_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Product-form characteristic polynomial against direct Mobius sums.

    Degenerate j0 (the full node set) is skipped: it corresponds to a
    zero highest weight, which the monoid setting excludes.
    """
    rows = []
    for _, lats in _configs_by_n("charpoly", kind, n_min, n_max):
        for lat in lats:
            direct = lat.to_poset().characteristic_polynomial()
            formula = charpoly_formula(lat)
            rows.append(CriterionReport(lat.graph.kind, lat.graph.n, lat.j0,
                                        "charpoly_product_form",
                                        str(formula), str(direct), formula == direct))
    return rows


def conjecture_chains_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Chain-product prediction on every distributive nondegenerate config."""
    return [conjecture_chains_check(lat)
            for _, lats in _configs_by_n("chains", kind, n_min, n_max)
            for lat in lats if distributivity_criterion(lat)]


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
    for g, lats in _configs_by_n("distributive-count", kind, n_min, n_max):
        types = set()
        product_posets = []
        nonproduct_posets = []
        for lat in lats:
            if not distributivity_criterion(lat):
                continue
            poset = lat.to_poset()
            fact = poset.chain_product_factorization()
            if fact is None:
                nonproduct_posets.append(poset)
            else:
                product_posets.append(poset)
                types.add(fact)

        def iso_classes(posets) -> int:
            reps = []
            for p in posets:
                if not any(posets_isomorphic(p, r) for r in reps):
                    reps.append(p)
            return len(reps)

        brute_classes = iso_classes(product_posets)
        extra = iso_classes(nonproduct_posets)
        rows.append(CriterionReport(
            g.kind, g.n, 0, "distributive_class_count",
            str(len(types)), str(brute_classes),
            len(types) == brute_classes,
            note=f"partitions={partition_count(g.n)};nonproduct_classes={extra}"))
    return rows


def inner_product_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """beta({1}) against the free node count; the two differ by one.

    Reported for inspection, not a theorem check: agree stays False on
    every row with at least two free nodes.
    """
    rows = []
    for _, lats in _configs_by_n("inner-product", kind, n_min, n_max):
        for lat in lats:
            poset = lat.to_poset()
            if poset.rank_of_top() < 2:
                continue
            beta1 = flag_beta(poset).get((1,), 0)
            free_count = (lat.graph.full_mask & ~lat.j0).bit_count()
            rows.append(CriterionReport(
                lat.graph.kind, lat.graph.n, lat.j0,
                "flag_beta1_vs_free_count",
                str(beta1), str(free_count), beta1 == free_count,
                note=f"beta1_plus_1={beta1 + 1};atoms={len(poset.atoms())}"))
    return rows


def circuit_scan(kind: str, n_max: int, n_min: int = 1) -> list[CriterionReport]:
    """Cycle-graph scan: path image equality and the singleton predicate.

    Rows for j0 without two adjacent free vertices carry a note; the
    singleton predicate is only proved under that hypothesis, and it
    genuinely fails outside it (a lone free vertex gives a supersolvable
    lattice through the chain symmetric around that vertex).
    """
    rows = []
    for g, lats in _configs_by_n("circuit", kind, n_min, n_max):
        for lat in lats:
            res = circuit_analysis(lat)
            if res.phi_applicable:
                rows.append(CriterionReport(
                    g.kind, g.n, lat.j0, "circuit_path_image",
                    "equal" if res.phi_matches else "different", "equal",
                    bool(res.phi_matches),
                    note=f"path_j0=0x{res.path_j0_mask:x}"))
            rows.append(CriterionReport(
                g.kind, g.n, lat.j0, "circuit_supersolvable_singletons",
                str(res.predicate_singletons), str(res.brute_supersolvable),
                res.predicate_singletons == res.brute_supersolvable,
                note="" if res.phi_applicable else NO_ADJACENT_FREE_PAIR))
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
