"""Closed-form criteria against the generic poset engine."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_routes import (
    interval_mismatches_by_loop,
    join_irreducible_by_components,
    mobius_by_node_loop,
    pair_mismatches_by_loop,
    relcomp_by_node_loop,
)

from crosslat import theorem_suite
from crosslat.crosslattice import CrossSectionLattice
from crosslat.diagram import (
    CYCLE_KIND,
    PATH_KINDS,
    build_custom_graph,
    build_cycle_diagram,
    build_path_diagram,
    nodes_to_mask,
)
from crosslat.errors import (
    EmptyIntervalError,
    InvalidSizeError,
    MembershipError,
    PreconditionError,
    SizeLimitError,
    UnsupportedGraphError,
)
from crosslat.poset_engine import FinitePoset, chain_product_poset, posets_isomorphic
from crosslat.theorem_suite import (
    MAX_SCAN_NODES,
    SCAN_FUNCTIONS,
    SCAN_RULES,
    charpoly_formula,
    circuit_analysis,
    circuit_scan,
    combinatorially_smooth_typeA,
    conjecture_chains_check,
    conjecture_chains_scan,
    conjecture_charpoly_scan,
    conjecture_expected_sizes,
    construct_m_chain,
    distributive_count_scan,
    distributivity_criterion,
    family_graph,
    inner_product_scan,
    join_irreducible_criterion,
    mobius_formula,
    partition_count,
    relcomp_criterion,
    stanley_factorization,
    supersolvability_criterion,
    supersolvable_scan,
    theorem_equivalence_scan,
)


def path_lattice(n, j0_nodes, kind="A"):
    g = build_path_diagram(kind, n)
    return CrossSectionLattice(g, nodes_to_mask(j0_nodes))


def mask(g, nodes):
    return nodes_to_mask(nodes)


# -- interval criteria --------------------------------------------------------


def test_relcomp_and_mobius_match_engine_exhaustively():
    for j0 in range(1 << 4):
        lat = path_lattice(4, {a + 1 for a in range(4) if j0 >> a & 1})
        poset = lat.to_poset()
        for i, u in enumerate(lat.elements):
            for j, v in enumerate(lat.elements):
                assert mobius_formula(lat, u, v) == poset.mobius(i, j)
                if u & ~v == 0:
                    sub = poset.interval_poset(i, j)
                    assert relcomp_criterion(lat, u, v) == sub.is_relatively_complemented()


def test_relcomp_rejects_non_interval():
    lat = path_lattice(3, {2})
    g = lat.graph
    with pytest.raises(EmptyIntervalError):
        relcomp_criterion(lat, mask(g, {1}), mask(g, {3}))


def test_six_element_interval_is_not_relatively_complemented():
    # the rank-3 interval with a pendant middle element has mobius 0
    lat = path_lattice(8, {3, 6, 7})
    g = lat.graph
    u = mask(g, {7, 8})
    v = mask(g, {1, 2, 3, 7, 8})
    assert not relcomp_criterion(lat, u, v)
    assert mobius_formula(lat, u, v) == 0


@st.composite
def small_lattices(draw):
    """A path, a cycle or a drawn graph on at most 6 nodes, with a drawn j0."""
    kind = draw(st.sampled_from(("path", "cycle", "drawn")))
    if kind == "path":
        g = build_path_diagram("A", draw(st.integers(min_value=1, max_value=6)))
    elif kind == "cycle":
        g = build_cycle_diagram(draw(st.integers(min_value=3, max_value=6)))
    else:
        n = draw(st.integers(min_value=1, max_value=6))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = build_custom_graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])
    return CrossSectionLattice(g, draw(st.integers(min_value=0, max_value=g.full_mask)))


def element_pairs(lat):
    """Every ordered pair of elements, x down the rows: indices and masks."""
    xs = np.arange(lat.size)[:, None]
    masks = np.array(lat.elements, dtype=np.uint32)
    return xs, xs.T, masks[xs], masks[xs.T]


@given(small_lattices())
@settings(max_examples=100, deadline=None)
def test_array_calls_equal_scalar_calls(lat):
    poset = lat.to_poset()
    xs, ys, us, vs = element_pairs(lat)
    tables = {
        "poset.join": (poset.join(xs, ys), lambda i, j, u, v: poset.join(i, j)),
        "poset.meet": (poset.meet(xs, ys), lambda i, j, u, v: poset.meet(i, j)),
        "lat.join": (lat.join(us, vs), lambda i, j, u, v: lat.join(u, v)),
        "lat.meet": (lat.meet(us, vs), lambda i, j, u, v: lat.meet(u, v)),
        "mobius_formula": (mobius_formula(lat, us, vs),
                           lambda i, j, u, v: mobius_formula(lat, u, v)),
    }
    for name, (table, scalar) in tables.items():
        assert table.shape == (lat.size, lat.size), name
        expected = [[scalar(i, j, u, v) for j, v in enumerate(lat.elements)]
                    for i, u in enumerate(lat.elements)]
        assert table.tolist() == expected, name
    assert type(poset.join(0, 0)) is int and type(lat.meet(0, 0)) is int
    assert type(mobius_formula(lat, 0, 0)) is int

    below, above = np.nonzero(poset.leq)
    masks = us.ravel()
    crits = relcomp_criterion(lat, masks[below], masks[above])
    assert crits.tolist() == [relcomp_criterion(lat, lat.elements[i], lat.elements[j])
                              for i, j in zip(below.tolist(), above.tolist())]


@given(small_lattices(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_non_member_in_an_array_is_refused(lat, data):
    _, _, us, vs = element_pairs(lat)
    outsiders = [m for m in range(lat.graph.full_mask + 2) if m not in lat]
    bad = us.copy()
    bad[data.draw(st.integers(min_value=0, max_value=lat.size - 1)), 0] = \
        data.draw(st.sampled_from(outsiders))
    for call in (lat.join, lat.meet, lambda u, v: relcomp_criterion(lat, u, v),
                 lambda u, v: mobius_formula(lat, u, v)):
        with pytest.raises(MembershipError):
            call(bad, vs)
        with pytest.raises(MembershipError):
            call(vs, bad)


@given(small_lattices(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_pair_not_below_is_refused(lat, data):
    poset = lat.to_poset()
    masks = np.array(lat.elements, dtype=np.uint32)
    below, above = np.nonzero(poset.leq)
    apart = np.argwhere(~poset.leq)
    if not len(apart):
        return
    i, j = apart[data.draw(st.integers(min_value=0, max_value=len(apart) - 1))]
    at = data.draw(st.integers(min_value=0, max_value=len(below)))
    us = np.insert(masks[below], at, masks[i])
    vs = np.insert(masks[above], at, masks[j])
    with pytest.raises(EmptyIntervalError):
        relcomp_criterion(lat, us, vs)
    assert mobius_formula(lat, us, vs)[at] == 0


def test_bit_test_matches_the_node_loop_on_paths_and_cycles():
    graphs = ([build_path_diagram("A", n) for n in range(1, 7)]
              + [build_cycle_diagram(n) for n in range(3, 7)])
    for g in graphs:
        for j0 in range(g.full_mask + 1):
            lat = CrossSectionLattice(g, j0)
            _, _, us, vs = element_pairs(lat)
            masks = us.ravel()
            below, above = np.nonzero(lat.to_poset().leq)
            crits = relcomp_criterion(lat, masks[below], masks[above])
            assert crits.tolist() == [relcomp_by_node_loop(lat, u, v) for u, v in
                                      zip(masks[below].tolist(), masks[above].tolist())], (g, j0)
            assert mobius_formula(lat, us, vs).ravel().tolist() == [
                mobius_by_node_loop(lat, u, v) for u in lat.elements for v in lat.elements], \
                (g, j0)


def test_join_irreducibles_match_bruteforce():
    lat = path_lattice(4, {2, 3})
    poset = lat.to_poset()
    crit = {u for u in lat.elements[1:] if join_irreducible_criterion(lat, u)}
    brute = {lat.elements[i] for i in poset.join_irreducibles()}
    assert crit == brute
    g = lat.graph
    assert mask(g, {1}) in crit
    assert mask(g, {1, 2, 3}) in crit
    assert mask(g, {1, 4}) not in crit


def test_join_irreducible_rejects_bottom():
    lat = path_lattice(3, {2})
    with pytest.raises(PreconditionError):
        join_irreducible_criterion(lat, 0)
    with pytest.raises(PreconditionError):
        join_irreducible_criterion(lat, np.array(lat.elements, dtype=np.uint32))


def test_join_irreducible_array_call_matches_scalar_calls():
    graphs = ([build_path_diagram("A", n) for n in range(1, 7)]
              + [build_cycle_diagram(n) for n in range(3, 7)])
    for g in graphs:
        for j0 in range(g.full_mask + 1):
            lat = CrossSectionLattice(g, j0)
            masks = lat.elements[1:]
            crit = join_irreducible_criterion(lat, np.array(masks, dtype=np.uint32))
            assert crit.dtype == bool and crit.shape == (len(masks),)
            scalar = [join_irreducible_criterion(lat, u) for u in masks]
            assert all(type(v) is bool for v in scalar)
            assert crit.tolist() == scalar == [
                join_irreducible_by_components(lat, u) for u in masks], (g, j0)


# -- whole-lattice criteria ---------------------------------------------------


def test_distributivity_iff_free_nodes_connected():
    assert distributivity_criterion(path_lattice(5, {1, 2}))
    assert not distributivity_criterion(path_lattice(5, {2, 4}))
    assert distributivity_criterion(path_lattice(5, {2, 4})) == \
        path_lattice(5, {2, 4}).to_poset().is_distributive_lattice()


def test_supersolvability_criterion_on_paths():
    # singleton components are fine anywhere, larger ones must touch an end
    assert supersolvability_criterion(path_lattice(5, {1, 2, 5}))
    assert supersolvability_criterion(path_lattice(5, {3}))
    assert not supersolvability_criterion(path_lattice(4, {2, 3}))
    with pytest.raises(UnsupportedGraphError):
        supersolvability_criterion(
            CrossSectionLattice(build_cycle_diagram(4), 0))


def test_m_chain_small_path():
    lat = path_lattice(3, {2})
    g = lat.graph
    assert construct_m_chain(lat) == (
        0, mask(g, {1}), mask(g, {1, 3}), mask(g, {1, 2, 3}))


def test_m_chain_with_end_blocks():
    lat = path_lattice(5, {1, 2, 5})
    g = lat.graph
    chain = construct_m_chain(lat)
    assert chain == (
        0,
        mask(g, {3}),
        mask(g, {3, 4}),
        mask(g, {2, 3, 4}),
        mask(g, {1, 2, 3, 4}),
        mask(g, {1, 2, 3, 4, 5}),
    )
    # every chain element is two-sided modular in the lattice
    poset = lat.to_poset()
    modular = poset.modular_element_mask()
    for u in chain:
        assert modular[lat.index(u)]


def test_m_chain_degenerate_and_invalid():
    assert construct_m_chain(path_lattice(2, {1, 2})) == (0,)
    with pytest.raises(PreconditionError):
        construct_m_chain(path_lattice(4, {2, 3}))


def test_charpoly_product_form():
    lat = path_lattice(3, {2})
    assert str(charpoly_formula(lat)) == "x^3 - 2x^2 + x"
    assert charpoly_formula(lat) == lat.to_poset().characteristic_polynomial()


def test_stanley_factorization_along_m_chain():
    lat = path_lattice(3, {2})
    chain = construct_m_chain(lat)
    assert str(stanley_factorization(lat, chain)) == "x^3 - 2x^2 + x"

    lat = path_lattice(5, {1, 2, 5})
    poly = stanley_factorization(lat, construct_m_chain(lat))
    assert poly == charpoly_formula(lat)
    assert poly == lat.to_poset().characteristic_polynomial()


def test_stanley_factorization_rejects_bad_chains():
    lat = path_lattice(3, {2})
    g = lat.graph
    full = mask(g, {1, 2, 3})
    with pytest.raises(PreconditionError):
        stanley_factorization(lat, (0, full))  # skips two ranks
    with pytest.raises(PreconditionError):
        stanley_factorization(lat, (mask(g, {1}), full))


def test_combinatorially_smooth_shapes():
    assert combinatorially_smooth_typeA(path_lattice(4, set()))
    assert combinatorially_smooth_typeA(path_lattice(5, {1, 2}))
    assert combinatorially_smooth_typeA(path_lattice(5, {4, 5}))
    assert combinatorially_smooth_typeA(path_lattice(5, {1, 4, 5}))
    # gap of one free node between prefix and suffix is too narrow
    assert not combinatorially_smooth_typeA(path_lattice(3, {1, 3}))
    assert not combinatorially_smooth_typeA(path_lattice(4, {2, 3}))
    assert not combinatorially_smooth_typeA(path_lattice(4, {1, 2, 3, 4}))


def test_combinatorially_smooth_requires_type_a_path():
    with pytest.raises(UnsupportedGraphError):
        combinatorially_smooth_typeA(path_lattice(5, {1}, kind="B"))
    with pytest.raises(UnsupportedGraphError):
        combinatorially_smooth_typeA(path_lattice(1, set()))
    with pytest.raises(UnsupportedGraphError):
        combinatorially_smooth_typeA(
            CrossSectionLattice(build_cycle_diagram(4), 0))


def test_smooth_implies_distributive_up_to_six():
    for n in range(2, 7):
        for j0 in range(1 << n):
            lat = path_lattice(n, {a + 1 for a in range(n) if j0 >> a & 1})
            if combinatorially_smooth_typeA(lat):
                assert distributivity_criterion(lat)


# -- conjectured chain products -----------------------------------------------


def test_expected_sizes_prefix_suffix():
    sizes, flagged = conjecture_expected_sizes(path_lattice(6, {1, 6}))
    assert sizes == (3, 3, 2, 2)
    assert not flagged


def test_expected_sizes_flags_single_free_node():
    sizes, flagged = conjecture_expected_sizes(path_lattice(5, {1, 2, 4, 5}))
    assert sizes == (4, 4)
    assert flagged


def test_expected_sizes_preconditions():
    with pytest.raises(PreconditionError):
        conjecture_expected_sizes(path_lattice(3, {1, 2, 3}))
    with pytest.raises(PreconditionError):
        conjecture_expected_sizes(path_lattice(5, {2, 4}))
    with pytest.raises(UnsupportedGraphError):
        conjecture_expected_sizes(
            CrossSectionLattice(build_cycle_diagram(5), 0))


def test_chain_check_pinned_partitions():
    cases = {
        (1, 2, 5): "(3, 2)",
        (1, 2, 3): "(4, 1)",
        (1, 5): "(2, 2, 1)",
        (1, 2): "(3, 1, 1)",
    }
    for j0, expected in cases.items():
        report = conjecture_chains_check(path_lattice(5, j0))
        assert report.value == expected
        assert report.agree
        assert report.note == ""


def test_chain_check_single_free_node_fails_honestly():
    report = conjecture_chains_check(path_lattice(3, {1, 3}))
    assert report.note == "single-free-node"
    assert report.value == "(2, 2)"
    assert report.oracle == "not-a-chain-product"
    assert not report.agree


def test_chain_check_matches_isomorphism():
    lat = path_lattice(6, {1, 6})
    sizes, _ = conjecture_expected_sizes(lat)
    assert posets_isomorphic(lat.to_poset(), chain_product_poset(sizes))


# -- circuit variant ----------------------------------------------------------


def test_circuit_analysis_lone_free_vertex():
    g = build_cycle_diagram(4)
    res = circuit_analysis(CrossSectionLattice(g, mask(g, {1, 2, 3})))
    assert not res.predicate_singletons
    assert res.brute_supersolvable
    assert not res.phi_applicable
    assert res.path_j0_mask is None and res.phi_matches is None


def test_circuit_analysis_with_adjacent_free_pair():
    g = build_cycle_diagram(5)
    res = circuit_analysis(CrossSectionLattice(g, mask(g, {2, 3})))
    assert res.phi_applicable
    assert res.phi_matches
    assert not res.predicate_singletons  # {2,3} is a doubleton block
    assert not res.brute_supersolvable


def test_circuit_analysis_rejects_paths():
    with pytest.raises(UnsupportedGraphError):
        circuit_analysis(path_lattice(4, {2}))
    with pytest.raises(UnsupportedGraphError):
        circuit_scan("path_A", 5)


def test_circuit_scan_mismatches_only_without_adjacent_free_pair():
    rows = circuit_scan("cycle", 5)
    path_rows = [r for r in rows if r.criterion == "circuit_path_image"]
    assert path_rows and all(r.agree for r in path_rows)
    bad = [r for r in rows
           if r.criterion == "circuit_supersolvable_singletons" and not r.agree]
    assert all(r.note == "no-adjacent-free-pair" for r in bad)
    assert {(r.n, r.j0_mask) for r in bad} == {
        (3, 0x3), (3, 0x5), (3, 0x6),
        (4, 0x7), (4, 0xb), (4, 0xd), (4, 0xe),
    }


# -- scans --------------------------------------------------------------------


def test_family_graph_kinds():
    assert family_graph("path_B", 4).kind == "path_B"
    assert family_graph("cycle", 3).n == 3
    with pytest.raises(UnsupportedGraphError):
        family_graph("star", 4)


def test_scan_range_guards():
    with pytest.raises(SizeLimitError):
        supersolvable_scan("path_A", 13)
    with pytest.raises(InvalidSizeError):
        supersolvable_scan("path_A", 2, n_min=5)


ORBIT_SCANS = ("charpoly", "supersolvable", "inner-product", "circuit")


def orbit_scan_families(scan):
    return [("cycle", 9)] if scan == "circuit" else [(kind, 8) for kind in PATH_KINDS]


def identity_only(kind, n):
    return [tuple(range(n))]


def test_automorphisms_are_graph_automorphisms_forming_the_stated_group():
    for kind in PATH_KINDS + (CYCLE_KIND,):
        for n in range(3 if kind == CYCLE_KIND else 1, MAX_SCAN_NODES + 1):
            g = family_graph(kind, n)
            perms = theorem_suite._automorphisms(kind, n)
            assert perms[0] == tuple(range(n))
            for perm in perms:
                assert sorted(perm) == list(range(n))
                image = {tuple(sorted((perm[a - 1] + 1, perm[b - 1] + 1)))
                         for a, b in g.edges}
                assert image == set(g.edges), (kind, n, perm)
            # closed under composition: a group, so the orbits partition the j0s
            assert {tuple(p[q[i]] for i in range(n)) for p in perms for q in perms} == set(perms)
            # the mirror of a path, the dihedral group of a cycle
            assert len(set(perms)) == (2 * n if kind == CYCLE_KIND else min(2, n))


def bracelets(n):
    """Node sets of an n-cycle up to rotation and reflection, by brute force."""
    def canonical(bits):
        turns = [bits[k:] + bits[:k] for k in range(n)]
        return min(turns + [t[::-1] for t in turns])
    return len({canonical(tuple(j0 >> i & 1 for i in range(n))) for j0 in range(1 << n)})


@pytest.mark.parametrize("scan", ORBIT_SCANS)
def test_orbit_reuse_matches_the_full_route(scan, monkeypatch):
    built = []
    to_poset = CrossSectionLattice.to_poset

    def counting(lat):
        built.append((lat.graph.n, lat.j0))
        return to_poset(lat)

    monkeypatch.setattr(CrossSectionLattice, "to_poset", counting)
    for kind, n_max in orbit_scan_families(scan):
        built.clear()
        orbit = SCAN_FUNCTIONS[scan](kind, n_max)
        if kind == CYCLE_KIND:
            # one oracle run per bracelet but the skipped full node set
            assert len(built) == sum(bracelets(n) - 1 for n in range(3, n_max + 1))
        else:
            # one per mirror pair; the degenerate j0 is its own mirror image
            pairs = sum(2 ** (n - 1) + 2 ** ((n - 1) // 2) for n in range(1, n_max + 1))
            assert len(built) == pairs - (n_max if SCAN_RULES[scan].skips_degenerate else 0)
        with monkeypatch.context() as m:
            m.setattr(theorem_suite, "_automorphisms", identity_only)
            built.clear()
            full = SCAN_FUNCTIONS[scan](kind, n_max)
        # and one per configuration on the full route
        n_range = SCAN_RULES[scan].n_range(kind, n_max)
        skips = SCAN_RULES[scan].skips_degenerate
        assert sorted(built) == [(n, j0) for n in n_range for j0 in range(2 ** n - skips)]
        assert [repr(r) for r in orbit] == [repr(r) for r in full], (scan, kind)


@pytest.mark.parametrize("scan", ORBIT_SCANS)
def test_a_wrong_relabeling_fails_the_certificate(scan, monkeypatch):
    # swapping nodes 1 and 2 keeps neither a path nor a cycle from n = 4 on;
    # with the identity it still forms a group, so every orbit has a least j0
    def swap_one_two(kind, n):
        return [tuple(range(n)), (1, 0) + tuple(range(2, n))]

    monkeypatch.setattr(theorem_suite, "_automorphisms", swap_one_two)
    kind = CYCLE_KIND if scan == "circuit" else "path_A"
    with pytest.raises(RuntimeError, match="outside the lattice of its orbit representative"):
        SCAN_FUNCTIONS[scan](kind, 4, n_min=4)


def test_theorem_equivalence_scan_all_agree():
    rows = theorem_equivalence_scan("path_A", 4)
    assert len(rows) == 7 * (2 + 4 + 8 + 16)
    assert all(r.agree for r in rows)


def interval_counts(kind, n_max):
    """Each configuration's interval mismatch count, from the scan and from
    the reference loop."""
    scanned = {(r.n, r.j0_mask): 0 if r.value == "ok" else int(r.value.split()[0])
               for r in theorem_equivalence_scan(kind, n_max)
               if r.criterion == "interval_relcomp_atomic_boolean"}
    looped = {(n, j0): interval_mismatches_by_loop(CrossSectionLattice(family_graph(kind, n), j0))
              for n in range(1, n_max + 1) for j0 in range(2 ** n)}
    return scanned, looped


def test_interval_flags_once_per_order_count_every_interval(monkeypatch):
    families = [("path_A", 5), ("path_B", 4), ("path_C", 4)]
    for kind, n_max in families:
        scanned, looped = interval_counts(kind, n_max)
        assert scanned == looped, kind
        assert not any(scanned.values())

    # an oracle wrong on every 3-element chain: each such interval must count,
    # including those whose flags came from the memo
    is_atomic = FinitePoset.is_atomic

    def wrong_on_three_chains(poset):
        flag = is_atomic(poset)
        return not flag if poset.size == 3 and poset.leq.sum() == 6 else flag

    monkeypatch.setattr(FinitePoset, "is_atomic", wrong_on_three_chains)
    for kind, n_max in families:
        scanned, looped = interval_counts(kind, n_max)
        assert scanned == looped, kind
        assert any(scanned.values()), kind


def pair_rows(kind, n_max):
    """Each configuration's Mobius and meet/join mismatch counts and covering
    flag, from the scan and from the per-pair reference loop."""
    def count(value):
        return 0 if value == "ok" else int(value.split()[0])

    scanned: dict = {}
    for r in theorem_equivalence_scan(kind, n_max):
        row = scanned.setdefault((r.n, r.j0_mask), {})
        if r.criterion == "interval_mobius_formula":
            row[0] = count(r.value)
        elif r.criterion == "meet_glb_formula":
            row[1] = count(r.value)
        elif r.criterion == "upper_semimodularity":
            row[2] = r.oracle == "True"
    scanned = {key: (row[0], row[1], row[2]) for key, row in scanned.items()}
    looped = {(n, j0): pair_mismatches_by_loop(CrossSectionLattice(family_graph(kind, n), j0))
              for n in range(1, n_max + 1) for j0 in range(2 ** n)}
    return scanned, looped


def test_pair_rows_match_the_per_pair_loop():
    for kind in PATH_KINDS:
        scanned, looped = pair_rows(kind, 5)
        assert scanned == looped, kind
        assert set(scanned.values()) == {(0, 0, True)}, kind


def test_pair_rows_count_each_wrong_entry_once_per_pair(monkeypatch):
    # the meet table off on (top, bottom), giving a coatom: one table
    # mismatch, and the covering condition fails from rank 2 on
    meet = FinitePoset.meet

    def off_on_one_pair(poset, i, j):
        out = meet(poset, i, j)
        top = poset.size - 1
        coatom = int(np.flatnonzero(poset.covers[:, top])[0]) if top else 0
        wrong = (np.asarray(i) == top) & (np.asarray(j) == 0)
        return np.where(wrong, coatom, out) if isinstance(out, np.ndarray) else (
            coatom if wrong else out)

    # and the Mobius row of the bottom off at the top
    mobius_from = FinitePoset.mobius_from

    def perturbed(poset, x):
        row = mobius_from(poset, x)
        if x == 0:
            row = row.copy()
            row[-1] += 1
        return row

    monkeypatch.setattr(FinitePoset, "meet", off_on_one_pair)
    monkeypatch.setattr(FinitePoset, "mobius_from", perturbed)
    scanned, looped = pair_rows("path_A", 5)
    assert scanned == looped
    assert all(mobius_bad == 1 for mobius_bad, _, _ in scanned.values())
    assert scanned[(3, 0)] == (1, 1, False)
    # two elements: the coatom is the bottom, so the meet table is right
    assert scanned[(1, 0)] == (1, 0, True)


def test_interval_flag_memo_holds_each_orders_own_flags(monkeypatch):
    memos = []
    theorem_rows = theorem_suite._theorem_rows

    def capturing(lat, rows, interval_flags):
        memos.append(interval_flags)
        theorem_rows(lat, rows, interval_flags)

    monkeypatch.setattr(theorem_suite, "_theorem_rows", capturing)
    theorem_equivalence_scan("path_A", 4)
    memo = memos[0]
    assert all(m is memo for m in memos)
    intervals = sum(int(lat.to_poset().leq.sum())
                    for _, lattices in theorem_suite._configs_by_n("theorems", "path_A", 1, 4)
                    for lat in lattices)
    assert len(memo) < intervals

    flags_by_size: dict[int, set] = {}
    for key, flags in memo.items():
        k = isqrt(len(key))
        assert k * k == len(key)
        poset = FinitePoset(np.frombuffer(key, dtype=bool).reshape(k, k))
        assert (poset.is_relatively_complemented(), poset.is_atomic(),
                poset.is_boolean()) == flags
        flags_by_size.setdefault(k, set()).add(flags)
    # the 4-chain and B2 share a size, so the key must be more than the size
    assert flags_by_size[4] == {(False, False, False), (True, True, True)}


def test_supersolvable_scan_all_agree():
    rows = supersolvable_scan("path_A", 5)
    assert len(rows) == 2 + 4 + 8 + 16 + 32
    assert all(r.agree for r in rows)


def test_charpoly_scan_all_agree():
    rows = conjecture_charpoly_scan("path_A", 5)
    assert len(rows) == 1 + 3 + 7 + 15 + 31  # degenerate j0 skipped
    assert all(r.agree for r in rows)


def test_chains_scan_unflagged_rows_agree():
    rows = conjecture_chains_scan("path_A", 6)
    assert rows
    for r in rows:
        if r.note == "":
            assert r.agree
        else:
            assert r.note == "single-free-node"


def test_distributive_count_pinned_values():
    rows = distributive_count_scan("path_A", 6)
    assert [r.value for r in rows] == ["1", "2", "3", "5", "7", "10"]
    assert all(r.agree for r in rows)
    assert rows[2].note == "partitions=3;nonproduct_classes=1"
    assert [partition_count(n) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def test_inner_product_scan_off_by_one():
    rows = inner_product_scan("path_A", 4)
    assert rows
    for r in rows:
        assert int(r.value) == int(r.oracle) - 1
        assert r.note.startswith("beta1_plus_1=")


def test_scan_registry_names():
    assert set(SCAN_FUNCTIONS) == {
        "theorems", "supersolvable", "charpoly", "chains",
        "distributive-count", "inner-product", "circuit",
    }


PATHS = ("path_A", "path_B", "path_C")


def test_scan_rules_pinned():
    # name: (theorem grade, skips degenerate j0, first n, families)
    expected = {
        "theorems": (True, False, 1, PATHS),
        "supersolvable": (True, False, 1, PATHS),
        "charpoly": (False, True, 1, PATHS),
        "chains": (False, True, 1, PATHS),
        "distributive-count": (True, True, 1, PATHS),
        "inner-product": (False, True, 1, PATHS),
        "circuit": (True, True, 3, ("cycle",)),
    }
    assert set(SCAN_RULES) == set(SCAN_FUNCTIONS)
    for name, rule in SCAN_RULES.items():
        got = (rule.theorem_grade, rule.skips_degenerate, rule.n_min, rule.families)
        assert got == expected[name], name


def test_scan_rules_match_degenerate_rows():
    # per-configuration scans: the full-j0 row is missing exactly when
    # the rule says the scan skips it
    for name, rule in SCAN_RULES.items():
        if name == "distributive-count":
            continue  # one row per n, not per configuration
        kind = rule.families[0]
        n = rule.n_min + 1
        if name in ("chains", "inner-product"):
            n = 4  # rows exist only for distributive or rank >= 2 configs
        rows = SCAN_FUNCTIONS[name](kind, n, n_min=n)
        full = (1 << n) - 1
        has_full = any(r.j0_mask == full for r in rows)
        assert has_full != rule.skips_degenerate, name
        assert {r.n for r in rows} == {n}, name


def test_scan_range_starts_at_first_n():
    for name, rule in SCAN_RULES.items():
        with pytest.raises(InvalidSizeError):
            SCAN_FUNCTIONS[name](rule.families[0], rule.n_min - 1)
    assert {r.n for r in circuit_scan("cycle", 4)} == {3, 4}


def test_report_row_shape():
    row = supersolvable_scan("path_A", 2)[0].to_row()
    assert list(row) == ["graph", "n", "j0_mask", "criterion",
                         "value", "oracle", "agree", "note"]
    assert row["j0_mask"].startswith("0x")


def test_join_irreducible_shape_is_tree_scoped():
    # on a circuit the block-plus-adjacent-free-node shape can have two
    # lower covers (the free node touches both block ends), so the shape
    # test stops being a join-irreducibility certificate
    g = build_cycle_diagram(3)
    lat = CrossSectionLattice(g, 0b011)
    full = 0b111
    assert join_irreducible_criterion(lat, full)
    poset = lat.to_poset()
    assert lat.index(full) not in poset.join_irreducibles()


def test_modular_elements_free_only_and_free_containing():
    # sets disjoint from j0 are always two-sided modular; sets containing
    # every free node are two-sided modular in the supersolvable case
    for n in range(1, 6):
        g = build_path_diagram("A", n)
        for j0 in range(1 << n):
            lat = CrossSectionLattice(g, j0)
            poset = lat.to_poset()
            modular = poset.modular_element_mask()
            free = g.full_mask & ~j0
            ss = supersolvability_criterion(lat)
            for i, u in enumerate(lat.elements):
                if u & j0 == 0:
                    assert modular[i], (n, j0, u)
                if ss and free & ~u == 0:
                    assert modular[i], (n, j0, u)
