"""Cross section lattice: admissibility, enumeration, join/meet, intervals.

The brute-force oracle below re-derives admissibility from the edge list
alone (union-find over the subset), independent of the bitmask adjacency
used by the implementation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from reference_routes import admissible_extensions, enumerate_by_levels, lattice_maximal_chains

from crosslat.crosslattice import CrossSectionLattice, enumerate_lattice, is_admissible
from crosslat.diagram import (
    CoxeterGraph,
    build_custom_graph,
    build_cycle_diagram,
    build_path_diagram,
    format_nodeset,
    mask_to_nodes,
    node_bit,
    nodes_to_mask,
)
from crosslat.errors import EmptyIntervalError, MembershipError, SizeLimitError


def brute_admissible(g: CoxeterGraph, j0: int, u: int) -> bool:
    """Union-find components of u from the raw edge list; every component
    must contain a node outside j0."""
    nodes = list(mask_to_nodes(u))
    if not nodes:
        return True
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in g.edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    comps: dict[int, list[int]] = {}
    for v in nodes:
        comps.setdefault(find(v), []).append(v)
    return all(any(not (j0 >> (v - 1)) & 1 for v in comp) for comp in comps.values())


def brute_elements(g: CoxeterGraph, j0: int) -> list[int]:
    out = [u for u in range(g.full_mask + 1) if brute_admissible(g, j0, u)]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


SMALL_CONFIGS = st.tuples(
    st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=63))


def _path_config(n, j0_raw):
    g = build_path_diagram("A", n)
    return g, j0_raw & g.full_mask


def four_cycle_with_tail():
    """The four-cycle 1-2-3-4 with node 5 hanging off node 3."""
    return build_custom_graph(5, [(1, 2), (2, 3), (3, 4), (1, 4), (3, 5)])


@st.composite
def graph_configs(draw):
    """A path A, a cycle or a drawn graph on at most 7 nodes, and a j0.

    Drawn edges may join far-apart labels, so those graphs have edges at
    several label distances.
    """
    kind = draw(st.sampled_from(("path", "cycle", "drawn")))
    if kind == "path":
        g = build_path_diagram("A", draw(st.integers(min_value=1, max_value=6)))
    elif kind == "cycle":
        g = build_cycle_diagram(draw(st.integers(min_value=3, max_value=7)))
    else:
        n = draw(st.integers(min_value=1, max_value=7))
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = build_custom_graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])
    return g, draw(st.integers(min_value=0, max_value=g.full_mask))


# -- admissibility ----------------------------------------------------------------


def test_admissibility_hand_cases():
    g = build_path_diagram("A", 4)
    j0 = nodes_to_mask([2, 3])
    assert is_admissible(g, j0, 0)
    assert is_admissible(g, j0, nodes_to_mask([1, 2]))
    assert not is_admissible(g, j0, nodes_to_mask([2]))
    assert not is_admissible(g, j0, nodes_to_mask([2, 3]))
    assert is_admissible(g, j0, nodes_to_mask([2, 3, 4]))
    # component {2} sits inside j0 even though {4} escapes
    assert not is_admissible(g, j0, nodes_to_mask([2, 4]))


@given(graph_configs(), st.integers(min_value=0, max_value=127))
@settings(max_examples=300)
def test_admissibility_matches_union_find(cfg, u_raw):
    g, j0 = cfg
    u = u_raw & g.full_mask
    assert is_admissible(g, j0, u) == brute_admissible(g, j0, u)


@given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=127),
       st.integers(min_value=0, max_value=127))
@settings(max_examples=200)
def test_admissibility_matches_union_find_on_cycles(n, j0_raw, u_raw):
    g = build_cycle_diagram(n)
    j0, u = j0_raw & g.full_mask, u_raw & g.full_mask
    assert is_admissible(g, j0, u) == brute_admissible(g, j0, u)


def test_enumeration_matches_bruteforce_filter():
    for n in range(1, 6):
        g = build_path_diagram("A", n)
        for j0 in range(g.full_mask + 1):
            assert enumerate_lattice(g, j0) == brute_elements(g, j0)


def test_enumeration_on_disconnected_custom_graph():
    g = build_custom_graph(4, [(1, 2), (3, 4)])
    j0 = nodes_to_mask([3, 4])
    got = enumerate_lattice(g, j0)
    assert got == brute_elements(g, j0)
    # the whole node set is inadmissible: component {3,4} sits inside j0
    assert g.full_mask not in got


def enumerate_by_search(g: CoxeterGraph, j0: int) -> list[int]:
    """Reference enumeration: a search from the empty set by admissible
    one-node extensions, sorted by cardinality then mask at the end."""
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for alpha in admissible_extensions(g, j0, u):
            grown = u | node_bit(alpha)
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def enumeration_graphs():
    for series in ("A", "B", "C"):
        for n in range(1, 9):
            yield build_path_diagram(series, n)
    for n in range(3, 9):
        yield build_cycle_diagram(n)
    yield build_custom_graph(4, [(1, 2), (3, 4)])
    yield four_cycle_with_tail()


def test_rank_by_rank_enumeration_matches_search():
    for g in enumeration_graphs():
        for j0 in range(g.full_mask + 1):
            got = enumerate_lattice(g, j0)
            assert got == enumerate_by_levels(g, j0) == enumerate_by_search(g, j0), (
                g.kind, g.n, j0)


def test_known_element_lists():
    g3 = build_path_diagram("A", 3)
    lat = CrossSectionLattice(g3, nodes_to_mask([2]))
    assert [format_nodeset(m) for m in lat.elements] == [
        "{}", "{1}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"]

    g4 = build_path_diagram("A", 4)
    lat4 = CrossSectionLattice(g4, nodes_to_mask([2, 3]))
    assert len(lat4) == 11

    c4 = build_cycle_diagram(4)
    latc = CrossSectionLattice(c4, nodes_to_mask([1, 2, 3]))
    assert [format_nodeset(m) for m in latc.elements] == [
        "{}", "{4}", "{1,4}", "{3,4}", "{1,2,4}", "{1,3,4}", "{2,3,4}", "{1,2,3,4}"]


def test_degenerate_lattice_is_single_point():
    g = build_path_diagram("A", 3)
    lat = CrossSectionLattice(g, g.full_mask)
    assert lat.elements == (0,)
    assert lat.is_degenerate()
    assert not CrossSectionLattice(g, 0).is_degenerate()


def test_size_cap():
    with pytest.raises(SizeLimitError):
        enumerate_lattice(build_path_diagram("A", 25), 0)


# -- order structure ---------------------------------------------------------------


def test_membership_and_rank():
    g = build_path_diagram("A", 4)
    lat = CrossSectionLattice(g, nodes_to_mask([2, 3]))
    u = nodes_to_mask([1, 2])
    assert u in lat
    assert lat.rank(u) == 2
    assert nodes_to_mask([2]) not in lat
    with pytest.raises(MembershipError):
        lat.index(nodes_to_mask([2]))


@given(SMALL_CONFIGS, st.data())
@settings(max_examples=200)
def test_join_is_union(cfg, data):
    g, j0 = _path_config(*cfg)
    lat = CrossSectionLattice(g, j0)
    u = data.draw(st.sampled_from(lat.elements))
    v = data.draw(st.sampled_from(lat.elements))
    w = lat.join(u, v)
    assert w == u | v
    assert w in lat  # admissible sets are closed under union


@given(graph_configs(), st.data())
@settings(max_examples=200)
def test_meet_is_greatest_lower_bound(cfg, data):
    g, j0 = cfg
    lat = CrossSectionLattice(g, j0)
    assert list(lat.elements) == enumerate_by_levels(g, j0)
    u = data.draw(st.sampled_from(lat.elements))
    v = data.draw(st.sampled_from(lat.elements))
    w = lat.meet(u, v)
    assert w in lat
    lower = [t for t in lat.elements if t & ~u == 0 and t & ~v == 0]
    best = max(lower, key=lambda t: t.bit_count())
    assert w == best
    assert all(t & ~w == 0 for t in lower)  # w sits above every lower bound


def test_meet_drops_trapped_components():
    g = build_path_diagram("A", 5)
    lat = CrossSectionLattice(g, nodes_to_mask([3]))
    u = nodes_to_mask([2, 3, 4, 5])
    v = nodes_to_mask([1, 2, 3])
    # intersection {2,3} is admissible, so nothing is dropped
    assert lat.meet(u, v) == nodes_to_mask([2, 3])
    w1 = nodes_to_mask([3, 4])
    w2 = nodes_to_mask([2, 3])
    # intersection {3} is a trapped component and melts away
    assert lat.meet(w1, w2) == 0


def test_covers_are_single_node_extensions():
    for g in (build_path_diagram("A", 5), build_cycle_diagram(6), four_cycle_with_tail()):
        for j0 in range(g.full_mask + 1):
            lat = CrossSectionLattice(g, j0)
            poset = lat.to_poset()
            for i, u in enumerate(lat.elements):
                ups = {lat.elements[int(j)] for j in poset.covers[i, :].nonzero()[0]}
                assert ups == set(lat.covers(u))
                for v in ups:
                    assert v.bit_count() == u.bit_count() + 1


def test_atoms_are_free_singletons():
    g = build_path_diagram("A", 5)
    lat = CrossSectionLattice(g, nodes_to_mask([1, 3]))
    assert set(lat.atoms()) == {nodes_to_mask([2]), nodes_to_mask([4]), nodes_to_mask([5])}


def small_lattices():
    """Every configuration of path A up to 4 nodes and the 4-cycle."""
    for g in [build_path_diagram("A", n) for n in range(1, 5)] + [build_cycle_diagram(4)]:
        for j0 in range(g.full_mask + 1):
            yield CrossSectionLattice(g, j0)


def test_poset_round_trip():
    # index i of to_poset() is lat.elements[i]: the poset keeps no names
    for lat in small_lattices():
        key = (lat.graph.kind, lat.graph.n, lat.j0)
        els = lat.elements
        poset = lat.to_poset()
        assert poset.size == len(lat), key
        assert poset.is_lattice(), key
        assert poset.rank() == tuple(m.bit_count() for m in els), key
        assert poset.leq.tolist() == [[lat.leq(u, v) for v in els] for u in els], key
        for i, u in enumerate(els):
            for j, v in enumerate(els):
                assert els[poset.join(i, j)] == lat.join(u, v), key
                assert els[poset.meet(i, j)] == lat.meet(u, v), key


def test_interval_poset_matches_slice():
    # index i of lat.interval(u, v) is the i-th w of lat.elements with
    # u <= w <= v, and its order is inclusion among those sets
    g = build_path_diagram("A", 8)
    lat = CrossSectionLattice(g, nodes_to_mask([3, 6, 7]))
    u = nodes_to_mask([7, 8])
    v = nodes_to_mask([1, 2, 3, 7, 8])
    assert lat.interval(u, v).size == 6
    with pytest.raises(EmptyIntervalError):
        lat.interval(v, u)
    cases = [(lat, u, v)] + [(small, a, b) for small in small_lattices()
                             for a in small.elements for b in small.elements if a & ~b == 0]
    for parent, a, b in cases:
        members = [w for w in parent.elements if a & ~w == 0 and w & ~b == 0]
        sub = parent.interval(a, b)
        key = (parent.graph.n, parent.j0, a, b)
        assert sub.leq.tolist() == [[x & ~y == 0 for y in members] for x in members], key
        assert (sub.bottom, sub.top) == (members.index(a), members.index(b)), key


def test_maximal_chains_cover_steps():
    g = build_path_diagram("A", 4)
    lat = CrossSectionLattice(g, nodes_to_mask([2, 3]))
    chains = lattice_maximal_chains(lat)
    assert all(c[0] == 0 and c[-1] == g.full_mask for c in chains)
    for c in chains:
        for a, b in zip(c, c[1:]):
            assert b in lat.covers(a)
