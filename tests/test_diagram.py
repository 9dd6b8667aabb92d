"""Graph construction, bitmask helpers, and connectivity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_routes import adjacent_by_node_loop

from crosslat.diagram import (
    CoxeterGraph,
    build_custom_graph,
    build_cycle_diagram,
    build_path_diagram,
    connected_components,
    end_nodes,
    format_nodeset,
    is_connected_subset,
    is_standard_cycle,
    is_standard_path,
    iter_nodes,
    mask_to_nodes,
    nodes_to_mask,
    parse_nodeset,
)
from crosslat.errors import InvalidEdgeError, InvalidSizeError, SizeLimitError


def test_mask_round_trip():
    assert nodes_to_mask([1, 2, 5]) == 0b10011
    assert mask_to_nodes(0b10011) == (1, 2, 5)
    assert list(iter_nodes(0b10011)) == [1, 2, 5]
    assert nodes_to_mask([]) == 0


def test_nodeset_text_round_trip():
    assert format_nodeset(0) == "{}"
    assert format_nodeset(nodes_to_mask([2, 7])) == "{2,7}"
    assert parse_nodeset("{2,7}") == nodes_to_mask([2, 7])
    assert parse_nodeset("{}") == 0
    assert parse_nodeset(" { 1 , 3 } ") == nodes_to_mask([1, 3])


def test_parse_nodeset_rejects_garbage():
    with pytest.raises(InvalidSizeError):
        parse_nodeset("1,2")
    with pytest.raises(InvalidSizeError):
        parse_nodeset("{a}")


@pytest.mark.parametrize("label", ["\u00b2", "\u0663", "65", "200000000", "9" * 5000, "1" + "0" * 20])
def test_parse_nodeset_refuses_labels_outside_1_to_max_nodes(label):
    # refused before int() or the shift, which would build an int of the
    # label's size in bits
    with pytest.raises(InvalidSizeError):
        parse_nodeset("{%s}" % label)


def test_parse_nodeset_reads_leading_zeros():
    assert parse_nodeset("{007,64}") == nodes_to_mask([7, 64])
    assert parse_nodeset("{%s1}" % ("0" * 5000)) == nodes_to_mask([1])
    with pytest.raises(InvalidSizeError, match="start at 1"):
        parse_nodeset("{00}")


def test_path_diagram_shape():
    g = build_path_diagram("A", 4)
    assert g.n == 4
    assert g.kind == "path_A"
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert g.neighbors(2) == nodes_to_mask([1, 3])
    assert g.degree(1) == 1 and g.degree(2) == 2
    assert is_standard_path(g)
    assert not is_standard_cycle(g)
    assert end_nodes(g) == nodes_to_mask([1, 4])


def test_single_node_path():
    g = build_path_diagram("A", 1)
    assert g.edges == frozenset()
    assert end_nodes(g) == 0  # no degree-1 node when there are no edges
    assert is_standard_path(g)


def test_cycle_diagram_shape():
    g = build_cycle_diagram(5)
    assert g.kind == "cycle"
    assert (5, 1) not in g.edges and (1, 5) in g.edges
    assert all(g.degree(i) == 2 for i in range(1, 6))
    assert is_standard_cycle(g)
    assert not is_standard_path(g)
    with pytest.raises(InvalidSizeError):
        build_cycle_diagram(2)


def test_custom_graph_validation():
    g = build_custom_graph(4, [(1, 2), (3, 4)])
    assert g.kind == "custom"
    with pytest.raises(InvalidEdgeError):
        build_custom_graph(3, [(1, 4)])
    with pytest.raises(InvalidEdgeError):
        build_custom_graph(3, [(2, 2)])
    with pytest.raises(InvalidSizeError):
        build_path_diagram("A", 0)
    with pytest.raises(SizeLimitError):
        build_path_diagram("A", 65)


def test_graph_equality_ignores_kind():
    a = build_path_diagram("A", 3)
    b = build_path_diagram("B", 3)
    c = build_custom_graph(3, [(1, 2), (2, 3)])
    assert a == b == c
    assert hash(a) == hash(c)


@st.composite
def graph_and_mask(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    possible = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    g = build_custom_graph(n, edges)
    mask = draw(st.integers(min_value=0, max_value=g.full_mask))
    return g, mask


@given(graph_and_mask())
def test_adjacent_to_set(gm):
    g = build_path_diagram("A", 5)
    assert g.adjacent_to_set(nodes_to_mask([3])) == nodes_to_mask([2, 4])
    # nodes of the set itself may appear when they neighbor each other
    assert g.adjacent_to_set(nodes_to_mask([1, 2])) == nodes_to_mask([1, 2, 3])
    assert g.adjacent_to_set(0) == 0
    # drawn edges join labels at many distances; ints and uint32 arrays
    # both match the OR of the per-node neighbour masks
    g, mask = gm
    assert g.adjacent_to_set(mask) == adjacent_by_node_loop(g, mask)
    cube = np.arange(g.full_mask + 1, dtype=np.uint32)
    got = g.adjacent_to_set(cube)
    assert got.dtype == np.uint32
    assert got.tolist() == [adjacent_by_node_loop(g, m) for m in range(g.full_mask + 1)]


def test_connected_components_ordering():
    g = build_path_diagram("A", 7)
    comps = connected_components(g, nodes_to_mask([1, 3, 4, 6]))
    assert comps == [nodes_to_mask([1]), nodes_to_mask([3, 4]), nodes_to_mask([6])]


def test_is_connected_subset():
    g = build_cycle_diagram(4)
    assert is_connected_subset(g, 0)
    assert is_connected_subset(g, nodes_to_mask([4, 1]))
    assert not is_connected_subset(g, nodes_to_mask([1, 3]))
    assert is_connected_subset(g, g.full_mask)


@given(graph_and_mask())
def test_components_partition_the_mask(gm):
    g, mask = gm
    comps = connected_components(g, mask)
    seen = 0
    for c in comps:
        assert c != 0
        assert c & seen == 0
        assert c & ~mask == 0
        assert is_connected_subset(g, c)
        # maximality: nothing in the rest of the mask touches this component
        assert g.adjacent_to_set(c) & (mask & ~c) == 0
        seen |= c
    assert seen == mask


@given(graph_and_mask())
def test_neighbor_symmetry(gm):
    g, _ = gm
    for a in range(1, g.n + 1):
        for b in range(1, g.n + 1):
            assert bool(g.neighbors(a) & (1 << (b - 1))) == bool(
                g.neighbors(b) & (1 << (a - 1)))
