"""Finite poset engine: order data, Mobius values, lattice predicates.

Expected values here come from hand computation on small named posets
(chains, Boolean lattices, the pentagon, the diamond, the six-element
fence) or from identities every poset must satisfy.
"""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from reference_routes import (
    antichain_blocks,
    antichain_tower,
    boolean_lattice_by_outer_product,
    chain_product_by_broadcast,
    classify_rank3_interval,
    cross_section_poset_by_block_loop,
    dual,
    evaluate,
    fence6_poset,
    is_left_modular,
    is_locally_rank_symmetric,
    is_locally_self_dual,
    is_modular_lattice,
    is_modular_pair,
    is_rank_symmetric,
    is_right_modular,
    is_self_dual,
    maximal_chains,
    mobius_by_antichain_blocks,
    poset_from_cover_relations,
    rank_counts,
    ranks_by_cover_loop,
    _restricted,
)

from crosslat import poset_engine
from crosslat.crosslattice import CrossSectionLattice
from crosslat.diagram import build_custom_graph, build_path_diagram, parse_nodeset
from crosslat.errors import (
    EmptyIntervalError,
    GradednessError,
    MembershipError,
    PreconditionError,
    SizeLimitError,
)
from crosslat.flags import MAX_DEGREE, flag_f_vector
from crosslat.poset_engine import (
    CharPolynomial,
    _KeyIndex,
    _first_key_bits,
    FinitePoset,
    _isomorphic_by_search,
    boolean_lattice,
    chain_poset,
    chain_product_poset,
    posets_isomorphic,
)
from crosslat.theorem_suite import family_graph


def pentagon() -> FinitePoset:
    # 0 < a < c < 1 and 0 < b < 1
    return poset_from_cover_relations(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def diamond() -> FinitePoset:
    # three atoms between bottom and top
    return poset_from_cover_relations(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


@st.composite
def random_posets(draw, size=None):
    """Transitive closure of a random low-to-high DAG: always a poset."""
    n = size or draw(st.integers(min_value=1, max_value=7))
    leq = np.eye(n, dtype=bool)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    for i, j in chosen:
        leq[i, j] = True
    for k in range(n):
        for i in range(n):
            if leq[i, k]:
                leq[i, :] |= leq[k, :]
    return FinitePoset(leq)


# -- construction and validation ------------------------------------------------


def test_validation_rejects_broken_relations():
    bad = np.array([[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(PreconditionError):
        FinitePoset(bad)
    not_reflexive = np.array([[False]])
    with pytest.raises(PreconditionError):
        FinitePoset(not_reflexive)
    not_transitive = np.eye(3, dtype=bool)
    not_transitive[0, 1] = not_transitive[1, 2] = True
    with pytest.raises(PreconditionError):
        FinitePoset(not_transitive)


def test_public_constructor_copies_its_array():
    # the caller keeps its array and may write to it afterwards
    leq = chain_poset(3).leq.copy()
    p = FinitePoset(leq)
    leq[0, 2] = False
    assert p.leq[0, 2] and not p.leq.flags.writeable
    assert p.rank() == (0, 1, 2)


def test_public_constructor_takes_no_ranks_or_validate_flag():
    # ranks reach a poset only through _adopt, so a public poset's rank()
    # is always the grading that covers checked
    leq = chain_poset(3).leq
    with pytest.raises(TypeError):
        FinitePoset(leq, ranks=(2, 1, 0))
    with pytest.raises(TypeError):
        FinitePoset(leq, validate=False)
    # nor names: index i is the element, and callers keep any names
    with pytest.raises(TypeError):
        FinitePoset(leq, (10, 20, 30))


def test_canonical_builders_match_the_public_constructor():
    built = ([boolean_lattice(k) for k in range(7)]
             + [chain_poset(m) for m in range(1, 7)]
             + [chain_product_poset(sizes) for sizes in
                ((1,), (2, 3), (3, 2, 2), (4, 4), (2, 2, 2, 2), (5, 1, 3))])
    for p in built:
        assert_same_poset(p, FinitePoset(p.leq), (p.size, p.rank_of_top()))
    # index i of boolean_lattice(k) is the i-th mask in (popcount, mask) order
    for k in range(7):
        masks = sorted(range(1 << k), key=lambda m: (m.bit_count(), m))
        assert boolean_lattice(k).leq.tolist() == [[a & ~b == 0 for b in masks]
                                                   for a in masks], k


def assert_same_poset(p: FinitePoset, ref: FinitePoset, key) -> None:
    assert not p.leq.flags.writeable, key
    assert (p.leq == ref.leq).all(), key
    assert (p.bottom, p.top) == (ref.bottom, ref.top), key
    assert p.rank() == ref.rank(), key


def test_order_builders_match_the_routes_they_replaced(monkeypatch):
    # the default budget cuts B8, the large products and path A 12 into
    # blocks of rows; the small one cuts the chains too, the last block short
    for budget in (poset_engine._BOUNDS_BLOCK_BYTES, 1 << 8):
        monkeypatch.setattr(poset_engine, "_BOUNDS_BLOCK_BYTES", budget)
        for k in range(9):
            assert_same_poset(boolean_lattice(k), boolean_lattice_by_outer_product(k),
                              (budget, k))
        for m in [*range(1, 71), 129]:
            assert_same_poset(chain_poset(m), chain_product_by_broadcast((m,)), (budget, m))
        for sizes in ((3, 2), (2, 4)):
            assert_same_poset(chain_product_poset(sizes), chain_product_by_broadcast(sizes),
                              (budget, sizes))
        for kind in ("path_A", "cycle"):
            for n in range(3 if kind == "cycle" else 1, 7):
                g = family_graph(kind, n)
                for j0 in range(g.full_mask + 1):
                    lat = CrossSectionLattice(g, j0)
                    assert_same_poset(lat.to_poset(), cross_section_poset_by_block_loop(lat),
                                      (budget, kind, n, j0))
    for sizes in ((7, 8, 9, 8), (2,) * 12):
        assert_same_poset(chain_product_poset(sizes), chain_product_by_broadcast(sizes), sizes)
    lat = CrossSectionLattice(family_graph("path_A", 12), 0)
    assert_same_poset(lat.to_poset(), cross_section_poset_by_block_loop(lat), "path A 12 {}")


def peak_traced_bytes(build) -> int:
    """tracemalloc's peak while build() runs, its result included."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_orders_allocate_little_beyond_their_result():
    # each leq has 4,096 x 4,096 bool entries, 16 MiB
    budget = 1.25 * 4096 ** 2
    for name, build in (
            ("B12", lambda: boolean_lattice(12)),
            ("(2,) * 12", lambda: chain_product_poset((2,) * 12)),
            ("path A 12 {}",
             lambda: CrossSectionLattice(family_graph("path_A", 12), 0).to_poset())):
        assert peak_traced_bytes(build) <= budget, name


def test_boolean_lattice_refuses_above_the_iso_cap(monkeypatch):
    for k in (13, 16, 20, 21):
        with pytest.raises(SizeLimitError):
            boolean_lattice(k)
    monkeypatch.setattr(poset_engine, "ISO_SIZE_CAP", 8)
    assert boolean_lattice(3).size == 8
    with pytest.raises(SizeLimitError):
        boolean_lattice(4)


def test_cyclic_cover_input_rejected():
    # the closure of a cycle breaks antisymmetry
    with pytest.raises(PreconditionError):
        poset_from_cover_relations(2, [(0, 1), (1, 0)])


def test_membership_errors():
    p = chain_poset(3)
    with pytest.raises(MembershipError):
        p.join(0, 5)
    with pytest.raises(EmptyIntervalError):
        p.interval_poset(2, 0)


def test_indices_must_be_integers():
    b2 = boolean_lattice(2)
    # a float was truncated: join(1.9, 2) gave the join of 1 and 2
    for call in (lambda: b2.join(1.9, 2), lambda: b2.meet(2, 1.0), lambda: b2.mobius(0.5, 3),
                 lambda: b2.mobius_from(1.0), lambda: b2.interval_poset(0, 3.0),
                 lambda: b2.join(True, 2), lambda: b2.meet(np.bool_(True), 2),
                 lambda: b2.join("1", 2), lambda: b2.mobius_from(np.array([1])),
                 lambda: b2.interval_poset(np.array(0), 3),
                 lambda: b2.join(np.array([True, False, True, False]), 1),
                 lambda: b2.meet(np.array([0.0, 1.0]), 1),
                 lambda: b2.join(np.array([0, 4]), 1), lambda: b2.meet(np.array([-1]), 1)):
        with pytest.raises(MembershipError):
            call()
    assert b2.join(np.int64(1), np.uint8(2)) == 3 and type(b2.join(np.int64(1), 2)) is int
    assert b2.mobius(np.int32(0), 3) == 1
    rows = np.arange(4)[:, None]
    assert b2.join(rows, rows.T).tolist() == [[b2.join(i, j) for j in range(4)]
                                              for i in range(4)]
    assert b2.meet(np.array([3, 3], dtype=np.uint16), 1).tolist() == [1, 1]


def test_covers_and_rank_of_chain():
    p = chain_poset(4)
    assert p.covers.sum() == 3
    assert p.rank() == (0, 1, 2, 3)
    assert p.bottom == 0 and p.top == 3
    assert p.rank_of_top() == 3


def test_ungraded_poset_raises():
    # pentagon: the top covers elements at heights 1 and 2
    with pytest.raises(GradednessError):
        pentagon().rank()


def test_boolean_lattice_basics():
    b3 = boolean_lattice(3)
    assert b3.size == 8
    assert b3.is_lattice()
    assert b3.is_distributive_lattice()
    assert b3.is_boolean()
    assert b3.is_upper_semimodular()
    assert rank_counts(b3) == (1, 3, 3, 1)
    assert len(b3.atoms()) == 3
    assert len(maximal_chains(b3)) == 6


def test_join_meet_tables_match_definitions():
    b3 = boolean_lattice(3)
    for i in range(8):
        for j in range(8):
            k = b3.join(i, j)
            assert b3.leq[i, k] and b3.leq[j, k]
            uppers = [w for w in range(8) if b3.leq[i, w] and b3.leq[j, w]]
            assert all(b3.leq[k, w] for w in uppers)
            m = b3.meet(i, j)
            lowers = [w for w in range(8) if b3.leq[w, i] and b3.leq[w, j]]
            assert all(b3.leq[w, m] for w in lowers)


def test_pentagon_is_a_non_modular_lattice():
    n5 = pentagon()
    assert n5.is_lattice()
    assert not n5.is_upper_semimodular()
    assert not is_modular_lattice(n5)
    assert not n5.is_distributive_lattice()
    with pytest.raises(PreconditionError):
        n5.is_supersolvable_bruteforce()  # stated for semimodular lattices


def test_diamond_is_modular_not_distributive():
    m3 = diamond()
    assert is_modular_lattice(m3)
    assert not m3.is_distributive_lattice()
    assert m3.is_upper_semimodular()
    ok, chain = m3.is_supersolvable_bruteforce()
    assert ok and chain is not None
    assert str(m3.characteristic_polynomial()) == "x^2 - 3x + 2"


# -- Mobius ----------------------------------------------------------------------


def test_mobius_chain_and_boolean():
    c4 = chain_poset(4)
    assert [c4.mobius(0, v) for v in range(4)] == [1, -1, 0, 0]
    b3 = boolean_lattice(3)
    top = b3.top
    assert b3.mobius(b3.bottom, top) == -1  # (-1)^3
    for a in b3.atoms():
        assert b3.mobius(b3.bottom, a) == -1


@given(random_posets())
@settings(max_examples=60)
def test_mobius_zeta_convolution(p):
    for x in range(p.size):
        for y in range(p.size):
            if not p.leq[x, y]:
                continue
            total = sum(p.mobius(x, z) for z in range(p.size)
                        if p.leq[x, z] and p.leq[z, y])
            assert total == (1 if x == y else 0)


def test_exact_counts_just_inside_int64():
    # 242 elements of rank 16: mu climbs by a factor of 15 per level and the
    # maximal chains number 16^15 = 2^60, within the bound the checks prove
    p = antichain_tower(16)
    assert p.size == 242 and p.rank_of_top() == MAX_DEGREE
    assert p.mobius(p.bottom, p.top) == 15 ** 15 == 437893890380859375
    assert flag_f_vector(p)[tuple(range(1, 16))] == 16 ** 15 == 2 ** 60
    assert p.characteristic_polynomial().coeffs[1] == -16 * 15 ** 14


def test_counts_past_int64_are_refused():
    # at width 20, mu(bottom, top) = 19^15 and the maximal chains 20^15 both
    # pass 2^63; int64 arithmetic would wrap them to wrong values
    p = antichain_tower(20)
    with pytest.raises(SizeLimitError):
        p.mobius(p.bottom, p.top)
    with pytest.raises(SizeLimitError):
        p.characteristic_polynomial()
    with pytest.raises(SizeLimitError):
        flag_f_vector(p)


def test_characteristic_polynomials_of_named_lattices():
    assert str(boolean_lattice(3).characteristic_polynomial()) == "x^3 - 3x^2 + 3x - 1"
    assert str(chain_poset(3).characteristic_polynomial()) == "x^2 - x"
    b2 = boolean_lattice(2)
    assert b2.characteristic_polynomial() == CharPolynomial.from_roots((1, 1))


# -- modularity -------------------------------------------------------------------


def test_pentagon_modular_elements():
    n5 = pentagon()
    mask = modular_mask_reference(n5)
    # bounds and the lower chain element a are two-sided modular; the upper
    # chain element c fails on the right against b, and b fails on the left
    assert list(mask) == [True, True, False, False, True]
    assert is_left_modular(n5, 2) and not is_right_modular(n5, 2)
    assert not is_left_modular(n5, 3) and is_right_modular(n5, 3)
    assert not is_modular_pair(n5, 3, 2)
    assert is_modular_pair(n5, 2, 3)


def test_modular_pair_definition_agrees_with_bruteforce():
    n5 = pentagon()
    for a in range(5):
        for b in range(5):
            expect = True
            for c in range(5):
                if n5.leq[c, b]:
                    lhs = n5.join(c, n5.meet(a, b))
                    rhs = n5.meet(n5.join(c, a), b)
                    if lhs != rhs:
                        expect = False
            assert is_modular_pair(n5, a, b) == expect


def test_supersolvable_chain_is_maximal_and_modular():
    b3 = boolean_lattice(3)
    ok, chain = b3.is_supersolvable_bruteforce()
    assert ok
    ranks = [b3.rank()[i] for i in chain]
    assert ranks == list(range(4))
    for i in chain:
        assert is_left_modular(b3, i) and is_right_modular(b3, i)


# -- fast routes against their reference routes ------------------------------------


def modular_mask_reference(p: FinitePoset) -> np.ndarray:
    """The per-element route: one left and one right test per element."""
    return np.array([is_left_modular(p, v) and is_right_modular(p, v)
                     for v in range(p.size)])


def usm_by_covers(p: FinitePoset) -> bool:
    """Reference: Birkhoff's condition, x covers x ^ y implies x v y covers y."""
    join, meet = p._lattice_tables()
    cov = p.covers
    cols = np.arange(p.size)
    return not (cov[meet, cols[:, None]] & ~cov[cols, join]).any()


def assert_modular_masks_match(p: FinitePoset, name) -> None:
    assert p.is_upper_semimodular() == usm_by_covers(p), name
    left = np.array([is_left_modular(p, v) for v in range(p.size)])
    assert is_modular_lattice(p) == left.all(), name
    if not p.is_upper_semimodular():
        with pytest.raises(PreconditionError):
            p.modular_element_mask()
        return
    mask = p.modular_element_mask()
    assert (mask == modular_mask_reference(p)).all(), name
    assert is_modular_lattice(p) == mask.all(), name


def supersolvable_by_search(p: FinitePoset):
    """Reference search: depth first, expanding an element on every visit."""
    mod = p.modular_element_mask()
    stack = [(p.bottom, (p.bottom,))]
    while stack:
        v, chain = stack.pop()
        if v == p.top:
            return True, chain
        for j in reversed(np.flatnonzero(p.covers[v] & mod).tolist()):
            stack.append((j, chain + (j,)))
    return False, None


def family_lattices(kinds=("path_A", "cycle"), n_max=6):
    """Every cross section lattice of the given families up to n_max nodes."""
    for kind in kinds:
        for n in range(3 if kind == "cycle" else 1, n_max + 1):
            g = family_graph(kind, n)
            for j0 in range(g.full_mask + 1):
                yield (kind, n, j0), CrossSectionLattice(g, j0).to_poset()


def partition_lattice(k: int) -> FinitePoset:
    """Set partitions of k points ordered by refinement: geometric, not modular."""
    blocks_of = [[]]
    for point in range(k):
        blocks_of = [b[:i] + [b[i] | 1 << point] + b[i + 1:]
                     for b in blocks_of for i in range(len(b))] + [
                    b + [1 << point] for b in blocks_of]
    parts = sorted((tuple(sorted(b)) for b in blocks_of), key=lambda b: (-len(b), b))
    leq = [[all(any(x & ~y == 0 for y in q) for x in p) for q in parts] for p in parts]
    return FinitePoset(np.array(leq))


def reference_lattices():
    yield "N5", pentagon()
    yield "M3", diamond()
    yield "Pi4", partition_lattice(4)
    yield "B3", boolean_lattice(3)
    yield "3x2", chain_product_poset((3, 2))
    yield from family_lattices()


def distributive_by_triples(p: FinitePoset) -> bool:
    """Reference check of x ^ (y v z) = (x ^ y) v (x ^ z) over all triples."""
    join, meet = p._lattice_tables()
    for x in range(p.size):
        lhs = meet[x, join]
        mx = meet[x, :]
        rhs = join[np.ix_(mx, mx)]
        if not (lhs == rhs).all():
            return False
    return True


def test_birkhoff_distributivity_matches_triples():
    expected = {"N5": False, "M3": False, "B3": True, "3x2": True}
    seen = set()
    for name, p in reference_lattices():
        fast = p.is_distributive_lattice()
        assert fast == distributive_by_triples(p), name
        assert expected.get(name, fast) == fast, name
        seen.add(fast)
    assert seen == {True, False}


def test_modular_mask_matches_per_element_tests():
    semimodular = set()
    for name, p in reference_lattices():
        assert_modular_masks_match(p, name)
        if p.is_upper_semimodular():
            semimodular.add(name)
    assert {"M3", "Pi4", "B3", "3x2"} <= semimodular and "N5" not in semimodular


def test_rank_pass_refuses_negative_slack_and_ungraded_lattices():
    # partitions with the finer one above: graded and lower, not upper, semimodular
    pi4_dual = dual(partition_lattice(4))
    r = np.asarray(pi4_dual.rank())
    join, meet = pi4_dual._lattice_tables()
    assert (r[:, None] + r < r[join] + r[meet]).any()
    assert pi4_dual._modular_by_rank is None and not usm_by_covers(pi4_dual)
    assert 0 < modular_mask_reference(pi4_dual).sum() < pi4_dual.size
    n5 = pentagon()
    with pytest.raises(GradednessError):
        n5.rank()
    assert n5._modular_by_rank is None and not usm_by_covers(n5)


def test_distributive_mask_needs_no_distributivity_test():
    path = CrossSectionLattice(family_graph("path_A", 5), parse_nodeset("{1}"))
    for name, p in (("B3", boolean_lattice(3)), ("path A 5 {1}", path.to_poset())):
        assert p.modular_element_mask().all(), name
        assert "_distributive" not in p.__dict__, name
        assert p.is_distributive_lattice(), name


def test_supersolvable_witness_unchanged_by_modular_shortcut(monkeypatch):
    for name, p in family_lattices(kinds=("path_A",)):
        fast = p.is_supersolvable_bruteforce()
        ref = modular_mask_reference(p)
        monkeypatch.setattr(p, "modular_element_mask", lambda: ref)
        assert p.is_supersolvable_bruteforce() == fast, name


def test_supersolvable_search_matches_full_search():
    seen = set()
    for name, p in family_lattices(kinds=("path_A",)):
        found = p.is_supersolvable_bruteforce()
        assert found == supersolvable_by_search(p), name
        seen.add(found[0])
    assert seen == {True, False}


def set_family_poset(sets) -> FinitePoset:
    """Bitmask sets ordered by inclusion."""
    arr = np.array(sorted(sets))
    return FinitePoset((arr[:, None] & ~arr[None, :]) == 0)


def macneille_completion(p: FinitePoset) -> FinitePoset:
    """The cuts L(U(A)) of p ordered by inclusion: a lattice for every poset."""
    cuts = set()
    for bits in range(1 << p.size):
        chosen = [(bits >> i) & 1 == 1 for i in range(p.size)]
        upper = p.leq[chosen].all(axis=0)
        lower = p.leq[:, upper].all(axis=1)
        cuts.add(sum(1 << int(i) for i in np.flatnonzero(lower)))
    return set_family_poset(cuts)


@given(random_posets())
@settings(max_examples=200, deadline=None)
def test_birkhoff_distributivity_matches_triples_on_random_lattices(p):
    # few random posets are lattices, so their completions are checked too
    lattices = [macneille_completion(p)]
    if p.is_lattice():
        lattices.append(p)
    else:
        with pytest.raises(PreconditionError):
            p.is_distributive_lattice()
    for q in lattices:
        assert q.is_distributive_lattice() == distributive_by_triples(q)
        assert_modular_masks_match(q, "completion")
        assert_characterizations_match_searches(q, "completion")


def test_distributivity_needs_a_lattice():
    # two incomparable elements: no join, no meet
    antichain = FinitePoset(np.eye(2, dtype=bool))
    # two minimal elements below two maximal ones: no least upper bound
    bowtie = poset_from_cover_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    for p in (antichain, bowtie):
        assert not p.is_lattice()
        for check in (p.is_distributive_lattice, p.modular_element_mask,
                      lambda: distributive_by_triples(p)):
            with pytest.raises(PreconditionError):
                check()


@st.composite
def union_closed_lattices(draw):
    """The union closure of the prefixes of random words and a few random sets.

    With the empty set it is a lattice under inclusion.  The prefixes alone
    give the feasible sets of an antimatroid, an upper semimodular lattice;
    the extra sets may break that.
    """
    k = draw(st.integers(min_value=3, max_value=6))
    letters = st.integers(min_value=0, max_value=k - 1)
    words = draw(st.lists(st.lists(letters, min_size=2, unique=True), min_size=2, max_size=5))
    sets = {0}
    for word in words:
        prefix = 0
        for letter in word:
            prefix |= 1 << letter
            sets.add(prefix)
    sets |= set(draw(st.lists(st.integers(min_value=1, max_value=(1 << k) - 1), max_size=2)))
    while True:
        closed = {a | b for a in sets for b in sets}
        if closed == sets:
            return set_family_poset(sets)
        sets = closed


def assert_rank_identity_is_modular_pair(p: FinitePoset, name) -> None:
    r = p.rank()
    for a in range(p.size):
        for b in range(p.size):
            identity = r[a] + r[b] == r[p.meet(a, b)] + r[p.join(a, b)]
            assert identity == is_modular_pair(p, a, b), (name, a, b)


@seed(20109)
@given(union_closed_lattices())
@settings(max_examples=200, deadline=None)
def test_rank_identity_is_modular_pair_on_random_semimodular_lattices(p):
    assert_modular_masks_match(p, "union closure")
    if p.is_upper_semimodular():
        assert_rank_identity_is_modular_pair(p, "union closure")


def test_rank_identity_is_modular_pair_on_named_lattices():
    pi4 = partition_lattice(4)
    # the modular partitions of four points have at most one block of two
    # or more points: the bottom, the six single pairs, the four triples
    # and the top
    assert pi4.size == 15 and pi4.modular_element_mask().sum() == 12
    assert not is_modular_lattice(pi4) and is_modular_lattice(diamond())
    for name, p in reference_lattices():
        if p.is_upper_semimodular() and p.size <= 40:
            assert_rank_identity_is_modular_pair(p, name)


def custom_graphs(count: int, n_max: int, rng: random.Random):
    """Random simple graphs on 2 to n_max nodes."""
    for _ in range(count):
        n = rng.randint(2, n_max)
        pairs = list(combinations(range(1, n + 1), 2))
        yield build_custom_graph(n, [e for e in pairs if rng.random() < 0.4])


def assert_popcount_grades_semimodular(p: FinitePoset, key) -> None:
    src, dst = np.nonzero(p.covers)
    ranks = np.asarray(p.rank())
    assert (ranks[dst] == ranks[src] + 1).all(), key
    assert p.is_upper_semimodular() and usm_by_covers(p), key


def test_cross_section_lattices_are_upper_semimodular():
    # joins are unions and a cover adds one node, so two covers of x ^ y
    # join to a set one node larger than each
    for key, p in family_lattices():
        assert_popcount_grades_semimodular(p, key)
    for g in custom_graphs(30, 6, random.Random(20109)):
        for j0 in range(g.full_mask + 1):
            assert_popcount_grades_semimodular(CrossSectionLattice(g, j0).to_poset(), (g, j0))


def test_rank_pass_checks_injected_ranks_against_covers():
    # with these ranks no slack of the pentagon is negative, but the cover
    # 0 < 3 raises them by two, so they are no grading
    n5 = pentagon()
    bogus = FinitePoset._adopt(n5.leq.copy(), ranks=(0, 1, 2, 2, 3))
    r = np.asarray(bogus.rank())
    join, meet = bogus._lattice_tables()
    assert (r[:, None] + r >= r[join] + r[meet]).all()
    assert not bogus.is_upper_semimodular()


def test_modular_mask_refuses_lattices_that_are_not_upper_semimodular():
    n5 = pentagon()
    injected = FinitePoset._adopt(n5.leq.copy(), ranks=(0, 1, 2, 2, 3))
    for p in (n5, injected, dual(partition_lattice(4))):
        assert p.is_lattice()
        with pytest.raises(PreconditionError):
            p.modular_element_mask()


def least_common_bounds(bounds: np.ndarray, order: np.ndarray):
    """Reference table of least common bounds, or None when some pair has none.

    bounds[i, k] is true when k bounds i.  The first set bit of the AND of
    two rows packed in `order` is the first common bound k, and it is the
    least one exactly when k has as many bounds as the pair has.
    """
    n = len(order)
    sizes = bounds.sum(axis=1)
    words = -(-n // 64)
    padded = np.zeros((n, 64 * words), dtype=bool)
    padded[:, :n] = bounds[:, order]
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        common = packed[i] & packed
        first = (common != 0).argmax(axis=1)
        word = common[np.arange(n), first]
        if not word.all():
            return None
        bit = np.bitwise_count((word & (~word + np.uint64(1))) - np.uint64(1))
        least = order[64 * first + bit]
        if (sizes[least] != np.bitwise_count(common).sum(axis=1, dtype=np.int64)).any():
            return None
        table[i] = least
    return table


def tables_by_bitsets(p: FinitePoset):
    """Reference two-sided build: each table checked by its own bound counts."""
    order = np.asarray(p.linext, dtype=np.int64)
    join = least_common_bounds(p.leq, order)
    meet = None if join is None else least_common_bounds(p.leq.T, order[::-1])
    if meet is None:
        return None, None, False
    return join, meet, True


def tables_by_outer(p: FinitePoset):
    """Reference join/meet build: one N x N outer product per element.

    Each element k, taken in linear-extension order (reversed for meets),
    fills the pairs it bounds that are still empty; the pair's first
    common bound is its least one when every common bound is above it.
    """
    n, L = p.size, p.leq
    ub_counts = L.astype(np.int64) @ L.T.astype(np.int64)
    lb_counts = L.T.astype(np.int64) @ L.astype(np.int64)
    join = np.full((n, n), -1, dtype=np.int32)
    for k in p.linext:
        fresh = np.logical_and.outer(L[:, k], L[:, k]) & (join < 0)
        join[fresh] = k
    meet = np.full((n, n), -1, dtype=np.int32)
    for k in reversed(p.linext):
        fresh = np.logical_and.outer(L[k, :], L[k, :]) & (meet < 0)
        meet[fresh] = k
    if (join < 0).any() or (meet < 0).any():
        return None, None, False
    if not ((L.sum(axis=1)[join] == ub_counts).all()
            and (L.sum(axis=0)[meet] == lb_counts).all()):
        return None, None, False
    return join, meet, True


def first_common_bounds(bounds: np.ndarray, order: np.ndarray, upper=None):
    """Reference table of each pair's first common bound in `order`, or None.

    bounds[i, k] is true when k bounds i.  The first set bit of the AND of
    two rows packed in `order` is the pair's first common bound c.  With
    `upper` (upper[z, m] true when z <= m, for each m of a set M), U(z) is
    the set of elements of M above z, and c must have U(c) = U(x) & U(y),
    or the table is None.  When M holds every element with exactly one
    upper cover and the poset has a bottom, this makes each c the join:
      - No z < d has U(z) = U(d).  Take z maximal with such a d.  An upper
        cover a <= d of z has U(a) = U(d), so a = d by maximality.  z is
        not in M, as z is in U(z) but not in U(d), so z has a second upper
        cover b.  The first common upper bound e of d and b has
        U(e) = U(d) & U(b) = U(b), so e = b by maximality, yet d <= e
        and d, b are distinct covers of z.
      - Any common upper bound z of x and y has U(z) inside U(c), so the
        first common upper bound f of c and z has U(f) = U(z) and f = z
        by the above: c <= z.
    """
    n = len(order)
    words = -(-n // 64)
    padded = np.zeros((n, 64 * words), dtype=bool)
    padded[:, :n] = bounds[:, order]
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        common = packed[i] & packed
        first = (common != 0).argmax(axis=1)
        word = common[np.arange(n), first]
        if not word.all():
            return None
        bit = np.bitwise_count((word & (~word + np.uint64(1))) - np.uint64(1))
        least = order[64 * first + bit]
        if upper is not None and (upper[least] != (upper[i] & upper)).any():
            return None
        table[i] = least
    return table


def tables_by_first_bounds(p: FinitePoset):
    """Reference build by first common bounds: a checked join, an unchecked meet."""
    order = np.asarray(p.linext, dtype=np.int64)
    upper = p.leq[:, p.covers.sum(axis=1) == 1]
    join = None if p.bottom is None else first_common_bounds(p.leq, order, upper)
    if join is None:
        return None, None, False
    return join, first_common_bounds(p.leq.T, order[::-1]), True


def covers_by_int_matmul(p: FinitePoset) -> np.ndarray:
    strict = (p.leq & ~np.eye(p.size, dtype=bool)).astype(np.int64)
    return (strict == 1) & ((strict @ strict) == 0)


def flag_f_vector_by_products(p: FinitePoset) -> dict:
    """Each rank set's chain count as a fresh product of layer matrices."""
    ranks = p.rank()
    n = ranks[p.top]
    layers = [[v for v in range(p.size) if ranks[v] == r] for r in range(n + 1)]
    out = {(): 1}
    for size in range(1, n):
        for subset in combinations(range(1, n), size):
            vec = np.ones(len(layers[subset[0]]), dtype=np.int64)
            for a, b in zip(subset, subset[1:]):
                vec = vec @ p.leq[np.ix_(layers[a], layers[b])].astype(np.int64)
            out[subset] = int(vec.sum())
    return out


def relcomp_by_search(p: FinitePoset) -> bool:
    """Reference: every element of every interval has a complement in it."""
    join, meet = p._lattice_tables()
    L = p.leq
    for x in range(p.size):
        for y in np.where(L[x, :])[0]:
            idx = np.where(L[x, :] & L[:, y])[0]
            sub_join = join[np.ix_(idx, idx)]
            sub_meet = meet[np.ix_(idx, idx)]
            if not ((sub_join == y) & (sub_meet == x)).any(axis=1).all():
                return False
    return True


def atomic_by_joins(p: FinitePoset) -> bool:
    """Reference: fold the atoms below each element into their join."""
    join, _ = p._lattice_tables()
    L = p.leq
    for w in range(p.size):
        acc = p.bottom
        for a in p.atoms():
            if L[a, w]:
                acc = int(join[acc, a])
        if acc != w:
            return False
    return True


def factorization_by_components(p: FinitePoset):
    """Reference: connected components of comparability among the
    join-irreducibles, None when one of them is not a chain."""
    ji = p.join_irreducibles()
    L = p.leq
    seen: set[int] = set()
    parts: list[int] = []
    for v in ji:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in ji:
                if w not in comp and (L[u, w] or L[w, u]):
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        if any(not (L[a, b] or L[b, a]) for a in comp for b in comp):
            return None
        parts.append(len(comp))
    return tuple(sorted(parts, reverse=True))


def assert_characterizations_match_searches(p: FinitePoset, name: str) -> None:
    assert p.is_relatively_complemented() == relcomp_by_search(p), name
    assert p.is_atomic() == atomic_by_joins(p), name
    if p.is_distributive_lattice():
        assert p.chain_product_factorization() == factorization_by_components(p), name


def family_intervals(n_max=5):
    """Every interval of the family lattices, once per distinct order matrix.

    The checks read nothing but the order and the tables it fixes, and
    the 9,158 intervals at n <= 5 have only 109 distinct matrices.
    """
    seen = set()
    for key, p in family_lattices(n_max=n_max):
        for x in range(p.size):
            for y in np.flatnonzero(p.leq[x]):
                sub = p.interval_poset(x, int(y))
                if sub.leq.tobytes() not in seen:
                    seen.add(sub.leq.tobytes())
                    yield (key, x, int(y)), sub


def test_characterizations_match_searches():
    for name, p in [*reference_lattices(), *family_intervals()]:
        assert_characterizations_match_searches(p, name)


def test_characterization_pins():
    n5 = pentagon()
    assert n5.interval_poset(0, 2).size == 3  # [0, c] is a three-element chain
    assert not n5.is_relatively_complemented() and not relcomp_by_search(n5)
    assert not n5.is_atomic() and not atomic_by_joins(n5)
    m3 = diamond()
    assert m3.is_relatively_complemented() and relcomp_by_search(m3)
    one = chain_poset(1)
    assert one.chain_product_factorization() == () == factorization_by_components(one)
    for name, p in non_lattices():
        for check in (p.is_relatively_complemented, p.is_atomic,
                      p.chain_product_factorization):
            with pytest.raises(PreconditionError):
                check()


def non_lattices():
    # 1 and 2 have no upper bound; in the dual, no lower bound
    vee = poset_from_cover_relations(3, [(0, 1), (0, 2)])
    yield "vee", vee
    yield "wedge", dual(vee)
    # every pair has common bounds, but 1 and 2 have two minimal upper ones
    yield "bowtie", poset_from_cover_relations(
        6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    # keys of the elements with one upper cover are distinct and x <= y
    # exactly when U(y) lies inside U(x), but 1 and 2 have the two minimal
    # upper bounds 5 and 6, and no element has the key U(1) & U(2)
    yield "missing key", poset_from_cover_relations(8, [
        (0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (2, 5), (2, 6), (3, 6),
        (4, 7), (5, 7), (6, 7)])


def edge_size_posets():
    """Sizes around the 64-bit word and the row-block boundaries."""
    for m in (63, 64, 65, 129):
        yield f"chain{m}", chain_poset(m)
    for k in (7, 8):
        yield f"B{k}", boolean_lattice(k)


def assert_tables_match(p: FinitePoset, join, meet, ok: bool, name) -> None:
    """The checked join table, then the meet table built when read."""
    assert p.is_lattice() == ok, name
    if not ok:
        assert p._tables is None, name
        return
    assert "_meet" not in p.__dict__, name
    assert p._tables.dtype == join.dtype and (p._tables == join).all(), name
    assert p._meet.dtype == meet.dtype and (p._meet == meet).all(), name


def assert_references_agree(p: FinitePoset, name) -> tuple:
    """The outer-product tables, once the other reference builds agree."""
    join, meet, ok = tables_by_outer(p)
    for build in (tables_by_bitsets, tables_by_first_bounds):
        ref_join, ref_meet, ref_ok = build(p)
        assert ref_ok == ok, (name, build.__name__)
        if ok:
            assert (ref_join == join).all() and (ref_meet == meet).all(), name
    return join, meet, ok


def assert_covers_and_ranks_match(p: FinitePoset, name) -> None:
    """covers, rank() and the checked grading against the product and the loop."""
    cov = covers_by_int_matmul(p)
    assert (p.covers == cov).all(), name
    try:
        ranks = ranks_by_cover_loop(p, cov)
    except GradednessError:
        ranks = None
        with pytest.raises(GradednessError):
            p.rank()
    else:
        assert p.rank() == ranks, name
    # the ranks grade the poset when every cover raises them by one
    src, dst = np.nonzero(cov)
    r = np.asarray(ranks)
    graded = ranks is not None and (r[dst] == r[src] + 1).all()
    grading = p._grading()
    assert (grading is not None) == graded, name
    if graded:
        assert tuple(grading.tolist()) == ranks, name


def assert_routes_match_references(p: FinitePoset, name: str) -> None:
    join, meet, ok = assert_references_agree(p, name)
    assert_tables_match(p, join, meet, ok, name)
    assert_covers_and_ranks_match(p, name)
    if p.bottom is None or p.top is None:
        return
    try:
        rtop = p.rank_of_top()
    except GradednessError:
        return
    if rtop <= MAX_DEGREE:
        assert flag_f_vector(p) == flag_f_vector_by_products(p), name


def test_tables_covers_and_flags_match_references():
    for name, p in [*reference_lattices(), *edge_size_posets(), *non_lattices()]:
        assert_routes_match_references(p, name)


@given(random_posets())
@settings(max_examples=200, deadline=None)
def test_tables_covers_and_flags_match_references_on_random_posets(p):
    assert_routes_match_references(p, "draw")
    assert_routes_match_references(macneille_completion(p), "completion")


def test_interval_covers_restrict_the_parents(monkeypatch):
    # an interval of a graded lattice neither checks a grading nor
    # multiplies: it restricts its parent's covers
    def refuse(*args):
        raise AssertionError("interval covers recomputed")

    roots = list(family_lattices())
    for _, p in roots:
        assert p.is_lattice()
    monkeypatch.setattr(poset_engine, "_covers_of_grading", refuse)
    monkeypatch.setattr(poset_engine, "_bool_square", refuse)
    for key, p in roots:
        for x in range(p.size):
            for y in np.flatnonzero(p.leq[x]).tolist():
                assert_covers_and_ranks_match(p.interval_poset(x, y), (key, x, y))


def test_graded_posets_take_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("product ran")

    cycle = CrossSectionLattice(family_graph("cycle", 6), parse_nodeset("{1}")).to_poset()
    graded = [cycle, boolean_lattice(4), chain_product_poset((3, 2)), chain_poset(5)]
    expected = [covers_by_int_matmul(p) for p in graded]
    n5 = pentagon()
    monkeypatch.setattr(poset_engine, "_bool_square", refuse)
    for p, cov in zip(graded, expected):
        assert (p.covers == cov).all()
    # the pentagon has no grading, so only the product finds its covers
    with pytest.raises(AssertionError, match="product ran"):
        n5.covers


def test_covers_refuse_injected_ranks_that_are_no_grading():
    n5, chain3 = pentagon(), chain_poset(3)
    for name, leq, ranks in (
            ("pentagon", n5.leq, (0, 1, 2, 2, 3)),
            ("skips a rank", chain3.leq, (0, 2, 3)),
            ("decreasing", chain3.leq, (2, 1, 0)),
            ("equal along a relation", chain3.leq, (0, 1, 1)),
            ("B2, one side decreasing", boolean_lattice(2).leq, (0, 1, -1, 2))):
        p = FinitePoset._adopt(leq.copy(), ranks=ranks)
        assert_covers_and_ranks_match(p, name)
        assert p._grading() is None and p.rank() == ranks, name


def test_tables_refuse_non_lattices():
    for name, p in non_lattices():
        assert tables_by_outer(p)[2] is False, name
        assert tables_by_bitsets(p)[2] is False, name
        assert not p.is_lattice(), name
        for op in (p.join, p.meet):
            with pytest.raises(PreconditionError):
                op(0, 1)


def test_join_semilattice_without_bottom_is_not_a_lattice():
    # two minimal elements below one maximal: every pair has a join, so
    # only the missing bottom makes this no lattice
    wedge = poset_from_cover_relations(3, [(1, 0), (2, 0)])
    assert wedge.bottom is None
    assert least_common_bounds(wedge.leq, np.asarray(wedge.linext)) is not None
    assert not wedge.is_lattice()


def test_meet_table_built_only_when_read():
    p = CrossSectionLattice(family_graph("cycle", 6), 0b1).to_poset()
    assert not p.is_distributive_lattice()
    assert p._tables is not None and "_meet" not in p.__dict__
    sub = p.interval_poset(p.bottom, p.top)
    assert sub.is_lattice() and "_meet" not in sub.__dict__
    # an interval builds its meet table from its own order on that first
    # read, and leaves the parent's unbuilt
    assert sub.meet(0, sub.size - 1) == 0 and "_meet" in sub.__dict__
    assert "_meet" not in p.__dict__
    assert (sub._meet == tables_by_bitsets(sub)[1]).all()


@st.composite
def bounded_posets(draw):
    """A random poset of 2 to 7 elements with a new bottom and top added."""
    inner = draw(random_posets(size=draw(st.integers(min_value=2, max_value=7))))
    n = inner.size + 2
    leq = np.zeros((n, n), dtype=bool)
    leq[1:-1, 1:-1] = inner.leq
    leq[0, :] = True
    leq[:, -1] = True
    return FinitePoset(leq)


@seed(20101)
@given(bounded_posets())
@settings(max_examples=300, deadline=None)
def test_key_lookup_matches_references_on_bounded_posets(p):
    # a bottom always exists here, so the pair check alone decides
    assert p.bottom == 0
    assert_tables_match(p, *assert_references_agree(p, "bounded"), "bounded")


def many_atoms(m: int) -> FinitePoset:
    """M_m: m atoms between a bottom and a top, with m keys each way."""
    return poset_from_cover_relations(
        m + 2, [(0, a) for a in range(1, m + 1)] + [(a, m + 1) for a in range(1, m + 1)])


def test_key_lookup_on_wide_keys():
    for m in (8, 9, 20):
        p = many_atoms(m)
        # M_8 fills the direct table's bits exactly, M_9 and M_20 go past it
        assert m - _first_key_bits(p.size) == {8: 0, 9: 1, 20: 12}[m]
        assert_tables_match(p, *assert_references_agree(p, m), m)
    # M_19 below a new top, with a twentieth atom that meets it only there
    m = 20
    wide = poset_from_cover_relations(
        m + 3, [(0, a) for a in range(1, m + 1)] + [(a, m + 1) for a in range(1, m)]
        + [(m, m + 2), (m + 1, m + 2)])
    assert_tables_match(wide, *assert_references_agree(wide, "wide"), "wide")


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 20, 40])
def test_key_index_finds_exactly_the_common_keys(width):
    rng = np.random.default_rng(width)
    keys = rng.random((30, width)) < 0.85
    # rows sharing a long prefix with some AND of two rows but not its tail
    ands = keys[rng.integers(0, 30, 10)] & keys[rng.integers(0, 30, 10)]
    ands[:, -1:] ^= True
    # and three rows that repeat a key
    keys = np.vstack([keys, ands, keys[:3]])
    found = _KeyIndex(keys).find_common(slice(None))
    for i in range(len(keys)):
        for j in range(len(keys)):
            want = keys[i] & keys[j]
            same = np.flatnonzero((keys == want).all(axis=1))
            if len(same):
                assert found[i, j] in same, (i, j)
            else:
                assert found[i, j] == -1, (i, j)


def mobius_by_linext(p: FinitePoset, x: int) -> np.ndarray:
    """Reference Mobius row: one step per element in linear-extension order."""
    L = p.leq
    mu = np.zeros(p.size, dtype=np.int64)
    for v in p.linext:
        if v == x:
            mu[v] = 1
        elif L[x, v]:
            mu[v] = -int(mu @ L[:, v])
    return mu


def charpoly_by_loop(p: FinitePoset) -> CharPolynomial:
    """Reference characteristic polynomial: one addition per element."""
    ranks = p.rank()
    rtop = ranks[p.top]
    mu = mobius_by_linext(p, p.bottom)
    coeffs = [0] * (rtop + 1)
    for w in range(p.size):
        coeffs[rtop - ranks[w]] += int(mu[w])
    return CharPolynomial(tuple(coeffs))


def assert_mobius_matches_reference(p: FinitePoset, name: str) -> None:
    for x in range(p.size):
        row = p.mobius_from(x)
        assert row.dtype == np.int64, name
        assert (row == mobius_by_linext(p, x)).all(), (name, x)
    if p.bottom is None or p.top is None:
        return
    try:
        p.rank()
    except GradednessError:
        return
    assert p.characteristic_polynomial() == charpoly_by_loop(p), name


def test_mobius_rows_match_reference():
    for name, p in reference_lattices():
        assert_mobius_matches_reference(p, name)
        assert_mobius_matches_reference(dual(p), f"{name} dual")


@given(random_posets())
@settings(max_examples=200, deadline=None)
def test_mobius_rows_match_reference_on_random_posets(p):
    completion = macneille_completion(p)
    for name, q in (("draw", p), ("completion", completion),
                    ("dual", dual(p)), ("completion dual", dual(completion))):
        assert_mobius_matches_reference(q, name)


def test_antichain_blocks():
    b3 = boolean_lattice(3)
    assert [block.tolist() for block in antichain_blocks(b3)] == [
        [0], [1, 2, 3], [4, 5, 6], [7]]
    # the pentagon is not graded: one element per block, in linext order
    n5 = pentagon()
    assert [block.tolist() for block in antichain_blocks(n5)] == [
        [v] for v in n5.linext]


def test_mobius_levels_are_contiguous_index_ranges():
    order, L, ends = boolean_lattice(3)._levels
    assert order is None and ends == [1, 4, 7, 8]
    # the pentagon 0 < 1 < 2 < 4, 0 < 3 < 4 is not graded: its heights are
    # 0, 1, 2, 1, 3, so 3 moves before 2 and leq is permuted once
    n5 = pentagon()
    order, L, ends = n5._levels
    assert order.tolist() == [0, 1, 3, 2, 4] and ends == [1, 3, 4, 5]
    assert (L == n5.leq[np.ix_(order, order)]).all()
    assert n5._levels[1] is L


def assert_mobius_matches_blocked_reference(p: FinitePoset, name) -> None:
    for x in range(p.size):
        assert (p.mobius_from(x) == mobius_by_antichain_blocks(p, x)).all(), (name, x)


def test_mobius_rows_match_blocked_reference():
    rng = random.Random(20)
    for name, p in reference_lattices():
        assert_mobius_matches_blocked_reference(p, name)
        order = list(range(p.size))
        rng.shuffle(order)
        shuffled = relabeled(p, order)
        assert_mobius_matches_blocked_reference(shuffled, (name, "relabeled"))
        if isinstance(name, tuple):
            # cross section lattices are sorted by rank already, so their
            # rows read leq itself
            assert p._levels[0] is None and p._levels[1] is p.leq, name


def test_interval_mobius_rows_match_blocked_reference():
    rng = random.Random(21)
    for name, p in family_lattices(kinds=("path_A", "cycle"), n_max=4):
        order = list(range(p.size))
        rng.shuffle(order)
        shuffled = relabeled(p, order)
        for x in range(p.size):
            for y in np.flatnonzero(p.leq[x]).tolist():
                sub = p.interval_poset(x, y)
                # so are their intervals
                assert sub._levels[0] is None, (name, x, y)
                assert_mobius_matches_blocked_reference(sub, (name, x, y))
                inner = shuffled.interval_poset(order.index(x), order.index(y))
                assert_mobius_matches_blocked_reference(inner, (name, x, y, "relabeled"))


@given(random_posets())
@settings(max_examples=100, deadline=None)
def test_mobius_rows_match_blocked_reference_on_random_posets(p):
    # most draws are ungraded or have no bottom, so they fall back to heights
    completion = macneille_completion(p)
    for name, q in (("draw", p), ("completion", completion), ("dual", dual(p))):
        assert_mobius_matches_blocked_reference(q, name)
        for x in range(q.size):
            for y in np.flatnonzero(q.leq[x]).tolist():
                assert_mobius_matches_blocked_reference(q.interval_poset(x, y), (name, x, y))


def assert_tables_fresh(q: FinitePoset, name: str) -> None:
    assert_tables_match(q, *tables_by_bitsets(q), name)


def test_interval_tables_restrict_lazily():
    for key, p in family_lattices(n_max=5):
        assert p.is_lattice()
        for x in range(p.size):
            for y in np.flatnonzero(p.leq[x]):
                sub = p.interval_poset(x, int(y))
                assert sub.is_lattice(), (key, x, y)
                assert "_tables" not in sub.__dict__, (key, x, y)
                # an interval of an unread interval is a lattice too, and
                # each builds its tables from its own order when read
                inner = sub.interval_poset(sub.linext[min(1, sub.size - 1)], sub.top)
                assert_tables_fresh(sub, (key, x, y))
                assert_tables_fresh(inner, (key, x, y, "inner"))


def assert_interval_tables_are_restrictions(p: FinitePoset, name) -> None:
    """Each interval's own tables against the parent's, restricted."""
    join, meet = p._lattice_tables()
    for x in range(p.size):
        for y in np.flatnonzero(p.leq[x]).tolist():
            idx = np.flatnonzero(p.leq[x] & p.leq[:, y])
            sub = p.interval_poset(x, y)
            key = (name, x, y)
            assert (sub._tables == _restricted(join, idx)).all(), key
            assert (sub._meet == _restricted(meet, idx)).all(), key


def test_interval_tables_equal_the_parents_restricted():
    for key, p in family_lattices(n_max=5):
        assert_interval_tables_are_restrictions(p, key)


@given(st.one_of(union_closed_lattices(), random_posets().map(macneille_completion)))
@settings(max_examples=100, deadline=None)
def test_interval_tables_equal_the_parents_restricted_on_random_lattices(p):
    assert_interval_tables_are_restrictions(p, "drawn")


def relabeled(p: FinitePoset, order) -> FinitePoset:
    """p with its indices permuted: index i of the result is index order[i] of p."""
    order = np.asarray(order)
    ranks = None if p._injected_ranks is None else [p._injected_ranks[i] for i in order]
    return FinitePoset._adopt(p.leq[np.ix_(order, order)], ranks=ranks)


def assert_intervals_match_public_constructor(parent: FinitePoset, name) -> None:
    for x in range(parent.size):
        for y in np.flatnonzero(parent.leq[x]).tolist():
            sub = parent.interval_poset(x, y)
            # index i of the interval is the i-th parent index in [x, y]
            idx = np.flatnonzero(parent.leq[x] & parent.leq[:, y])
            ref = FinitePoset(parent.leq[np.ix_(idx, idx)])
            key = (name, x, y)
            assert not sub.leq.flags.writeable, key
            assert (sub.leq == ref.leq).all(), key
            assert (sub.bottom, sub.top) == (ref.bottom, ref.top), key
            try:
                expected = ref.rank()
            except GradednessError:
                with pytest.raises(GradednessError):
                    sub.rank()
            else:
                assert sub.rank() == expected, key


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_interval_handoff_matches_public_constructor(data):
    # relabeled parents list their elements in an order that need not
    # extend the partial order, so an interval's bottom and top need not
    # come first and last
    p = data.draw(random_posets())
    completion = macneille_completion(p)
    order = data.draw(st.permutations(range(completion.size)))
    for name, parent in (("draw", p), ("completion", completion),
                         ("relabeled", relabeled(completion, order))):
        assert_intervals_match_public_constructor(parent, name)


def test_interval_handoff_on_relabeled_cross_section_lattices():
    rng = random.Random(15)
    for key, p in family_lattices(n_max=4):
        order = list(range(p.size))
        rng.shuffle(order)
        for name, parent in ((key, p), ((key, "relabeled"), relabeled(p, order))):
            assert_intervals_match_public_constructor(parent, name)


def test_intervals_read_a_checked_grading_not_injected_ranks():
    # rank() of the adopted parent returns its bogus ranks as given, but
    # each interval reads the grading that covers checked
    for name, leq, ranks in (("B2", boolean_lattice(2).leq, (0, 1, -1, 2)),
                             ("3-chain", chain_poset(3).leq, (0, 2, 3))):
        parent = FinitePoset._adopt(leq.copy(), ranks=ranks)
        assert parent.is_lattice() and parent.rank() == ranks, name
        assert_intervals_match_public_constructor(parent, name)


# -- structure predicates ---------------------------------------------------------


def test_relatively_complemented_and_atomic():
    assert boolean_lattice(3).is_relatively_complemented()
    assert boolean_lattice(3).is_atomic()
    c3 = chain_poset(3)
    assert not c3.is_relatively_complemented()
    assert not c3.is_atomic()
    assert diamond().is_relatively_complemented()


def test_is_boolean_rejects_near_misses():
    assert boolean_lattice(1).is_boolean()
    assert not diamond().is_boolean()  # 5 elements
    assert not chain_poset(4).is_boolean()
    # rank-symmetric non-boolean lattice of the right size: C2 x C4
    p = chain_product_poset((2, 4))
    assert p.size == 8 and not p.is_boolean()


def test_is_boolean_compares_size_before_rank():
    # rank 31 is too high for a Boolean lattice, but 32 elements decide it
    assert not chain_poset(32).is_boolean()


def test_is_boolean_refuses_above_the_cap_before_building(monkeypatch):
    def refuse(rank):
        raise AssertionError("reference lattice built")

    p, c2x4, n5 = boolean_lattice(3), chain_product_poset((2, 4)), pentagon()
    monkeypatch.setattr(poset_engine, "ISO_SIZE_CAP", 4)
    monkeypatch.setattr(poset_engine, "_shared_boolean_lattice", refuse)
    # a size that is no power of two decides before the cap
    assert not n5.is_boolean()
    # above the cap, a power-of-two size refuses, Boolean or not
    for q in (p, c2x4):
        with pytest.raises(SizeLimitError, match="isomorphism test capped at 4 elements"):
            q.is_boolean()


def test_is_boolean_refuses_before_tables_or_covers(monkeypatch):
    def refuse(*args):
        raise AssertionError("table or covers built")

    # 8,192 elements, above ISO_SIZE_CAP
    p = CrossSectionLattice(family_graph("path_A", 13), 0).to_poset()
    monkeypatch.setattr(poset_engine, "_least_bounds", refuse)
    monkeypatch.setattr(poset_engine, "_covers_of_grading", refuse)
    with pytest.raises(SizeLimitError, match="isomorphism test capped"):
        p.is_boolean()


def every_interval(kinds, n_max):
    """Every interval of the family lattices, repeated order matrices too."""
    for key, p in family_lattices(kinds=kinds, n_max=n_max):
        for x in range(p.size):
            for y in np.flatnonzero(p.leq[x]).tolist():
                yield (key, x, y), p.interval_poset(x, y)


def test_boolean_intervals_are_certified_without_search(monkeypatch):
    # a Boolean interval of a cross section lattice lists its elements in
    # boolean_lattice's order, so equal order matrices decide it
    for k in range(1, 7):
        whole = CrossSectionLattice(build_path_diagram("A", k), 0).to_poset()
        assert (boolean_lattice(k).leq == whole.leq).all()
    families = ((("path_A", "path_B", "path_C"), 4), (("cycle",), 5))
    boolean = [key for kinds, n_max in families
               for key, sub in every_interval(kinds, n_max)
               if sub.size == 1 << sub.rank_of_top()
               and _isomorphic_by_search(sub, boolean_lattice(sub.rank_of_top()))]
    assert len(boolean) > 1000

    def refuse(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(poset_engine, "_refine_colors", refuse)
    found = [key for kinds, n_max in families
             for key, sub in every_interval(kinds, n_max) if sub.is_boolean()]
    assert found == boolean


def test_is_boolean_searches_when_the_order_differs(monkeypatch):
    refined = []

    def counted(*args):
        refined.append(1)
        return real(*args)

    real = poset_engine._refine_colors
    monkeypatch.setattr(poset_engine, "_refine_colors", counted)
    b3 = boolean_lattice(3)
    shuffled = relabeled(b3, [3, 6, 0, 5, 1, 7, 2, 4])
    assert not np.array_equal(shuffled.leq, b3.leq)
    assert shuffled.is_boolean() and refined


def test_join_irreducibles_of_products():
    p = chain_product_poset((3, 2))
    ji = p.join_irreducibles()
    assert len(ji) == 3  # (2-1) + (3-1) chain steps
    b3 = boolean_lattice(3)
    assert sorted(b3.join_irreducibles()) == sorted(b3.atoms())


def test_chain_product_factorization_values():
    assert boolean_lattice(3).chain_product_factorization() == (1, 1, 1)
    assert chain_poset(4).chain_product_factorization() == (3,)
    assert chain_product_poset((3, 2)).chain_product_factorization() == (2, 1)
    assert chain_poset(1).chain_product_factorization() == ()
    with pytest.raises(PreconditionError):
        diamond().chain_product_factorization()


def test_factorization_none_when_irreducibles_entangle():
    # order ideals of a V: distributive but not a product of chains
    p = poset_from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert p.is_distributive_lattice()
    assert p.chain_product_factorization() is None
    assert factorization_by_components(p) is None


def test_rank_symmetry_predicates():
    assert is_rank_symmetric(boolean_lattice(3))
    assert is_locally_rank_symmetric(boolean_lattice(3))
    assert is_locally_rank_symmetric(chain_product_poset((3, 3)))
    p = poset_from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert not is_rank_symmetric(p)


def test_self_dual_predicates():
    assert is_self_dual(boolean_lattice(3))
    assert is_self_dual(chain_poset(5))
    assert is_locally_self_dual(boolean_lattice(2))
    p = poset_from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert not is_self_dual(p)
    assert not is_locally_self_dual(p)


# -- intervals and classification -------------------------------------------------


def test_interval_poset_of_boolean_is_boolean():
    b4 = boolean_lattice(4)
    atom = b4.atoms()[0]
    sub = b4.interval_poset(atom, b4.top)
    assert sub.size == 8
    assert sub.is_boolean()


def test_classify_rank3_shapes():
    assert classify_rank3_interval(boolean_lattice(3)) == "boolean3"
    assert classify_rank3_interval(chain_poset(4)) == "chain4"
    assert classify_rank3_interval(fence6_poset()) == "fence6"
    # the fence shape is exactly the C3 x C2 grid under another name
    assert classify_rank3_interval(chain_product_poset((3, 2))) == "fence6"
    three_atoms_then_chain = poset_from_cover_relations(
        6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)])
    assert classify_rank3_interval(three_atoms_then_chain) == "other"
    with pytest.raises(PreconditionError):
        classify_rank3_interval(boolean_lattice(2))


def test_maximal_chains_deterministic():
    b2 = boolean_lattice(2)
    chains = maximal_chains(b2)
    assert chains == maximal_chains(b2)
    assert len(chains) == 2
    for chain in chains:
        assert chain[0] == b2.bottom and chain[-1] == b2.top


# -- isomorphism ------------------------------------------------------------------


def test_isomorphic_relabeled_boolean():
    b3 = boolean_lattice(3)
    perm = [3, 6, 0, 5, 1, 7, 2, 4]
    inv = np.argsort(perm)
    shuffled = FinitePoset(b3.leq[np.ix_(inv, inv)])
    assert posets_isomorphic(b3, shuffled)


def test_isomorphism_distinguishes_shapes():
    assert not posets_isomorphic(boolean_lattice(3), chain_poset(8))
    assert posets_isomorphic(chain_product_poset((2, 3)), chain_product_poset((3, 2)))
    assert posets_isomorphic(boolean_lattice(2), chain_product_poset((2, 2)))
    assert not posets_isomorphic(pentagon(), diamond())
    # same rank counts (1, 2, 1) but different cover structure
    p = poset_from_cover_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    q = poset_from_cover_relations(4, [(0, 1), (0, 2), (1, 3)])
    assert not posets_isomorphic(p, q)


@given(random_posets(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_isomorphism_invariant_under_relabeling(p, rng):
    order = list(range(p.size))
    rng.shuffle(order)
    inv = np.argsort(order)
    q = FinitePoset(p.leq[np.ix_(inv, inv)])
    assert posets_isomorphic(p, q)


def hasse_digraph(nx, p: FinitePoset):
    g = nx.DiGraph()
    g.add_nodes_from(range(p.size))
    g.add_edges_from(zip(*(a.tolist() for a in np.nonzero(p.covers))))
    return g


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_isomorphism_matches_networkx(data):
    # an independent check: isomorphism of the directed Hasse diagrams
    nx = pytest.importorskip("networkx")
    p = data.draw(random_posets())
    q = data.draw(random_posets(size=p.size))
    inv = np.argsort(data.draw(st.permutations(range(p.size))))
    shuffled = FinitePoset(p.leq[np.ix_(inv, inv)])
    # equal order matrices take the identity certificate, which the
    # search must confirm
    pairs = ((p, q), (p, shuffled), (q, shuffled),
             (p, FinitePoset(p.leq.copy())), (q, FinitePoset(q.leq.copy())))
    for a, b in pairs:
        expected = nx.is_isomorphic(hasse_digraph(nx, a), hasse_digraph(nx, b))
        assert posets_isomorphic(a, b) == expected
        assert _isomorphic_by_search(a, b) == expected


# -- characteristic polynomial arithmetic -----------------------------------------


def test_charpoly_arithmetic():
    x2 = CharPolynomial((0, 0, 1))
    one = CharPolynomial.one()
    assert x2 * one == x2
    assert CharPolynomial.from_roots((1, 1)) == CharPolynomial((1, -2, 1))
    assert CharPolynomial.x_power_times_x_minus_one_power(2, 2) == CharPolynomial(
        (0, 0, 1, -2, 1))
    for a in range(6):
        for b in range(6):
            assert CharPolynomial.x_power_times_x_minus_one_power(a, b) == \
                CharPolynomial.from_roots([0] * a + [1] * b), (a, b)
    assert str(CharPolynomial((0, 0, 1, -2, 1))) == "x^4 - 2x^3 + x^2"
    assert str(one) == "1"
    assert evaluate(CharPolynomial((1, -2, 1)), 3) == 4
    assert CharPolynomial((0, 0, 0)).degree == 0


def test_charpoly_strips_leading_zeros():
    assert CharPolynomial((1, 0, 0)) == CharPolynomial((1,))
    assert CharPolynomial((1, 0, 0)).degree == 0
