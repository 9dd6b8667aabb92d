"""Flag vectors and quasisymmetric functions on graded bounded posets."""

from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_routes import (
    antichain_tower,
    flag_f_vector_by_rank_sets,
    maximal_chains,
    poset_from_cover_relations,
    subset_sums_by_loop,
)

from crosslat.crosslattice import CrossSectionLattice
from crosslat.errors import BasisMismatchError, CompositionError
from crosslat.flags import (
    MAX_DEGREE,
    QuasiSymFunction,
    _subset_sums,
    flag_beta,
    flag_f_vector,
    flag_qsym,
    fundamental_to_monomial,
    h_gamma,
    inner_product_fundamental,
    is_flag_symmetric,
    partition_of_composition,
    subset_to_composition,
)
from crosslat.poset_engine import boolean_lattice, chain_poset, chain_product_poset
from crosslat.theorem_suite import family_graph


def test_subset_composition_round_trip():
    assert subset_to_composition((2, 5), 7) == (2, 3, 2)
    assert subset_to_composition((), 4) == (4,)
    assert subset_to_composition((), 0) == ()
    assert partition_of_composition((1, 3, 1)) == (3, 1, 1)


def test_composition_validation():
    with pytest.raises(CompositionError):
        subset_to_composition((0,), 3)  # 0 is not a proper rank
    with pytest.raises(CompositionError):
        subset_to_composition((3,), 3)  # top rank not allowed
    with pytest.raises(CompositionError):
        subset_to_composition((2, 2), 4)  # not strictly increasing


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=5))
def test_composition_subset_bijection(parts):
    comp = tuple(parts)
    degree = sum(comp)
    subset = tuple(accumulate(comp))[:-1]
    assert subset_to_composition(subset, degree) == comp


def test_flag_f_vector_boolean2():
    b2 = boolean_lattice(2)
    f = flag_f_vector(b2)
    assert f[()] == 1
    assert f[(1,)] == 2  # two rank-1 elements


def test_flag_f_vector_counts_chains():
    b3 = boolean_lattice(3)
    f = flag_f_vector(b3)
    assert f[(1,)] == 3
    assert f[(2,)] == 3
    assert f[(1, 2)] == 6  # atom below coatom pairs
    # a flag through every rank is a maximal chain minus the bounds
    assert f[(1, 2)] == len(maximal_chains(b3))


def test_flag_beta_inclusion_exclusion():
    b2 = boolean_lattice(2)
    beta = flag_beta(b2)
    assert beta[()] == 1
    assert beta[(1,)] == 1  # f({1}) - f({}) = 2 - 1
    c3 = chain_poset(3)
    assert flag_beta(c3)[(1,)] == 0


def test_flag_qsym_of_chain_is_single_monomial():
    c3 = chain_poset(3)
    q = flag_qsym(c3)
    assert q.basis == "F" and q.degree == 2
    assert q == QuasiSymFunction("F", 2, {(): 1})
    m = fundamental_to_monomial(q)
    # F over the empty subset expands into every monomial refinement
    assert m == QuasiSymFunction("M", 2, {(): 1, (1,): 1})


def test_fundamental_to_monomial_on_boolean2():
    b2 = boolean_lattice(2)
    m = fundamental_to_monomial(flag_qsym(b2))
    assert m.basis == "M"
    assert m == QuasiSymFunction("M", 2, {(): 1, (1,): 2})
    assert m == h_gamma((1, 1), 2)


def test_h_gamma_hand_values():
    # h over a single row: one matrix per column composition
    h2 = h_gamma((2,), 2)
    assert h2 == QuasiSymFunction("M", 2, {(): 1, (1,): 1})
    h11 = h_gamma((1, 1), 2)
    assert h11 == QuasiSymFunction("M", 2, {(): 1, (1,): 2})
    h21 = h_gamma((2, 1), 3)
    # columns (3): impossible split 2+1 rowwise in one column -> matrices
    # with column sums (3) need a 2 and a 1 stacked: exactly 1
    assert h21.coeff(()) == 1
    assert h21.coeff((1,)) == 2  # columns (1,2) and (2,1) each give counts
    assert h21.coeff((2,)) == 2
    assert h21.coeff((1, 2)) == 3


def test_products_of_chains_match_h_gamma():
    for sizes in [(2,), (3,), (2, 2), (3, 2), (2, 2, 2), (4, 3)]:
        p = chain_product_poset(sizes)
        gamma = p.chain_product_factorization()
        f = fundamental_to_monomial(flag_qsym(p))
        assert f == h_gamma(gamma, p.rank_of_top()), sizes


def test_flag_symmetry_verdicts():
    assert is_flag_symmetric(boolean_lattice(3))
    assert is_flag_symmetric(chain_product_poset((3, 2)))
    v_ideals = poset_from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert not is_flag_symmetric(v_ideals)


def test_inner_product_pairs_matching_terms():
    b2 = boolean_lattice(2)
    q = flag_qsym(b2)  # F_() + F_(1)
    assert inner_product_fundamental(q, q) == 2
    c3 = flag_qsym(chain_poset(3))
    assert inner_product_fundamental(q, c3) == 1


def test_quasisym_equality_and_basis_guards():
    a = QuasiSymFunction("F", 2, {(): 1})
    b = QuasiSymFunction("F", 2, {(): 1, (1,): 0})
    assert a == b  # zero terms drop out
    c = QuasiSymFunction("M", 2, {(): 1})
    assert a != c
    with pytest.raises(BasisMismatchError):
        fundamental_to_monomial(c)
    with pytest.raises(BasisMismatchError):
        inner_product_fundamental(a, c)
    with pytest.raises(BasisMismatchError):
        QuasiSymFunction("G", 2, {})


def flag_beta_by_subsets(p) -> dict:
    """Reference: the inclusion-exclusion sum over each subset's subsets."""
    alpha = flag_f_vector(p)
    out = {}
    for subset in alpha:
        total = 0
        for size in range(len(subset) + 1):
            for smaller in combinations(subset, size):
                total += (-1) ** (len(subset) - size) * alpha[smaller]
        out[subset] = total
    return out


def monomial_by_subsets(q: QuasiSymFunction) -> QuasiSymFunction:
    """Reference: each M coefficient sums the F coefficients of its subsets."""
    out = {}
    n = q.degree
    for size in range(max(n, 1)):
        for target in combinations(range(1, n), size):
            out[target] = sum(q.coeff(sub) for k in range(size + 1)
                              for sub in combinations(target, k))
    return QuasiSymFunction("M", n, out)


def test_subset_transforms_match_subset_loops():
    posets = [boolean_lattice(k) for k in range(5)]
    posets += [chain_poset(m) for m in range(1, 5)]
    posets += [chain_product_poset((3, 2)),
               poset_from_cover_relations(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])]
    for kind, n_min in (("path_A", 1), ("cycle", 3)):
        for n in range(n_min, 7):
            g = family_graph(kind, n)
            posets += [CrossSectionLattice(g, j0).to_poset() for j0 in range(g.full_mask)]
    for p in posets:
        beta = flag_beta(p)
        reference = flag_beta_by_subsets(p)
        assert list(beta.items()) == list(reference.items())
        q = flag_qsym(p)
        assert fundamental_to_monomial(q) == monomial_by_subsets(q)


def assert_flag_routes_agree(p):
    alpha = flag_f_vector(p)
    assert list(alpha.items()) == list(flag_f_vector_by_rank_sets(p).items())
    assert all(type(v) is int for v in alpha.values())
    n = len(alpha).bit_length()
    for sign in (1, -1):
        assert list(_subset_sums(alpha, n, sign).items()) == \
            list(subset_sums_by_loop(alpha, n, sign).items())


def test_flag_counts_match_the_per_rank_set_route_on_families():
    for kind, n_min in (("path_A", 1), ("cycle", 3)):
        for n in range(n_min, 9):
            g = family_graph(kind, n)
            for j0 in range(g.full_mask + 1):
                assert_flag_routes_agree(CrossSectionLattice(g, j0).to_poset())


@st.composite
def shuffled_graded_posets(draw):
    """A bottom, antichain levels joined by random covers, and a top, with
    the indices shuffled so that they are not in rank order."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=5))
    levels = [[0]]
    for size in sizes + [1]:
        start = levels[-1][-1] + 1
        levels.append(list(range(start, start + size)))
    covers = set()
    for low, high in zip(levels, levels[1:]):
        # every element covers one below it and is covered by one above it
        for v in high:
            covers.add((draw(st.sampled_from(low)), v))
        for u in low:
            covers.add((u, draw(st.sampled_from(high))))
        covers |= {(u, v) for u in low for v in high if draw(st.booleans())}
    size = levels[-1][-1] + 1
    perm = draw(st.permutations(range(size)))
    return poset_from_cover_relations(size, [(perm[u], perm[v]) for u, v in covers])


@given(shuffled_graded_posets())
@settings(max_examples=60, deadline=None)
def test_flag_counts_match_the_per_rank_set_route_on_shuffled_posets(p):
    assert_flag_routes_agree(p)


def test_flag_counts_on_both_sides_of_the_float64_bound():
    # M = width^15 maximal chains: products run in float64 below 2^53 and
    # in int64 from there, and the counts are exact either way
    assert 11 ** 15 < 2 ** 53 <= 12 ** 15 < 16 ** 15 < 2 ** 63
    for width in (11, 12, 16):
        p = antichain_tower(width)
        assert p.rank_of_top() == MAX_DEGREE
        assert_flag_routes_agree(p)
        assert flag_f_vector(p)[tuple(range(1, 16))] == width ** 15


def test_subset_sums_past_int64():
    degree = 7
    subsets = [s for k in range(degree) for s in combinations(range(1, degree), k)]
    values = {s: (-1) ** len(s) * 2 ** (62 + len(s)) for s in subsets}
    for sign in (1, -1):
        sums = _subset_sums(values, degree, sign)
        assert list(sums.items()) == list(subset_sums_by_loop(values, degree, sign).items())
    # the alternating sum over the subsets of T is (-1)^|T| 2^62 3^|T|
    assert sums[tuple(range(1, degree))] == 2 ** 62 * 3 ** 6 > 2 ** 63


def test_quasisym_keys_are_checked_and_canonicalised():
    for key, message in (((0,), "escapes 1..3"), ((4,), "escapes 1..3"),
                         ((2, 2), "not strictly increasing"), ((3, 1), "not strictly increasing")):
        with pytest.raises(CompositionError, match=message):
            QuasiSymFunction("F", 4, {key: 1})
    q = QuasiSymFunction("F", 4, {(np.int64(1), np.uint8(3)): 2, (np.int32(2),): 0})
    assert q.terms() == [((1, 3), 2)]
    assert all(type(v) is int for key, _ in q.terms() for v in key)
    assert q == QuasiSymFunction("F", 4, {(1, 3): 2})
    # past MAX_DEGREE there is no table, and every key is checked
    assert QuasiSymFunction("F", 20, {(np.int64(1), 19): 1}).terms() == [((1, 19), 1)]
    with pytest.raises(CompositionError, match="escapes 1..19"):
        QuasiSymFunction("F", 20, {(20,): 1})
