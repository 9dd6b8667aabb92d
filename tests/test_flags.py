"""Flag vectors and quasisymmetric functions on graded bounded posets."""

from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings, strategies as st

from reference_routes import maximal_chains, poset_from_cover_relations

from crosslat.crosslattice import CrossSectionLattice
from crosslat.errors import BasisMismatchError, CompositionError
from crosslat.flags import (
    QuasiSymFunction,
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
