"""Chain-counting invariants of graded posets and their generating functions.

For a bounded graded poset of rank n, alpha(I) counts chains in the
proper part whose rank set is exactly I, for I a subset of 1..n-1.
beta is the inclusion-exclusion transform of alpha.  Both live in a
quasi-symmetric generating function, stored with exact integer
coefficients keyed by subsets (equivalently compositions of n).

Flag counts are exact.  Each count, and each partial sum of nonnegative
terms taken while computing one, counts chains with a fixed rank set,
and distinct such chains extend to distinct maximal chains of the
(graded) proper part.  So every number met is at most the count M of
maximal chains.  M itself is computed in int64 and checked exactly; when
it reaches 2^63 the counts are refused with SizeLimitError.  Below 2^53
every integer up to M is a float64, so the products run in float64
(BLAS) and every sum is exact; from 2^53 to 2^63 they run in int64.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import (
    BasisMismatchError,
    CompositionError,
    PreconditionError,
    SizeLimitError,
)
from .poset_engine import FinitePoset

# 2^(degree-1) subsets are enumerated; keep the blowup bounded.
MAX_DEGREE = 16

Subset = tuple[int, ...]
Composition = tuple[int, ...]


def _check_subset(s, degree: int) -> Subset:
    out = tuple(int(v) for v in s)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise CompositionError(f"subset {out} is not strictly increasing")
    if out and (out[0] < 1 or out[-1] > degree - 1):
        raise CompositionError(f"subset {out} escapes 1..{degree - 1}")
    return out


def check_composition(gamma, degree: int) -> Composition:
    out = tuple(int(v) for v in gamma)
    if any(p < 1 for p in out):
        raise CompositionError(f"composition {out} has nonpositive parts")
    if sum(out) != degree:
        raise CompositionError(f"composition {out} does not sum to {degree}")
    return out


def subset_to_composition(s: Subset, degree: int) -> Composition:
    """Gaps determined by a subset of 1..degree-1, e.g. {2,3} of 5 -> (2,1,2)."""
    s = _check_subset(s, degree)
    if degree == 0:
        return ()
    bounds = (0,) + s + (degree,)
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def partition_of_composition(gamma: Composition) -> tuple[int, ...]:
    return tuple(sorted(gamma, reverse=True))


class QuasiSymFunction:
    """Exact-coefficient function in the fundamental (F) or monomial (M) basis.

    Coefficients are keyed by subsets of 1..degree-1; zero coefficients
    are dropped.  Equality compares basis, degree, and the coefficient
    maps.
    """

    def __init__(self, basis: str, degree: int, coeffs: Mapping[Subset, int]):
        if basis not in ("F", "M"):
            raise BasisMismatchError(f"unknown basis {basis!r}")
        if degree < 0:
            raise CompositionError("degree must be nonnegative")
        self.basis = basis
        self.degree = int(degree)
        # a key equal to a subset of the table is that subset; only a miss
        # is checked, and refused or converted, by _check_subset
        table = _subset_table(self.degree)
        clean: dict[Subset, int] = {}
        for key, val in coeffs.items():
            subset = table.get(key)
            if subset is None:
                subset = _check_subset(key, degree)
            val = int(val)
            if val:
                clean[subset] = val
        self._coeffs = clean

    def coeff(self, subset: Subset) -> int:
        return self._coeffs.get(_check_subset(subset, self.degree), 0)

    def terms(self) -> list[tuple[Subset, int]]:
        return sorted(self._coeffs.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiSymFunction):
            return NotImplemented
        return (self.basis == other.basis and self.degree == other.degree
                and self._coeffs == other._coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.terms())
        return f"QuasiSymFunction({self.basis!r}, {self.degree}, {{{inner}}})"


@cache
def _rank_sets(degree: int) -> tuple[Subset, ...]:
    """The subsets of 1..degree-1 by size, then lexicographically: the key
    order of every coefficient map built here."""
    return tuple(s for size in range(max(degree, 1))
                 for s in combinations(range(1, degree), size))


@cache
def _rank_set_masks(degree: int) -> np.ndarray:
    """Each rank set of _rank_sets(degree) as a bitmask, rank i at bit i-1."""
    masks = np.array([sum(1 << (i - 1) for i in s) for s in _rank_sets(degree)],
                     dtype=np.int64)
    masks.setflags(write=False)  # shared by every caller
    return masks


@cache
def _subset_table(degree: int) -> dict[Subset, Subset]:
    """Each subset of 1..degree-1 keyed by itself, up to MAX_DEGREE."""
    return {s: s for s in _rank_sets(degree)} if degree <= MAX_DEGREE else {}


@cache
def _partition_types(degree: int) -> tuple[tuple[int, ...], ...]:
    """The partition type of each rank set of _rank_sets(degree)."""
    return tuple(partition_of_composition(subset_to_composition(s, degree))
                 for s in _rank_sets(degree))


def _degree(p: FinitePoset) -> int:
    """The rank of p, which must be bounded and graded, up to MAX_DEGREE."""
    if p.bottom is None or p.top is None:
        raise PreconditionError("flag counting needs bottom and top")
    n = p.rank()[p.top]
    if n > MAX_DEGREE:
        raise SizeLimitError(f"flag counting capped at rank {MAX_DEGREE}")
    return n


def flag_f_vector(p: FinitePoset) -> dict[Subset, int]:
    """Chain counts of the proper part by exact rank set.

    One vector-matrix product per pair of ranks b < a: the chains whose
    rank set ends at a extend those ending at each lower rank b, so their
    counts stack the products of the latter with the order between ranks
    b and a.
    """
    n = _degree(p)
    # the order with its indices sorted by rank (leq itself on a cross
    # section lattice), and the end of each rank's run of indices
    _, leq, ends = p._levels
    starts = [0, *ends]

    def block(b: int, a: int) -> np.ndarray:
        return leq[starts[b]:ends[b], starts[a]:ends[a]]

    # maximal[v] counts the chains from the bottom to v: a sum of distinct
    # entries one rank down, so exact while their sum, taken in Python ints,
    # is below 2^63.  The last such sum counts the maximal chains.
    maximal = np.ones(1, dtype=np.int64)
    total = 1
    for a in range(1, n):
        maximal = maximal @ block(a - 1, a).astype(np.int64)
        total = sum(maximal.tolist())
        if total >= 2 ** 63:
            raise SizeLimitError("flag counts would overflow int64")
    # every entry and partial sum below is at most total (module docstring)
    dtype = np.float64 if total < 2 ** 53 else np.int64
    # chains[b] has one row per rank set S with last rank b (S = () at the
    # bottom, b = 0), whose entry at v counts the chains with rank set S
    # ending at the v-th element of rank b; masks[b] has S as a bitmask,
    # rank i at bit i-1, and alpha the counts by bitmask
    alpha = np.zeros(1 << max(n - 1, 0), dtype=np.int64)
    alpha[0] = 1
    chains = {0: np.ones((1, 1), dtype=dtype)}
    masks = {0: np.zeros(1, dtype=np.int64)}
    for a in range(1, n - 1):
        chains[a] = np.vstack([chains[b] @ block(b, a).astype(dtype) for b in range(a)])
        masks[a] = np.concatenate([masks[b] for b in range(a)]) | (1 << (a - 1))
        alpha[masks[a]] = chains[a].sum(axis=1)
    # no rank set extends past the last proper rank n-1, so those chains
    # are only counted: each chain ending at u extends to as many as there
    # are elements of rank n-1 above u
    for b in range(n - 1):
        alpha[masks[b] | (1 << (n - 2))] = chains[b] @ block(b, n - 1).sum(axis=1, dtype=dtype)
    return dict(zip(_rank_sets(n), alpha[_rank_set_masks(n)].tolist()))


def _subset_sums(values: Mapping[Subset, int], degree: int, sign: int) -> dict[Subset, int]:
    """Sum of sign^|T - U| * values[U] over the subsets U of T, for every T.

    T runs over _rank_sets(degree), and values are exact Python ints.  With
    subsets as bitmasks (i -> bit i-1) indexing an object array of those
    ints, one vectorised pass per bit adds into each mask holding the bit
    the entry of the mask without it: (degree-1) 2^(degree-2) additions in
    place of 3^(degree-1) terms, and no bound on the sums.
    """
    keys = _rank_sets(degree)
    masks = _rank_set_masks(degree)
    sums = np.zeros(len(keys), dtype=object)
    sums[masks] = [values.get(key, 0) for key in keys]
    for b in range(degree - 1):
        # axis 1 is bit b: index 0 without it, 1 with it
        halves = sums.reshape(-1, 2, 1 << b)
        halves[:, 1] += sign * halves[:, 0]
    return dict(zip(keys, sums[masks].tolist()))


def flag_beta(p: FinitePoset) -> dict[Subset, int]:
    """Inclusion-exclusion transform of the flag f-vector."""
    alpha = flag_f_vector(p)
    # alpha has a key for each of the 2^(n-1) subsets of 1..n-1
    return _subset_sums(alpha, len(alpha).bit_length(), -1)


def flag_qsym(p: FinitePoset) -> QuasiSymFunction:
    """Generating function with beta coefficients in the fundamental basis."""
    return QuasiSymFunction("F", _degree(p), flag_beta(p))


def fundamental_to_monomial(q: QuasiSymFunction) -> QuasiSymFunction:
    """Basis change; the M coefficient at T sums the F coefficients over subsets of T."""
    if q.basis != "F":
        raise BasisMismatchError("expected a fundamental-basis function")
    if q.degree > MAX_DEGREE:
        raise SizeLimitError(f"basis change capped at degree {MAX_DEGREE}")
    return QuasiSymFunction("M", q.degree, _subset_sums(q._coeffs, q.degree, 1))


def is_flag_symmetric(p: FinitePoset) -> bool:
    """Whether the monomial coefficients depend only on the partition type."""
    mono = fundamental_to_monomial(flag_qsym(p))
    n = mono.degree
    by_partition: dict[tuple[int, ...], int] = {}
    for subset, part in zip(_rank_sets(n), _partition_types(n)):
        val = mono._coeffs.get(subset, 0)
        if by_partition.setdefault(part, val) != val:
            return False
    return True


@cache
def _matrix_count(rows: Composition, cols: Composition) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    first, rest = rows[0], rows[1:]

    def spread(pos: int, left: int, current: tuple[int, ...]) -> int:
        if pos == len(cols):
            return _matrix_count(rest, current) if left == 0 else 0
        total = 0
        limit = min(left, cols[pos])
        for take in range(limit + 1):
            reduced = current[:pos] + (cols[pos] - take,) + current[pos + 1:]
            total += spread(pos + 1, left - take, reduced)
        return total

    return spread(0, first, cols)


def h_gamma(gamma: Composition, degree: int) -> QuasiSymFunction:
    """Product of complete homogeneous pieces, expanded in the monomial basis.

    The coefficient at a subset T counts nonnegative integer matrices
    whose row sums are gamma and whose column sums are the composition
    of T.
    """
    gamma = check_composition(gamma, degree)
    if degree > MAX_DEGREE:
        raise SizeLimitError(f"h expansion capped at degree {MAX_DEGREE}")
    out = {subset: _matrix_count(gamma, subset_to_composition(subset, degree))
           for subset in _rank_sets(degree)}
    return QuasiSymFunction("M", degree, out)


def inner_product_fundamental(f: QuasiSymFunction, g: QuasiSymFunction) -> int:
    """Coefficientwise pairing of two fundamental-basis functions."""
    if f.basis != "F" or g.basis != "F":
        raise BasisMismatchError("pairing is defined on the fundamental basis")
    if f.degree != g.degree:
        raise BasisMismatchError("pairing needs equal degrees")
    return sum(v * g.coeff(k) for k, v in f.terms())
