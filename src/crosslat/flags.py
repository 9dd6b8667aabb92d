"""Chain-counting invariants of graded posets and their generating functions.

For a bounded graded poset of rank n, alpha(I) counts chains in the
proper part whose rank set is exactly I, for I a subset of 1..n-1.
beta is the inclusion-exclusion transform of alpha.  Both live in a
quasi-symmetric generating function, stored with exact integer
coefficients keyed by subsets (equivalently compositions of n).  Flag
counts are exact in int64, or refused with SizeLimitError when they could
leave it.
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
        clean: dict[Subset, int] = {}
        for key, val in coeffs.items():
            key = _check_subset(key, degree)
            val = int(val)
            if val:
                clean[key] = val
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


def _proper_layers(p: FinitePoset) -> tuple[int, list[list[int]]]:
    if p.bottom is None or p.top is None:
        raise PreconditionError("flag counting needs bottom and top")
    ranks = p.rank()
    n = ranks[p.top]
    if n > MAX_DEGREE:
        raise SizeLimitError(f"flag counting capped at rank {MAX_DEGREE}")
    layers: list[list[int]] = [[] for _ in range(n + 1)]
    for v, r in enumerate(ranks):
        layers[r].append(v)
    return n, layers


def flag_f_vector(p: FinitePoset) -> dict[Subset, int]:
    """Chain counts of the proper part by exact rank set."""
    n, layers = _proper_layers(p)
    leq = p.leq
    steps = {(a, b): leq[np.ix_(layers[a], layers[b])].astype(np.int64)
             for a, b in combinations(range(n), 2)}
    # Every chain with rank set S extends to a maximal chain of the proper
    # part (the poset is graded), so alpha(S) <= alpha(1..n-1), and so is
    # each entry of ends[S] below.  int64 is exact on counts below 2^63.
    # maximal[v] counts the chains from the bottom to v: a sum of distinct
    # entries one rank down, so exact while their sum, taken in Python ints,
    # is below 2^63.  The last such sum counts the maximal chains.
    maximal = np.ones(1, dtype=np.int64)
    for a in range(n - 1):
        maximal = maximal @ steps[(a, a + 1)]
        if sum(maximal.tolist()) >= 2 ** 63:
            raise SizeLimitError("flag counts would overflow int64")
    # ends[s][v]: chains with rank set s ending at the v-th element of rank
    # s[-1] (at the bottom for s = ()); each extends the vector of s[:-1] by
    # one step.  s + (n-1,) is the last extension of s and has none of its
    # own, so both are dropped there.
    ends = {(): np.ones(1, dtype=np.int64)}
    out: dict[Subset, int] = {}
    for s in _rank_sets(n):
        vec = ends[s[:-1]] @ steps[((0,) + s)[-2:]] if s else ends[s]
        out[s] = int(vec.sum())
        if s and s[-1] == n - 1:
            del ends[s[:-1]]
        else:
            ends[s] = vec
    return out


def _subset_sums(values: Mapping[Subset, int], degree: int, sign: int) -> dict[Subset, int]:
    """Sum of sign^|T - U| * values[U] over the subsets U of T, for every T.

    T runs over _rank_sets(degree).  With subsets as bitmasks (i -> bit
    i-1), one pass per bit adds into each mask holding the bit the entry
    of the mask without it: (degree-1) 2^(degree-2) additions in place of
    3^(degree-1) terms.
    """
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


def flag_beta(p: FinitePoset) -> dict[Subset, int]:
    """Inclusion-exclusion transform of the flag f-vector."""
    alpha = flag_f_vector(p)
    # alpha has a key for each of the 2^(n-1) subsets of 1..n-1
    return _subset_sums(alpha, len(alpha).bit_length(), -1)


def flag_qsym(p: FinitePoset) -> QuasiSymFunction:
    """Generating function with beta coefficients in the fundamental basis."""
    n, _ = _proper_layers(p)
    return QuasiSymFunction("F", n, flag_beta(p))


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
    for subset in _rank_sets(n):
        part = partition_of_composition(subset_to_composition(subset, n))
        val = mono.coeff(subset)
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
