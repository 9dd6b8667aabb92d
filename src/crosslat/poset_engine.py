"""Finite posets with exact order-theoretic invariants.

The order is stored as a dense boolean matrix leq[i, j] meaning element
i is less-or-equal to element j.  An element is its row index; callers
keep any names for the elements themselves, in index order.  Every
numeric invariant is computed exactly with integers: Mobius values (and
so characteristic polynomial coefficients) are exact in int64, or
refused with SizeLimitError when a row of them could leave it.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EmptyIntervalError,
    GradednessError,
    InvalidSizeError,
    MembershipError,
    PreconditionError,
    SizeLimitError,
)

# A partition is a weakly decreasing tuple of positive chain lengths.
PartitionType = tuple[int, ...]

ISO_SIZE_CAP = 5000

# bytes of temporaries per block of rows (or columns) of a blocked dense step
_BOUNDS_BLOCK_BYTES = 1 << 18


def _row_blocks(n: int, pair_bytes: int) -> list[slice]:
    """Slices of 0..n-1 whose temporaries of pair_bytes per pair fit the budget."""
    step = max(1, _BOUNDS_BLOCK_BYTES // (pair_bytes * n))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _heights(leq: np.ndarray) -> np.ndarray:
    """Each element's height: the length of the longest chain up to it.

    Elements with equally many elements below them are incomparable, and
    everything below an element has fewer, so sorting by that count (as
    linext does) gives antichains, each after every element below it.
    Within an antichain, the longest chain ending at an element is one
    longer than the longest ending below it.  The antichains are cut into
    column blocks of leq that fit _BOUNDS_BLOCK_BYTES.
    """
    n = len(leq)
    down = leq.sum(axis=0)
    order = np.argsort(down, kind="stable")
    # elements of a longest chain ending at each element, 0 until filled,
    # so an element's own entry of leq adds nothing
    chain = np.zeros(n, dtype=np.min_scalar_type(n))
    step = max(1, _BOUNDS_BLOCK_BYTES // (chain.itemsize * n))
    sizes = down[order]
    cuts = np.flatnonzero((sizes[1:] != sizes[:-1]) | (np.arange(1, n) % step == 0)) + 1
    for block in np.split(order, cuts):
        chain[block] = (leq[:, block] * chain[:, None]).max(axis=0) + 1
    return chain.astype(np.int32) - 1


def _covers_of_grading(leq: np.ndarray, r: np.ndarray) -> Optional[np.ndarray]:
    """The cover matrix of the order leq when r grades it, else None.

    r grades the order when every cover raises it by one (Stanley, EC1
    Sec. 3.1).  Call y a candidate of x when y > x and r(y) = r(x) + 1.
    The candidates are exactly the covers when every y > x lies above some
    candidate of x:
      - a cover x < y then lies above a candidate c of x, and x < c <= y
        forces c = y, so every cover raises r by one;
      - so x < y implies r(x) < r(y), by a chain of covers from x to y,
        and no element lies strictly between a candidate pair, whose ranks
        differ by one: each candidate is a cover.
    Conversely, when r grades the order, every y > x lies above the first
    step of a chain of covers from x to y.  So the result is None exactly
    when r is no grading, and a separate check that x < y implies
    r(x) < r(y) would add nothing.  The candidates' up-sets lie inside the
    strict up-set of x, so the condition holds when their union, an OR of
    leq rows packed into 64-bit words by one reduceat per block of rows, is
    as large.  A block's candidates lie in the columns whose rank is one
    more than some row's, so only those columns are compared.
    """
    n = len(leq)
    packed = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
    packed[:, :(n + 7) // 8] = np.packbits(leq, axis=1)
    packed = packed.view(np.uint64)
    above = np.bitwise_count(packed).sum(axis=1, dtype=np.int64) - 1
    out = np.zeros((n, n), dtype=bool)
    # about 4 bytes of compares per pair of a block of rows
    for rows in _row_blocks(n, 4):
        rank = r[rows]
        cols = np.flatnonzero((r > rank.min()) & (r <= rank.max() + 1))
        src, dst = np.nonzero(leq[rows][:, cols] & (r[cols] == rank[:, None] + 1))
        dst = cols[dst]
        out[src + rows.start, dst] = True
        reached = np.zeros(len(rank), dtype=np.int64)
        if len(src):
            starts = np.flatnonzero(np.diff(src, prepend=-1))
            union = np.bitwise_or.reduceat(packed[dst], starts)
            reached[src[starts]] = np.bitwise_count(union).sum(axis=1)
        if (reached != above[rows]).any():
            return None
    return out


def _bool_square(a: np.ndarray) -> np.ndarray:
    """Boolean matrix square a @ a, computed through float32 for speed."""
    # exact: each entry counts at most n < 2**24 products of 0 and 1
    fa = a.astype(np.float32)
    return fa @ fa > 0.5


def _first_key_bits(n: int) -> int:
    """Bits of a key that _KeyIndex looks up in its direct table.

    The table has 2**bits int32 entries, at most n*n bytes, but always
    takes at least one byte of the key.
    """
    return max(8, (n * n).bit_length() - 3)


class _KeyIndex:
    """Exact lookup of the AND of two keys among n keys.

    keys[i] is the key of row i, a boolean vector.  Keys are read a chunk at
    a time.  The first _first_key_bits(n) bits go through a direct table to
    a prefix id.  Each later byte goes through a table indexed by the
    prefix id so far and the byte, to the id of the longer prefix; its last
    row is all -1, so a missing prefix (id -1) stays missing.  The last
    table gives rows in place of ids.  Rows with the same key share an id,
    and the index keeps one of them.
    """

    def __init__(self, keys: np.ndarray):
        n, k = keys.shape
        width = min(k, _first_key_bits(n))
        self.head = keys[:, :width] @ (1 << np.arange(width, dtype=np.intp))
        ids, prefix = np.unique(self.head, return_inverse=True)
        first = np.full(1 << width, -1, dtype=np.int32)
        first[ids] = np.arange(len(ids), dtype=np.int32)
        self.tables = [first]
        self.tail = np.packbits(keys[:, width:].T, axis=0, bitorder="little")
        for byte in self.tail:
            count = len(ids)
            ids, prefix = np.unique(prefix * 256 + byte, return_inverse=True)
            step = np.full((count + 1, 256), -1, dtype=np.int32)
            step.flat[ids] = np.arange(len(ids), dtype=np.int32)
            self.tables.append(step)
        row = np.full(len(ids) + 1, -1, dtype=np.int32)
        row[prefix] = np.arange(n, dtype=np.int32)
        self.tables[-1] = row[self.tables[-1]]

    def find_common(self, rows: slice) -> np.ndarray:
        """Row with key keys[i] & keys[j], or -1, for i in rows and every j."""
        first, *steps = self.tables
        found = first[self.head[rows, None] & self.head]
        for step, byte in zip(steps, self.tail):
            found = step[found, byte[rows, None] & byte]
        return found


def _least_bounds(bounds: np.ndarray, single: np.ndarray,
                  check: bool) -> Optional[np.ndarray]:
    """Table of each pair's least common bound, found by key, or None.

    bounds[i, k] is true when k bounds i (leq for joins, its transpose for
    meets), and single selects the set M of elements with exactly one
    upper cover (one lower cover for meets).  The key of z is U(z), the
    set of elements of M that bound z, and each pair (x, y) takes the
    element c with key U(x) & U(y) from a _KeyIndex.  In a lattice every
    element is the meet of the elements of M above it (dually for meets),
    so U is injective and U(x v y) = U(x) & U(y): c is the join, and
    x v y = y exactly when x <= y.

    With check, the table is None unless every pair finds its c and
    c = y exactly when x <= y.  That makes each c the join:
      - x = y gives c = x, so the index keeps x for U(x): U is injective,
        and c = y exactly when U(y) lies inside U(x).  So U(y) inside U(x)
        means x <= y.
      - U(c) lies inside U(x) and U(y), so c bounds x and y.  Any common
        bound z of x and y has U(z) inside U(x) & U(y) = U(c), so c <= z.
    With a bottom, the poset is then a lattice.
    """
    n = len(bounds)
    index = _KeyIndex(bounds[:, single])
    table = np.empty((n, n), dtype=np.int32)
    cols = np.arange(n, dtype=np.int32)
    # about 16 bytes of keys, ids and flags per pair of a block of rows
    for rows in _row_blocks(n, 16):
        least = index.find_common(rows)
        if check and not (least.min() >= 0 and ((least == cols) == bounds[rows]).all()):
            return None
        table[rows] = least
    return table


def _table_entries(table: np.ndarray, i, j):
    """table[i, j]: an int for integer i and j, else an array."""
    out = table[i, j]
    return out if isinstance(out, np.ndarray) else int(out)


@dataclass(frozen=True)
class CharPolynomial:
    """Integer polynomial in one variable, coeffs[k] is the x^k coefficient."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0,)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "CharPolynomial") -> "CharPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return CharPolynomial(tuple(out))

    @classmethod
    def one(cls) -> "CharPolynomial":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "CharPolynomial":
        """Product of the linear factors (x - r) over the given roots."""
        poly = cls.one()
        for r in roots:
            poly = poly * cls((-int(r), 1))
        return poly

    @classmethod
    def x_power_times_x_minus_one_power(cls, a: int, b: int) -> "CharPolynomial":
        """x^a (x-1)^b: the x^(a+k) coefficient is C(b, k) (-1)^(b-k)."""
        return cls((0,) * a + tuple(comb(b, k) * (-1) ** (b - k) for k in range(b + 1)))

    def __str__(self) -> str:
        if self.coeffs == (0,):
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if abs(c) == 1 else f"{abs(c)}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


class FinitePoset:
    """A finite poset over indices 0..size-1 given by a boolean leq matrix.

    It holds its order and the facts it has checked, and no element names.
    FinitePoset(leq) copies leq and checks that it is a partial order, so
    rank() of such a poset is always the grading that covers checked.  The
    canonical posets, cross section lattices and intervals are built by
    _adopt, and only a cross section lattice hands ranks in.
    """

    def __init__(self, leq):
        # a copy: the caller may still write to its array
        mat = np.array(leq, dtype=bool)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidSizeError("leq must be a square matrix")
        if mat.shape[0] == 0:
            raise InvalidSizeError("empty poset not supported")
        # one construction path: take over the state _adopt gives the copy
        vars(self).update(vars(FinitePoset._adopt(mat)))
        self._validate()

    @classmethod
    def _adopt(cls, leq: np.ndarray, ranks: Optional[Sequence[int]] = None) -> "FinitePoset":
        """A poset over leq itself, unchecked and uncopied.

        leq must be a freshly built nonempty square bool array that no one
        else writes to and that is a partial order; it is marked read-only
        here.  Ranks, when given, must grade leq: rank(), the Mobius levels
        and the flag counts read them as given.  Only cross section lattices
        pass them.  covers still checks them as a grading, which keeps the
        oracle independent of what the graph side knows, and falls back to
        the cover product when they fail; intervals read only the grading
        that passed.
        """
        poset = cls.__new__(cls)
        poset.size = int(leq.shape[0])
        leq.setflags(write=False)
        poset.leq = leq
        poset._injected_ranks = tuple(map(int, ranks)) if ranks is not None else None
        poset._mobius_cache: dict[int, np.ndarray] = {}
        # (source, idx): a lattice whose elements idx form this poset, so a
        # lattice too; covers restricts the source's covers and grading
        poset._restrict_from: Optional[tuple["FinitePoset", np.ndarray]] = None
        return poset

    # -- construction helpers -------------------------------------------

    def _validate(self) -> None:
        L = self.leq
        if not L.diagonal().all():
            raise PreconditionError("relation is not reflexive")
        if (L & L.T).sum() != self.size:
            raise PreconditionError("relation is not antisymmetric")
        if (_bool_square(L) & ~L).any():
            raise PreconditionError("relation is not transitive")

    def __len__(self) -> int:
        return self.size

    def _check_index(self, i) -> int:
        """i as an int, when it is a Python or numpy integer in 0..size-1.

        Anything else raises MembershipError, so a float is never truncated
        and a bool, whose type is not int, never read as an index.
        """
        if type(i) is not int and not isinstance(i, np.integer):
            raise MembershipError(f"index {i!r} is not an integer")
        if not (0 <= i < self.size):
            raise MembershipError(f"index {i} outside poset of size {self.size}")
        return int(i)

    def _check_indices(self, i):
        """_check_index(i), or an integer array i with every entry in range."""
        if not isinstance(i, np.ndarray):
            return self._check_index(i)
        if i.dtype.kind not in "iu":
            raise MembershipError(f"index array of dtype {i.dtype} is not an integer array")
        if i.size and not (i.min() >= 0 and i.max() < self.size):
            raise MembershipError(f"index array leaves the poset of size {self.size}")
        return i

    # -- basic structure -------------------------------------------------

    @cached_property
    def covers(self) -> np.ndarray:
        """Boolean matrix, covers[i, j] true when j covers i.

        The covers come from a candidate grading checked against leq by
        _covers_of_grading: the injected ranks, or else each element's
        height above the bottom.  An interval of a graded lattice takes
        its parent's covers, restricted: an interval is convex, so its
        covers are the parent's covers between its elements.  Only when
        no candidate passes, on an ungraded poset or one without a bottom
        or with wrong injected ranks, does a boolean matrix product find
        the pairs x < y with nothing between them.  The grading that
        passed, or None, is kept for _grading.
        """
        self._checked_grading, out = self._graded_covers()
        if out is None:
            strict = self.leq & ~np.eye(self.size, dtype=bool)
            out = strict & ~_bool_square(strict)
        out.setflags(write=False)
        return out

    def _graded_covers(self) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """A checked grading and the covers it gives, or (None, None)."""
        if self._restrict_from is not None:
            source, idx = self._restrict_from
            r = source._grading()
            if r is not None:
                r = r[idx]
                return r - r.min(), source.covers[idx[:, None], idx]
        if self._injected_ranks is not None:
            r = np.asarray(self._injected_ranks, dtype=np.int32)
        elif self.bottom is not None:
            r = _heights(self.leq)
        else:
            return None, None
        out = _covers_of_grading(self.leq, r)
        return (None, None) if out is None else (r, out)

    def _grading(self) -> Optional[np.ndarray]:
        """The rank function that covers was checked against, or None."""
        self.covers
        return self._checked_grading

    @cached_property
    def _cover_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """Upper and lower covers of every element, as index lists."""
        cov = self.covers
        up = [np.flatnonzero(row).tolist() for row in cov]
        down = [np.flatnonzero(col).tolist() for col in cov.T]
        return up, down

    @cached_property
    def linext(self) -> tuple[int, ...]:
        """A linear extension: indices ordered by downset size, then index."""
        down = self.leq.sum(axis=0)
        return tuple(int(i) for i in np.lexsort((np.arange(self.size), down)))

    @cached_property
    def bottom(self) -> Optional[int]:
        idx = np.where(self.leq.all(axis=1))[0]
        return int(idx[0]) if len(idx) == 1 else None

    @cached_property
    def top(self) -> Optional[int]:
        idx = np.where(self.leq.all(axis=0))[0]
        return int(idx[0]) if len(idx) == 1 else None

    @cached_property
    def _rank_vector(self) -> tuple[int, ...]:
        if self._injected_ranks is not None:
            return self._injected_ranks
        if self.bottom is None:
            raise GradednessError("poset has no unique minimum")
        grading = self._grading()
        if grading is None:
            raise GradednessError("cover relation is not rank-consistent")
        return tuple(grading.tolist())

    def rank(self) -> tuple[int, ...]:
        """Rank of every element; raises GradednessError when not graded."""
        return self._rank_vector

    def rank_of_top(self) -> int:
        if self.top is None:
            raise PreconditionError("poset has no unique maximum")
        return self.rank()[self.top]

    # -- lattice tables ---------------------------------------------------

    @cached_property
    def _tables(self) -> Optional[np.ndarray]:
        """The join table, or None when the poset is not a lattice.

        A finite join-semilattice with a bottom is a lattice, so the poset
        is one exactly when it has a bottom and every pair has a join.  Each
        pair's join is looked up by the set of elements with exactly one
        upper cover above it and checked, as in _least_bounds.  The meet
        table is built only when read, by _meet.
        """
        if self.bottom is None:
            return None
        join = _least_bounds(self.leq, self.covers.sum(axis=1) == 1, check=True)
        if join is None:
            return None
        join.setflags(write=False)
        return join

    @cached_property
    def _meet(self) -> np.ndarray:
        """The meet table of a lattice, built the first time it is read.

        Dually to the join, each pair's meet is the element whose
        join-irreducibles below it are those below both, and in a lattice
        it needs no check.  Callers make sure the poset is a lattice.
        """
        meet = _least_bounds(self.leq.T, self.covers.sum(axis=0) == 1, check=False)
        meet.setflags(write=False)
        return meet

    def is_lattice(self) -> bool:
        return self._restrict_from is not None or self._tables is not None

    def _require_lattice(self) -> None:
        if not self.is_lattice():
            raise PreconditionError("operation needs a lattice")

    def _lattice_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The join and meet tables; raises PreconditionError on a non-lattice."""
        self._require_lattice()
        return self._tables, self._meet

    def join(self, i, j):
        """The join of i and j, elementwise.

        i and j are integers, and the join an int, or integer arrays that
        broadcast together, and the joins an array of their shape.
        """
        self._require_lattice()
        return _table_entries(self._tables, self._check_indices(i), self._check_indices(j))

    def meet(self, i, j):
        """The meet of i and j, elementwise on integers or arrays as join."""
        self._require_lattice()
        return _table_entries(self._meet, self._check_indices(i), self._check_indices(j))

    # -- Mobius function and characteristic polynomial --------------------

    @cached_property
    def _levels(self) -> tuple[Optional[np.ndarray], np.ndarray, list[int]]:
        """The order with its indices sorted into levels, for mobius_from
        and the flag counts.

        A graded poset's levels are its ranks, and any other poset's are
        its heights; either way each level is an antichain and everything
        below an element lies in an earlier level.  Returns the stable
        permutation that sorts the indices by level (None when they are
        sorted already, as on a cross section lattice and its intervals),
        leq in that order, and the end of each level.
        """
        try:
            level = np.asarray(self.rank())
        except GradednessError:
            level = _heights(self.leq)
        ends = np.bincount(level).cumsum().tolist()
        if (level[1:] >= level[:-1]).all():
            return None, self.leq, ends
        order = np.argsort(level, kind="stable")
        return order, self.leq[order[:, None], order], ends

    def mobius_from(self, x: int) -> np.ndarray:
        """Vector of Mobius values mu(x, v) for every v.

        Rota's recursion, one level of _levels at a time.
        """
        x = self._check_index(x)
        cached = self._mobius_cache.get(x)
        if cached is not None:
            return cached
        order, L, ends = self._levels
        px = x if order is None else int(np.flatnonzero(order == x)[0])
        mu = np.zeros(self.size, dtype=np.int64)
        mu[px] = 1
        # mu(x, b) = -sum of mu(x, u) over x <= u < b.  Every such u lies in
        # an earlier level and at or after x, so the rows px:lo of the
        # levels before b's hold them all, and the other rows there hold 0.
        # No u lies between x and a b not above x, so b gets 0 with no mask,
        # and x's own level stays 0 but for x.
        level = bisect_right(ends, px)
        lo = ends[level]
        for e in ends[level + 1:]:
            mu[lo:e] = -(mu[px:lo] @ L[px:lo, lo:e])
            lo = e
        if order is not None:
            mu[order] = mu.copy()
        # int64 arithmetic wraps silently, but a wrapped sum is still right
        # whenever the true value fits.  So the first entry to go wrong is
        # minus a sum of exact earlier entries whose true value is at least
        # 2^63 in absolute value, and the row's L1 norm is at least 2^63.  A
        # norm below 2^63, summed exactly in Python ints, proves every entry
        # exact, and bounds every sum of entries
        if sum(map(abs, mu.tolist())) >= 2 ** 63:
            raise SizeLimitError("Mobius values would overflow int64")
        mu.setflags(write=False)
        self._mobius_cache[x] = mu
        return mu

    def mobius(self, x: int, y: int) -> int:
        x = self._check_index(x)
        y = self._check_index(y)
        if not self.leq[x, y]:
            return 0
        return int(self.mobius_from(x)[y])

    def characteristic_polynomial(self) -> CharPolynomial:
        """Sum of mu(bottom, w) * x^(corank of w), needs a graded bounded poset."""
        if self.bottom is None or self.top is None:
            raise PreconditionError("characteristic polynomial needs bottom and top")
        ranks = self.rank()
        rtop = ranks[self.top]
        mu = self.mobius_from(self.bottom)
        # exact: each coefficient is bounded by the L1 norm of mu
        coeffs = np.zeros(rtop + 1, dtype=np.int64)
        np.add.at(coeffs, rtop - np.asarray(ranks), mu)
        return CharPolynomial(tuple(coeffs.tolist()))

    # -- special elements --------------------------------------------------

    def atoms(self) -> list[int]:
        if self.bottom is None:
            raise PreconditionError("atoms need a unique minimum")
        return [int(v) for v in np.where(self.covers[self.bottom, :])[0]]

    def join_irreducibles(self) -> list[int]:
        """Elements covering exactly one element."""
        return np.flatnonzero(self.covers.sum(axis=0) == 1).tolist()

    # -- modularity and semimodularity --------------------------------------

    def is_upper_semimodular(self) -> bool:
        """Whether x covering x^y implies x v y covers y, by _modular_by_rank."""
        return self._modular_by_rank is not None

    @cached_property
    def _modular_by_rank(self) -> Optional[np.ndarray]:
        """The modular elements of an upper semimodular lattice, else None.

        A finite lattice is upper semimodular exactly when it is graded and
        r(x) + r(y) - r(x ^ y) - r(x v y) >= 0 for every pair (Stanley, EC1
        Prop. 3.3.2).  r is the grading that covers was checked against, so
        injected ranks count only if every cover raises them by one.  The
        slack is computed in row blocks, and the rows where it is 0
        everywhere are the modular elements (modular_element_mask).
        """
        join, meet = self._lattice_tables()
        r = self._grading()
        if r is None:
            return None
        out = np.empty(self.size, dtype=bool)
        # about 24 bytes of gathered indices and ranks per pair
        for rows in _row_blocks(self.size, 24):
            slack = r[rows, None] + r - r[join[rows]] - r[meet[rows]]
            if slack.min() < 0:
                return None
            out[rows] = (slack == 0).all(axis=1)
        out.setflags(write=False)
        return out

    def modular_element_mask(self) -> np.ndarray:
        """Boolean vector of elements that are both left and right modular.

        m is left modular when (m, b) is a modular pair for every b, and
        right modular when (b, m) is.  On an upper semimodular lattice with
        rank r, (a, b) is a modular pair exactly when
        r(a) + r(b) = r(a ^ b) + r(a v b):
          - r is submodular, so x <= y gives r(x v a) - r(x) >= r(y v a) - r(y).
          - If the identity holds, take c <= b, p = c v (a ^ b) and
            q = (c v a) ^ b.  Then p <= q, p ^ a = a ^ b and
            p v a = q v a = c v a.  Submodularity on (p, a) gives
            r(p) >= r(a ^ b) + r(c v a) - r(a).  The line above on q <= b,
            with the identity, gives r(q) <= that same value.  So p = q.
          - If (a, b) is a modular pair, take a maximal chain
            c_0 < ... < c_k from a ^ b up to b.  Modularity gives
            c_i = (c_i v a) ^ b, so the joins c_i v a are distinct, and by
            the first line each step raises their rank by at most one.  So
            r(a v b) - r(a) = k = r(b) - r(a ^ b).
        The identity is symmetric in a and b, so there left modular, right
        modular and modular mean the same, and m is modular exactly when
        its row of slack in _modular_by_rank is 0 everywhere.  Any other
        lattice raises PreconditionError.
        """
        mask = self._modular_by_rank
        if mask is None:
            raise PreconditionError("modular elements need an upper semimodular lattice")
        return mask

    def is_distributive_lattice(self) -> bool:
        """Whether the lattice is distributive, by Birkhoff's theorem.

        x -> {j in J(L) : j <= x} embeds any finite lattice L into the
        down-sets of its join-irreducibles J(L), and is onto exactly when
        L is distributive.  So L is distributive exactly when J(L) has |L|
        down-sets.  The count stops once it passes |L|, which bounds the
        work by O(|J(L)| |L|), and the answer is cached per poset.
        """
        self._require_lattice()
        return self._distributive

    @cached_property
    def _distributive(self) -> bool:
        ji = set(self.join_irreducibles())
        order = [v for v in self.linext if v in ji]
        below = self.leq[np.ix_(order, order)]
        # down-sets of the first i join-irreducibles, as bitmasks; each
        # prefix of a linear extension is itself a down-set, so the count
        # never falls as i grows and may stop once it passes |L|
        downsets = [0]
        for i in range(len(order)):
            need = sum(1 << k for k in np.flatnonzero(below[:i, i]).tolist())
            downsets += [d | (1 << i) for d in downsets if d & need == need]
            if len(downsets) > self.size:
                return False
        return len(downsets) == self.size

    # -- complements, atomicity, booleanness ---------------------------------

    def is_relatively_complemented(self) -> bool:
        """Every interval [x, y] is a complemented lattice.

        A finite lattice is relatively complemented exactly when none of
        its intervals has three elements.  Such an interval is a chain
        whose middle has no complement.  Conversely, let no interval have
        three elements, take a < x < b and induct on |[a, b]|.  If x is
        not a coatom of [a, b], take a coatom c > x, a complement x' of x
        in [a, c] (so x' > a) and a complement d of c in [x', b]; then
        x v d = x v x' v d = c v d = b and x ^ d = x ^ c ^ d = x ^ x' = a,
        so d complements x.  If x is a coatom but not an atom, the dual
        argument applies.  If x is both, [a, b] has a fourth element, and
        that one complements x.
        """
        self._require_lattice()
        leq = self.leq.astype(np.float32)
        # sizes[x, y] = |[x, y]|, exact in float32 below 2**24 elements
        sizes = leq @ leq
        return not (sizes == 3).any()

    def is_atomic(self) -> bool:
        """Every element is the join of the atoms below it.

        Every element is the join of the join-irreducibles below it, and a
        join-irreducible that is a join of atoms is an atom, so the lattice
        is atomic exactly when every element covering exactly one element
        covers the bottom.
        """
        self._require_lattice()
        cov = self.covers
        return bool(cov[self.bottom, cov.sum(axis=0) == 1].all())

    def is_boolean(self) -> bool:
        """Isomorphism test against the subset lattice of the same rank.

        A size that is no power of two returns False; any other poset above
        ISO_SIZE_CAP, lattice or not, raises SizeLimitError before a table,
        the covers or the subset lattice is built.
        """
        rtop = self.size.bit_length() - 1
        if self.size != 1 << rtop:
            return False
        _check_iso_size(self)
        try:
            candidate = self.is_lattice() and self.rank_of_top() == rtop
        except (GradednessError, PreconditionError):
            return False
        return candidate and posets_isomorphic(self, _shared_boolean_lattice(rtop))

    # -- factorization --------------------------------------------------------

    def chain_product_factorization(self) -> Optional[PartitionType]:
        """Chain lengths of a chain-product factorization, or None.

        Requires a distributive lattice.  The join irreducibles with the
        induced order determine the lattice; it is a product of chains
        exactly when they form a disjoint union of chains, that is when
        comparability among them is transitive.  Parts are the sizes of
        its classes, which add up to the lattice rank.
        """
        if not self.is_lattice() or not self.is_distributive_lattice():
            raise PreconditionError("factorization needs a distributive lattice")
        ji = self.join_irreducibles()
        if not ji:
            return ()
        below = self.leq[np.ix_(ji, ji)]
        comparable = below | below.T
        if (_bool_square(comparable) & ~comparable).any():
            return None
        _, parts = np.unique(comparable, axis=0, return_counts=True)
        return tuple(sorted((int(c) for c in parts), reverse=True))

    # -- supersolvability -------------------------------------------------------

    def is_supersolvable_bruteforce(self) -> tuple[bool, Optional[tuple[int, ...]]]:
        """Search for a maximal chain consisting of two-sided modular elements.

        Only defined for upper semimodular lattices, where such a chain is
        exactly a chain of modular elements.
        """
        if not self.is_lattice() or not self.is_upper_semimodular():
            raise PreconditionError("supersolvability search needs an upper semimodular lattice")
        mod = self.modular_element_mask()
        cov = self.covers
        top = self.top
        # depth first, lowest index first.  An element met a second time is
        # a dead end: covers go up, so the search below its first visit has
        # ended, and without reaching the top.  Skipping it leaves the
        # order of first visits, and so the witness, unchanged.
        parent: dict[int, int] = {}
        stack = [(self.bottom, -1)]
        while stack:
            v, p = stack.pop()
            if v in parent:
                continue
            parent[v] = p
            if v == top:
                chain = [v]
                while parent[chain[-1]] >= 0:
                    chain.append(parent[chain[-1]])
                return True, tuple(chain[::-1])
            stack += [(j, v) for j in reversed(np.flatnonzero(cov[v] & mod).tolist())]
        return False, None

    # -- derived posets --------------------------------------------------------

    def interval_poset(self, x: int, y: int) -> "FinitePoset":
        """The closed interval [x, y] as a poset of its own.

        Index i of the child is the i-th parent index in [x, y].  The
        interval of a lattice is a lattice, taken without a check, whose
        tables are built from its own order when read; being convex, it
        restricts its parent's covers and grading when that grading passed
        the check in covers.  It takes no injected ranks, so its rank() is
        always a checked grading.  Its bottom and top are the positions of
        x and y among its elements, which need not be first and last, since
        the parent's index order need not extend its order.
        """
        x = self._check_index(x)
        y = self._check_index(y)
        if not self.leq[x, y]:
            raise EmptyIntervalError(f"{x} is not below {y}")
        idx = (self.leq[x] & self.leq[:, y]).nonzero()[0]
        child = FinitePoset._adopt(self.leq[idx[:, None], idx])
        child.bottom, child.top = idx.searchsorted((x, y)).tolist()
        if self.is_lattice():
            child._restrict_from = (self, idx)
        return child


# -- canonical posets ------------------------------------------------------------


def _subset_order(masks: Sequence[int]) -> np.ndarray:
    """The inclusion order of bitmasks below 2**32, built in row blocks."""
    arr = np.asarray(masks, dtype=np.uint32)
    leq = np.empty((len(arr), len(arr)), dtype=bool)
    # one uint32 and one bool temporary per pair of a block of rows
    for rows in _row_blocks(len(arr), 5):
        leq[rows] = (arr[rows, None] & ~arr) == 0
    return leq


def _popcount_sorted(masks: np.ndarray, k: int) -> list[int]:
    """uint32 masks below 2**k as ints by (popcount, mask), the order of
    every subset family here, on which posets_isomorphic's identity
    certificate relies.  Sorts in place by popcount << k | mask."""
    masks |= np.bitwise_count(masks).astype(np.uint32) << k
    masks.sort()
    masks &= (1 << k) - 1
    return masks.tolist()


def boolean_lattice(k: int) -> FinitePoset:
    """Subset lattice of a k-element set; index i is the i-th mask by (popcount, mask)."""
    if k < 0:
        raise InvalidSizeError("rank must be nonnegative")
    if 1 << k > ISO_SIZE_CAP:
        raise SizeLimitError(f"boolean lattice above {ISO_SIZE_CAP} elements refused")
    masks = _popcount_sorted(np.arange(1 << k, dtype=np.uint32), k)
    return FinitePoset._adopt(_subset_order(masks))


# one shared instance per rank, so its covers and order are built once
_shared_boolean_lattice = cache(boolean_lattice)


def chain_poset(m: int) -> FinitePoset:
    """Total order with m elements."""
    return chain_product_poset((m,))


def chain_product_poset(sizes: Sequence[int]) -> FinitePoset:
    """Componentwise order on a product of chains with the given sizes.

    Elements come by coordinate sum, then lexicographically; the order is
    built one coordinate at a time, in row blocks.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise InvalidSizeError("chain sizes must be positive")
    total = prod(sizes)
    if total > ISO_SIZE_CAP:
        raise SizeLimitError("chain product too large")
    coords = np.indices(sizes).reshape(len(sizes), total)
    coords = coords[:, np.argsort(coords.sum(axis=0), kind="stable")]
    leq = np.ones((total, total), dtype=bool)
    # one bool temporary per pair of a block of rows
    for rows in _row_blocks(total, 1):
        block = leq[rows]
        for c in coords:
            block &= c[rows, None] <= c
    return FinitePoset._adopt(leq)


# -- isomorphism -------------------------------------------------------------------


def _refine_colors(up: list[list[int]], down: list[list[int]],
                   colors: list[int], table: dict) -> list[int]:
    sigs = []
    for v in range(len(colors)):
        sig = (colors[v],
               tuple(sorted(colors[w] for w in up[v])),
               tuple(sorted(colors[w] for w in down[v])))
        sigs.append(sig)
    out = []
    for sig in sigs:
        if sig not in table:
            table[sig] = len(table)
        out.append(table[sig])
    return out


def _check_iso_size(*posets: FinitePoset) -> None:
    if any(p.size > ISO_SIZE_CAP for p in posets):
        raise SizeLimitError(f"isomorphism test capped at {ISO_SIZE_CAP} elements")


def posets_isomorphic(p: FinitePoset, q: FinitePoset) -> bool:
    """Exact isomorphism test.

    Equal order matrices certify isomorphism by the identity map; that
    decides every Boolean interval of a cross section lattice, whose
    elements come in the (popcount, mask) order of boolean_lattice.  Any
    other pair goes through _isomorphic_by_search.
    """
    _check_iso_size(p, q)
    if p.size != q.size:
        return False
    if np.array_equal(p.leq, q.leq):
        return True
    return _isomorphic_by_search(p, q)


def _isomorphic_by_search(p: FinitePoset, q: FinitePoset) -> bool:
    """Exact isomorphism test of two equal-sized posets via cover-graph backtracking.

    Color refinement on the Hasse diagram prunes the search; the
    backtracking maps elements in a linear extension order so each
    element's lower covers are matched before the element itself.
    """
    n = p.size

    up_p, down_p = p._cover_lists
    up_q, down_q = q._cover_lists
    col_p = [0] * n
    col_q = [0] * n
    for _ in range(n):
        table: dict = {}
        new_p = _refine_colors(up_p, down_p, col_p, table)
        new_q = _refine_colors(up_q, down_q, col_q, table)
        if sorted(new_p) != sorted(new_q):
            return False
        if new_p == col_p and new_q == col_q:
            break
        col_p, col_q = new_p, new_q

    by_color_q: dict[int, list[int]] = {}
    for v in range(n):
        by_color_q.setdefault(col_q[v], []).append(v)

    order = list(p.linext)
    mapping = [-1] * n
    used = [False] * n

    def candidates(v: int) -> list[int]:
        mapped_down = [mapping[d] for d in down_p[v]]
        if mapped_down:
            pool = set(up_q[mapped_down[0]])
            for img in mapped_down[1:]:
                pool &= set(up_q[img])
        else:
            pool = set(by_color_q.get(col_p[v], []))
        out = []
        for c in sorted(pool):
            if used[c] or col_q[c] != col_p[v]:
                continue
            if len(down_q[c]) != len(down_p[v]):
                continue
            if all(img in down_q[c] for img in mapped_down):
                out.append(c)
        return out

    # iterative backtracking over the fixed element order
    cand_stack: list[list[int]] = [candidates(order[0])]
    while cand_stack:
        depth = len(cand_stack) - 1
        v = order[depth]
        if cand_stack[-1]:
            c = cand_stack[-1].pop()
            mapping[v] = c
            used[c] = True
            if depth + 1 == n:
                return True
            cand_stack.append(candidates(order[depth + 1]))
        else:
            cand_stack.pop()
            if depth > 0:
                prev = order[depth - 1]
                used[mapping[prev]] = False
                mapping[prev] = -1
    return False
