"""Inductive computation of intersecting subset tuples via Horn inequalities.

A tuple in Subsets(r, n, s) is intersecting exactly when its expected
dimension is nonnegative and it satisfies every Horn inequality
``edim(tup o test) >= edim(test)`` indexed by the zero-expected-dimension
intersecting tuples of the lower levels Subsets(d, r, s), d < r: when
its Schubert partitions, with t = n - r, satisfy the rank-r cone's Horn
rows (Belkale; Berline, Vergne and Walter).  This module builds those
level sets bottom-up, with an optional restriction to tuples fixed by a
coordinate permutation (computed against the likewise-restricted test
sets), and cross-checks the recursion against the Littlewood-Richardson
backend.

One numpy kernel, ``_horn_survivors``, evaluates the Horn rows of
``horn_rows`` (``cone`` stacks them into its systems) for the lower half
of the level tables and the census ``count_intersecting``, for every arity
and cycle type, in chunks of bounded size, one index per cycle.  It
enumerates every cycle but the last, whose indices it yields as bitsets,
one AND per group of test rows that share the last cycle's part.  A level
build asks for every tuple and unpacks the bitsets once into its rows,
already in mask-key order.  Permuting the parts of a plain tuple changes
neither its verdict nor the test sets (the Schubert product is
commutative), so the census asks only for sorted prefixes, the last
index free, and weights each bit by its prefix's orderings from
popcounts.  ``_index`` holds, as arrays, what the kernel and the dual
map read of each subset.

A level is its members' index rows, in mask-key order, and a point
flag per row; the zero-dim flag is read off the rows by ``_zero_dim``.
Gr(n, n) is a point: level (n, n) is one row, flagged point, made where
it is asked for and never cached.  A level (d, n) with d <= n/2 is the
kernel's output, with one ``lr._is_point`` (a count capped at 2) per
distinct multiset of zero-dim parts.  Every
other level is read off its Grassmann dual (n - d, n): Gr(d, n) =
Gr(n - d, n) sends each part I to {n + 1 - j : j not in I} and keeps
expected dimensions and LR coefficients, so the dual's rows are mapped
and re-sorted with their point flags, and no kernel or LR call runs.
Tables are immutable once published and keyed by (size, ambient, cycle
type-or-None).  The key alone fixes the levels a build reads, so
``HornStore.table`` hands out any level on first use, building those
levels, and no others, as it needs them.  A store may persist each
table but the point levels as one raw file (schema 6): a CRC-32 of the
key and payload, then the index rows and the point flags.
"""

from __future__ import annotations

import itertools
import os
import zlib
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from numbers import Number
from typing import NamedTuple

import numpy as np

from . import lr
# perfbench traces horn.expected_dim
from .subsets import (Permutation, SubsetTuple, _integer,  # noqa: F401
                      all_subsets, expected_dim, stable_tuples)

CACHE_SCHEMA = 6

# The Horn filter holds about this many candidate rows at once.
_CHUNK_ROWS = 1 << 16

# numpy 1.24 has no bitwise_count
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


class NotSigmaStable(ValueError):
    """A symmetry-restricted check received a tuple the permutation moves."""


def normalize_cycle_type(sigma, s):
    """Canonical form of a symmetry argument on s positions: None, a
    Permutation, or an iterable of cycle lengths; returns None or a
    sorted tuple.  ValueError unless the lengths are positive integers
    (numpy ones too, bools not) that sum to s."""
    if sigma is None:
        return None
    if isinstance(sigma, Permutation):
        sigma = sigma.cycle_type()
    elif isinstance(sigma, Number):
        sigma = (sigma,)
    sigma = tuple(sorted(map(_integer, sigma)))
    if not sigma or sigma[0] < 1 or sum(sigma) != s:
        raise ValueError(f"cycle type {sigma} is not a partition of s={s}")
    return sigma


@dataclass(frozen=True, eq=False, init=False, repr=False)
class HornTable:
    """The intersecting tuples of one (size, ambient) level, with flags.

    ``rows`` is a read-only (M, s) uint16 array, one row per member in
    mask-key order: the positions of its parts in all_subsets(size,
    ambient), so C(ambient, size) may not exceed 65,536.  ``zero_dim``
    (read off the rows) marks the members of expected dimension zero,
    ``point`` those of them whose Schubert product is the point class.
    A table is frozen and compares by identity; SubsetTuples are built
    only when a caller asks for them.
    """

    __slots__ = ("size", "ambient", "arity", "sigma", "rows", "_zero_dim",
                 "_point")

    def __init__(self, size, ambient, arity, sigma, rows, point):
        rows = np.asarray(rows)
        point = np.array(point, dtype=bool)
        m, n = len(rows), comb(ambient, size)
        if (rows.shape != (m, arity) or point.shape != (m,) or n > 1 << 16
                or m and not 0 <= rows.min() <= rows.max() < n):
            raise ValueError(f"rows {rows.shape} are not a level of arity "
                             f"{arity} in C({ambient}, {size}) uint16 positions")
        rows = rows.astype(np.uint16, copy=False)
        zero_dim = _zero_dim(rows, size, ambient)
        if (point & ~zero_dim).any():
            raise ValueError("a point flag is set on a nonzero-dim row")
        for a in (rows, zero_dim, point):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (size, ambient, arity, sigma,
                                                rows, zero_dim, point)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.rows)

    def __contains__(self, tup):
        return self.flags(tup)[0]

    def flags(self, tup):
        """(member, zero_dim, point) booleans for one tuple.  The rows are
        sorted, so each part narrows their range by a binary search."""
        if not (isinstance(tup, SubsetTuple) and tup.arity == self.arity
                and (tup.size, tup.ambient) == (self.size, self.ambient)):
            return (False, False, False)
        lo, hi = 0, len(self.rows)
        for k, part in enumerate(tup.parts):
            i = part.rank()
            a, b = self.rows[lo:hi, k].searchsorted((i, i + 1)).tolist()
            lo, hi = lo + a, lo + b
        if lo == hi:
            return (False, False, False)
        return (True, bool(self._zero_dim[lo]), bool(self._point[lo]))

    def _tuples(self, flag=None):
        subs = all_subsets(self.size, self.ambient)
        return [SubsetTuple([subs[i] for i in row])
                for row in self.select(flag)[0].tolist()]

    @property
    def members(self):
        return tuple(self._tuples())

    @property
    def zero_dim(self):
        return tuple(self._zero_dim.tolist())

    @property
    def point(self):
        return tuple(self._point.tolist())

    def zero_dim_members(self):
        return self._tuples("zero_dim")

    def point_members(self):
        return self._tuples("point")

    def select(self, flag=None):
        """The index rows and point flags of every member, or of those
        whose ``flag`` ("zero_dim" or "point") is set, in mask order."""
        keep = {None: slice(None), "zero_dim": self._zero_dim,
                "point": self._point}[flag]
        return self.rows[keep], self._point[keep]

    @property
    def key(self):
        return (self.size, self.ambient, self.arity, self.sigma)

    def _digest(self):
        """The CRC-32, 4 bytes little-endian, of the schema, key, rows (<u2)
        and point flags: like the unkeyed sha256 before it, it detects damage,
        not tampering.  It catches every burst of up to 32 bits, and a read
        also checks the length, the row range and point flags within zero-dim."""
        crc = zlib.crc32(repr((CACHE_SCHEMA, self.key)).encode())
        for a in (np.ascontiguousarray(self.rows, "<u2"), self._point):
            crc = zlib.crc32(a, crc)
        return crc.to_bytes(4, "little")


class HornStore:
    """Level tables for one arity, each built on first use.

    ``table(size, ambient, sigma)`` returns the published level, or makes
    the point level (n, n), or reads the level from the cache, or builds
    it from the lower levels (d, size), d < size, that its Horn tests
    read, or, above the middle, from its dual (ambient - size, ambient).
    An all-ones cycle type fixes every tuple, so it names the plain level.
    ``cache_dir``, when given, keeps one ``.level`` file per level d < n
    under ``v6/``: its 4-byte ``_digest``, its rows as little-endian uint16
    and its point flags as bytes, 4 + m(2s + 1) in all.  A file that is
    absent, unreadable, of a length no row count of the arity gives,
    misshapen (a point off the zero-dim rows too) or does not match the
    digest of the level asked for is a miss, and the level is built again.
    """

    def __init__(self, arity=3, cache_dir=None):
        self.arity = _integer(arity)
        if self.arity < 1:
            raise ValueError(f"arity {arity} is not positive")
        self.tables = {}
        self.cache_dir = cache_dir

    def table(self, size, ambient, sigma=None):
        """The level (size, ambient, sigma), built on first use; ValueError
        unless 1 <= size <= ambient are integers, C(ambient, size) <= 65536."""
        size, ambient = _fits(*_level(size, ambient))
        sigma = normalize_cycle_type(sigma, self.arity)
        key = (size, ambient, None if sigma == (1,) * self.arity else sigma)
        table = self.tables.get(key)
        if table is None:
            if size == ambient:  # Gr(n, n) is a point: one row, the point class
                table = HornTable(size, ambient, self.arity, key[2], [[0] * self.arity], [True])
            elif (table := self._load_cached(key)) is None:
                table = self._compute_table(*key)
                self._save_cached(key, table)
            # publication is a single atomic assignment
            self.tables[key] = table
        return table

    # -- persistence -------------------------------------------------

    def _cache_path(self, key):
        size, ambient, sigma = key
        tag = "full" if sigma is None else "c" + "_".join(map(str, sigma))
        name = f"int_d{size}_r{ambient}_s{self.arity}_{tag}.level"
        return os.path.join(self.cache_dir, f"v{CACHE_SCHEMA}", name)

    def _load_cached(self, key):
        if self.cache_dir is None:
            return None
        s = self.arity
        try:
            with open(self._cache_path(key), "rb") as fh:
                # the digest, then m rows of s little-endian uint16, m flags
                m, extra = divmod(os.fstat(fh.fileno()).st_size - 4, 2 * s + 1)
                if m < 0 or extra:
                    return None
                digest = fh.read(4)
                table = HornTable(*key[:2], s, key[2],
                                  np.fromfile(fh, "<u2", m * s).reshape(m, s),
                                  np.fromfile(fh, np.uint8, m))
        except (OSError, ValueError):
            return None
        # the digest hashes the key too, so a file of another level misses
        return table if table._digest() == digest else None

    def _save_cached(self, key, table):
        if self.cache_dir is None:
            return
        path = self._cache_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # a temporary file of our own, so that concurrent writers of the
        # same level never share one; the rename publishes it whole.  A
        # plain exclusive open keeps the umask's permissions, which
        # tempfile.mkstemp would narrow to the owner.
        tmp = f"{path}.{os.urandom(16).hex()}.tmp"
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(table._digest() + table.rows.astype("<u2").tobytes()
                         + table._point.tobytes())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- building ----------------------------------------------------

    def build_level(self, size, ambient_max, sigma=None):
        """Build the tables (size, n) for every n in [size..ambient_max]."""
        for n in range(_integer(size), _integer(ambient_max) + 1):
            self.table(size, n, sigma)
        return self

    def build_through(self, size_max, ambient_max, sigma=None):
        """Build every level up to ``size_max`` with ambients up to
        ``ambient_max`` (which must be >= size_max)."""
        size_max, ambient_max = _integer(size_max), _integer(ambient_max)
        if ambient_max < size_max:
            raise ValueError("ambient_max must be at least size_max")
        for size in range(1, size_max + 1):
            self.build_level(size, ambient_max, sigma)
        return self

    def _test_sets(self, size, sigma):
        """Per-level Horn test tuples for candidates of the given size: the
        zero-expected-dimension rows of each level (d, size)."""
        tables = [self.table(d, size, sigma) for d in range(1, size)]
        return [(t.size, t.select("zero_dim")[0]) for t in tables]

    def _compute_table(self, size, ambient, sigma):
        if not ambient < 2 * size:
            return self._kernel_table(size, ambient, sigma)
        # above the middle: read off the Grassmann dual (module docstring)
        low = self.table(ambient - size, ambient, sigma)
        rows = _index(ambient - size, ambient).dual[low.rows]
        order = np.lexsort(rows.T[::-1])
        return HornTable(size, ambient, self.arity, sigma, rows[order],
                         low._point[order])

    def _kernel_table(self, size, ambient, sigma):
        """The level as the Horn filter and the LR backend build it: the
        kernel yields every member in mask-key order, and its blocks are
        unpacked once into rows counted from their popcounts, each cycle's
        index written to each of its parts' columns."""
        s, n = self.arity, comb(ambient, size)
        lengths = (1,) * s if sigma is None else sigma
        cycle = np.repeat(np.arange(len(lengths)), lengths)
        blocks = list(_horn_survivors(size, ambient, s, sigma,
                                      self._test_sets(size, sigma), every=True))
        counts = [int(_POPCOUNT[bits].sum()) for _, bits in blocks]
        rows = np.empty((sum(counts), s), dtype=np.uint16)
        for (free, bits), lo, m in zip(blocks, np.cumsum([0] + counts), counts):
            i, j = np.divmod(np.flatnonzero(np.unpackbits(
                bits, axis=1, count=n, bitorder="little")), n)
            for c, k in enumerate(cycle):
                rows[lo:lo + m, c] = free[k, i] if k < len(free) else j
        del blocks
        zero_dim = _zero_dim(rows, size, ambient)
        # the product is commutative: one coefficient per multiset of parts
        multisets, which = np.unique(np.sort(rows[zero_dim], axis=1), axis=0,
                                     return_inverse=True)
        is_point = np.array([lr._is_point(parts.tolist(), size, ambient) for
                             parts in _index(size, ambient).partitions[multisets]],
                            dtype=bool)
        point = np.zeros(len(rows), dtype=bool)
        point[zero_dim] = is_point[which.reshape(-1)]
        return HornTable(size, ambient, s, sigma, rows, point)


def _level(size, ambient):
    """(size, ambient) as ints; ValueError unless 1 <= size <= ambient."""
    size, ambient = _integer(size), _integer(ambient)
    if not 1 <= size <= ambient:
        raise ValueError(f"level (size={size}, ambient={ambient}) needs "
                         "1 <= size <= ambient")
    return size, ambient


def _fits(size, ambient):
    """(size, ambient); ValueError unless C(ambient, size) <= 65536."""
    if comb(ambient, size) > 1 << 16:
        raise ValueError(f"level (size={size}, ambient={ambient}) needs "
                         f"C({ambient}, {size}) <= 65536 uint16 positions")
    return size, ambient


_Index = namedtuple("_Index", "dims partitions incidence dual")


@lru_cache(maxsize=None)
def _index(size, ambient):
    """all_subsets(size, ambient) as read-only arrays, built without
    Subsets, a row per subset I in mask order: its dim and Schubert
    partition (int32), incidence (bool, a column per j) and
    (size < ambient) the rank of its dual {ambient + 1 - j : j not in I},
    uint16 up to 65,536 subsets and uint32 past them."""
    # mask order is the lex order of {ambient + 1 - j : j in I}, reversed
    lex = np.fromiter(itertools.chain.from_iterable(itertools.combinations(
        range(1, ambient + 1), size)), np.int64).reshape(-1, size)
    elements = ambient + 1 - lex[::-1, ::-1]
    incidence = np.zeros((len(lex), ambient), dtype=bool)
    np.put_along_axis(incidence, elements - 1, True, axis=1)
    # lexsort compares its last key (element ambient) first, as masks do
    dual = np.empty(len(lex), np.uint16 if len(lex) <= 1 << 16 else np.uint32)
    dual[np.lexsort(~incidence.T[::-1])] = np.arange(len(lex))
    dims = elements.sum(axis=1) - size * (size + 1) // 2
    partitions = np.arange(1, size + 1) - elements + ambient - size
    index = _Index(dims.astype(np.int32), partitions.astype(np.int32),
                   incidence, dual)
    for a in index:
        a.setflags(write=False)
    return index


def _zero_dim(rows, size, ambient):
    """Whether each (M, s) index row into all_subsets(size, ambient) has
    expected dimension 0, its dims summing to (s-1) * size * (ambient-size),
    _CHUNK_ROWS rows at a time (a gather copies its whole index as intp)."""
    dims, zero = _index(size, ambient).dims, np.empty(len(rows), dtype=bool)
    want = (rows.shape[1] - 1) * size * (ambient - size)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        zero[lo:lo + _CHUNK_ROWS] = sum(dims[c] for c in rows[lo:lo + _CHUNK_ROWS].T) == want
    return zero


def horn_rows(d, rows, r, lengths):
    """Int64 Horn rows ``a . x <= 0`` of (K, s) index rows into
    all_subsets(d, r); x is one spectrum per cycle of consecutive parts
    (``lengths``), then t: a cycle sums its parts' incidences, t gets -d."""
    incidence = _index(d, r).incidence
    a = np.full((len(rows), len(lengths) * r + 1), -d, dtype=np.int64)
    for c, (lo, hi) in enumerate(itertools.pairwise(np.cumsum((0, *lengths)))):
        a[:, c * r:(c + 1) * r] = incidence[rows[:, lo:hi]].sum(axis=1)
    return a


def _horn_survivors(size, ambient, s, sigma, tests, every=False):
    """Yield, in mask-key order, blocks of the tuples (unless ``every``,
    those with a sorted prefix) that are fixed by the cycle type ``sigma``
    (None: every tuple), have nonnegative expected dimension and pass
    every test level in ``tests``: pairs (d, rows) of zero-expected-
    dimension tuples fixed by ``sigma`` and closed under the swaps below,
    as every level's rows are, as (K, s) index rows into all_subsets(d,
    size).  A block pairs prefixes, (cycles - 1, M) indices into
    all_subsets(size, ambient), with bits (little order) of the last
    indices that complete each.

    Swaps of cycles of equal length (for None, all s! permutations of the
    parts) leave each of these conditions unchanged.  The prefix is every
    cycle but the last; a sorted one's indices do not decrease within each
    run of equal cycle lengths, and the last cycle is never masked.
    Candidates grow by one free index per cycle, weighted by its length,
    and, unless ``every``, a prefix index never below the previous one of
    its run; a prefix is dropped once its dimension sum can no longer
    reach the threshold, and each growth step is split to hold about
    _CHUNK_ROWS rows.  A candidate passes level d when it satisfies the
    level's ``horn_rows`` at x = its cycles' Schubert partitions,
    t = ambient - size.  The entries are nonnegative: every cycle but the
    last leaves each row a slack, and the last indices that fit are an AND
    of one bitset per slack and group of rows sharing the last column (of
    one comparison per group with one cycle, whose slack is the bound).
    """
    lengths = (1,) * s if sigma is None else sigma
    dims, partitions, _, _ = _index(size, ambient)
    # the expected dimension is nonnegative iff the dims sum to at least
    threshold = (s - 1) * size * (ambient - size)
    # reach[k]: the most the cycles k, k+1, ... can still add
    reach = np.cumsum([0] + [w * dims.max() for w in lengths[::-1]])[::-1]
    # every test row and, as level (size, size)'s row, the codimension
    # bound of a nonnegative expected dimension; a row repeats each cycle's
    # part, so a level's rows with one last part share a column: a group
    tests = [(d, rows[np.argsort(rows[:, -1], kind="stable")]) for d, rows in
             [(size, np.zeros((1, s), np.intp)), *tests] if len(rows)]
    a = np.concatenate([horn_rows(d, rows, size, lengths) for d, rows in tests])
    starts = np.flatnonzero(np.concatenate([
        np.append(True, rows[1:, -1] != rows[:-1, -1]) for _, rows in tests]))
    # per cycle, each part's share of each row (int32, as an entry is at
    # most s * size * (ambient - size)); fits[g, m]: as bits (little
    # order), the last cycle's indices whose entry in group g is <= m
    tables = partitions @ a[:, :-1].T.reshape(-1, size, len(a)).astype(np.int32)
    bound = ((ambient - size) * -a[None, :, -1]).astype(np.int32)
    columns = tables[-1].T[starts]
    if len(lengths) == 1:
        slack = np.minimum.reduceat(bound[0], starts)[:, None]
        yield np.zeros((0, 1), np.intp), np.packbits(
            (columns <= slack).all(axis=0), -1, "little")[None]
        return
    fits = np.stack([np.packbits(columns <= m, 1, "little")
                     for m in range(size * (ambient - size) + 1)], axis=1)
    step = max(1, _CHUNK_ROWS // len(dims))

    def finish(free):
        # each group's least slack, for one step's prefixes
        slack = np.minimum.reduceat(bound - sum(
            table[i] for table, i in zip(tables, free)), starts, axis=1)
        free, slack = free[:, (ok := slack.min(axis=1) >= 0)], slack[ok]
        bits = np.bitwise_and.reduce(fits[np.arange(len(starts))[:, None],
                                          slack.T], axis=0)
        if len(bits):
            yield free, bits

    def grow(free, sums, k):
        gain = lengths[k] * dims
        for lo in range(0, len(sums), step):
            if k == len(lengths) - 1:
                yield from finish(free[:, lo:lo + step])
                continue
            keep = sums[lo:lo + step, None] + gain >= threshold - reach[k + 1]
            if not every and k and lengths[k] == lengths[k - 1]:
                keep &= np.arange(len(dims)) >= free[k - 1, lo:lo + step, None]
            i, j = np.nonzero(keep)
            i += lo
            yield from grow(np.vstack((free[:, i], j)), sums[i] + gain[j],
                            k + 1)

    yield from grow(np.zeros((0, 1), dtype=np.intp), np.zeros(1, np.int64), 0)


class IntersectingCount(NamedTuple):
    """Counts from a full intersecting enumeration: the total, the
    all-components-equal diagonal, and how many diagonal members have
    expected dimension zero."""

    total: int
    diagonal: int
    diagonal_zero_dim: int


def count_intersecting(size, ambient, store):
    """Count the intersecting tuples of Subsets(size, ambient, s) without
    materializing them, using the store's lower levels.  Each bit of a
    sorted prefix the kernel yields stands for the prefix's (s-1)!/prod(m!)
    orderings, m running over the multiplicities of its parts; the
    diagonal is the prefixes of one index q whose bit q is set.
    ValueError unless 1 <= size <= ambient are integers."""
    size, ambient = _level(size, ambient)
    s = store.arity
    # whether the diagonal (j, ..., j) has expected dimension zero
    zero = s * _index(size, ambient).dims == (s - 1) * size * (ambient - size)
    total = diagonal = diagonal_zero_dim = 0
    for free, bits in _horn_survivors(size, ambient, s, None,
                                      store._test_sets(size, None)):
        count = _POPCOUNT[bits].sum(axis=1, dtype=np.int64)
        if s == 1:  # one block, no prefix: every member is diagonal
            on = _POPCOUNT[bits & np.packbits(zero, -1, "little")]
            return IntersectingCount(int(count[0]), int(count[0]), int(on.sum()))
        # run: how many parts so far equal the latest one; ties: prod(m!)
        run = ties = np.ones(free.shape[1], dtype=np.int64)
        for k in range(1, s - 1):
            run = np.where(free[k] == free[k - 1], run + 1, 1)
            ties = ties * run
        total += int((factorial(s - 1) // ties * count).sum())
        same = run == s - 1  # the prefixes (q, ..., q)
        q = free[0, same]
        q = q[(bits[same, q >> 3] >> (q & 7) & 1).astype(bool)]
        diagonal += len(q)
        diagonal_zero_dim += int(zero[q].sum())
    return IntersectingCount(total, diagonal, diagonal_zero_dim)


class CrossCheckReport(NamedTuple):
    size: int
    ambient: int
    total: int
    mismatches: list

    @property
    def clean(self):
        return not self.mismatches


def cross_check(size, ambient, store, sigma=None):
    """Compare the recursion's verdicts against the Littlewood-Richardson
    classification for every tuple of the level; mismatches are returned,
    never raised.  Checks membership and both refinement flags."""
    sigma = normalize_cycle_type(sigma, store.arity)
    table = store.table(size, ambient, sigma)
    perm = Permutation.from_cycle_type(sigma or (1,) * store.arity)
    candidates = stable_tuples(size, ambient, perm)
    mismatches = []
    for tup in candidates:
        got = table.flags(tup)
        cls = lr.classify(tup)
        want = (cls.is_intersecting, cls.is_zero_dim, cls.is_point)
        if got != want:
            mismatches.append((tup, got, want))
    return CrossCheckReport(size, ambient, len(candidates), mismatches)
