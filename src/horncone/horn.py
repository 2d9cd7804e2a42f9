"""Inductive computation of intersecting subset tuples via Horn inequalities.

A tuple in Subsets(r, n, s) is intersecting exactly when its expected
dimension is nonnegative and it satisfies every Horn inequality
``edim(tup o test) >= edim(test)`` indexed by the zero-expected-dimension
intersecting tuples of the lower levels Subsets(d, r, s), d < r.  This
module builds those level sets bottom-up, with an optional restriction
to tuples fixed by a coordinate permutation (computed against the
likewise-restricted test sets), and cross-checks the recursion against
the Littlewood-Richardson backend.

Tables are immutable once published and keyed by
(size, ambient, cycle type-or-None); a store may persist them as JSON.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from typing import NamedTuple

import numpy as np

from . import lr
from .subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    all_tuples,
    expected_dim,
    stable_tuples,
)

CACHE_SCHEMA = 1

# Above this many (candidate, test) pairs the level filter switches to
# the vectorized kernel (three-part tuples without symmetry restriction).
_VECTOR_THRESHOLD = 2_000_000

# The dense filter holds about four bytes per cell of its N^3 cube (an
# int16 sum buffer, the bool verdicts and a bool temporary).  Above this
# budget it refuses to start: the (5, 11) census (N = 462) needs 0.4 GB.
CUBE_BYTES_BUDGET = 1 << 30


class MissingDependency(RuntimeError):
    """A required lower level is not present in the store."""


class MemoryBudgetExceeded(MemoryError):
    """A computation would allocate more than its declared budget."""


class NotSigmaStable(ValueError):
    """A symmetry-restricted check received a tuple the permutation moves."""


def normalize_cycle_type(sigma):
    """Canonical form of a symmetry argument: None, a Permutation, or an
    iterable of cycle lengths; returns None or a sorted tuple."""
    if sigma is None:
        return None
    if isinstance(sigma, Permutation):
        return sigma.cycle_type()
    if isinstance(sigma, int):
        return (sigma,)
    return tuple(sorted(int(x) for x in sigma))


class HornTable:
    """The intersecting tuples of one (size, ambient) level, with flags.

    ``members`` is sorted by mask key.  ``zero_dim`` marks the members of
    expected dimension zero; ``point`` marks those whose Schubert product
    is exactly the point class (always a subset of ``zero_dim``).
    """

    __slots__ = ("size", "ambient", "arity", "sigma", "members", "zero_dim",
                 "point", "provenance", "_index")

    def __init__(self, size, ambient, arity, sigma, members, zero_dim, point,
                 provenance):
        members = tuple(members)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "zero_dim", tuple(zero_dim))
        object.__setattr__(self, "point", tuple(point))
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(
            self, "_index", {t: i for i, t in enumerate(members)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("HornTable is immutable once published")

    def __len__(self):
        return len(self.members)

    def __contains__(self, tup):
        return tup in self._index

    def flags(self, tup):
        """(member, zero_dim, point) booleans for one tuple."""
        i = self._index.get(tup)
        if i is None:
            return (False, False, False)
        return (True, self.zero_dim[i], self.point[i])

    def zero_dim_members(self):
        return [t for t, z in zip(self.members, self.zero_dim) if z]

    def point_members(self):
        return [t for t, p in zip(self.members, self.point) if p]

    @property
    def key(self):
        return (self.size, self.ambient, self.arity, self.sigma)

    def to_json(self):
        return {
            "schema": CACHE_SCHEMA,
            "size": self.size,
            "ambient": self.ambient,
            "arity": self.arity,
            "sigma": list(self.sigma) if self.sigma is not None else None,
            "provenance": self.provenance,
            "members": [t.to_json() for t in self.members],
            "zero_dim": list(self.zero_dim),
            "point": list(self.point),
        }

    @classmethod
    def from_json(cls, data):
        if data.get("schema") != CACHE_SCHEMA:
            raise ValueError(f"unsupported cache schema {data.get('schema')}")
        sigma = data["sigma"]
        members = [
            SubsetTuple(Subset(e, data["ambient"]) for e in t)
            for t in data["members"]
        ]
        return cls(
            data["size"], data["ambient"], data["arity"],
            tuple(sigma) if sigma is not None else None,
            members, [bool(b) for b in data["zero_dim"]],
            [bool(b) for b in data["point"]], data["provenance"],
        )


class HornStore:
    """Level tables for one arity, built bottom-up.

    ``cache_dir`` enables JSON persistence (one file per table under a
    schema-versioned directory); ``use_cache=False`` forces recomputation
    even when a cache directory is configured.
    """

    def __init__(self, arity=3, cache_dir=None, use_cache=True):
        self.arity = arity
        self.tables = {}
        self.cache_dir = cache_dir
        self.use_cache = use_cache and cache_dir is not None
        self.log = []

    def _key(self, size, ambient, sigma):
        return (size, ambient, normalize_cycle_type(sigma))

    def has(self, size, ambient, sigma=None):
        return self._key(size, ambient, sigma) in self.tables

    def table(self, size, ambient, sigma=None):
        key = self._key(size, ambient, sigma)
        try:
            return self.tables[key]
        except KeyError:
            raise MissingDependency(
                f"level table (size={size}, ambient={ambient}, sigma={key[2]})"
                " has not been built"
            ) from None

    def discard(self, size, ambient, sigma=None):
        """Drop a table (testing hook for the dependency discipline)."""
        self.tables.pop(self._key(size, ambient, sigma), None)

    # -- persistence -------------------------------------------------

    def _cache_path(self, key):
        size, ambient, sigma = key
        tag = "full" if sigma is None else "c" + "_".join(map(str, sigma))
        name = f"int_d{size}_r{ambient}_s{self.arity}_{tag}.json"
        return os.path.join(self.cache_dir, f"v{CACHE_SCHEMA}", name)

    def _load_cached(self, key):
        if not self.use_cache:
            return None
        path = self._cache_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                table = HornTable.from_json(json.load(fh))
        except (ValueError, KeyError, json.JSONDecodeError):
            return None
        if (table.size, table.ambient, table.sigma) != key or table.arity != self.arity:
            return None
        return table

    def _save_cached(self, key, table):
        if not self.use_cache:
            return
        path = self._cache_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # a temporary file of our own, so that concurrent writers of the
        # same level never share one; the rename publishes it whole.  A
        # plain exclusive open keeps the umask's permissions, which
        # tempfile.mkstemp would narrow to the owner.
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                json.dump(table.to_json(), fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- building ----------------------------------------------------

    def build_level(self, size, ambient_max, sigma=None, test_level="0"):
        """Build the tables (size, n) for every n in [size..ambient_max].

        All lower levels (d, size) for d < size must already be present;
        otherwise MissingDependency is raised.  ``test_level`` selects the
        Horn test sets: "0" uses the zero-expected-dimension members (the
        default; no LR values needed) and "00" the point-class members.
        """
        sigma = normalize_cycle_type(sigma)
        for d in range(1, size):
            if not self.has(d, size, sigma):
                raise MissingDependency(
                    f"building size {size} needs level (size={d}, ambient={size},"
                    f" sigma={sigma}) first"
                )
        for n in range(size, ambient_max + 1):
            key = self._key(size, n, sigma)
            if key in self.tables:
                continue
            table = self._load_cached(key)
            if table is None:
                table = self._compute_table(size, n, sigma, test_level)
                self._save_cached(key, table)
            # publication is a single atomic assignment
            self.tables[key] = table
            self.log.append(
                f"built (size={size}, ambient={n}, sigma={sigma}): "
                f"{len(table)} members"
            )
        return self

    def build_through(self, size_max, ambient_max, sigma=None, test_level="0"):
        """Build every level up to ``size_max`` with ambients up to
        ``ambient_max`` (which must be >= size_max)."""
        if ambient_max < size_max:
            raise ValueError("ambient_max must be at least size_max")
        for size in range(1, size_max + 1):
            self.build_level(size, ambient_max, sigma, test_level)
        return self

    def _test_sets(self, size, sigma, test_level):
        """Per-level Horn test tuples for candidates of the given size,
        as index tuples into all_subsets(d, size)."""
        tests = []
        for d in range(1, size):
            table = self.table(d, size, sigma)
            tuples = (
                table.zero_dim_members() if test_level == "0"
                else table.point_members()
            )
            pos = {sub: i for i, sub in enumerate(all_subsets(d, size))}
            tests.append((d, [tuple(pos[p] for p in t.parts) for t in tuples]))
        return tests

    def _compute_table(self, size, ambient, sigma, test_level):
        s = self.arity
        tests = self._test_sets(size, sigma, test_level)
        n_tests = sum(len(tt) for _, tt in tests)
        subs = all_subsets(size, ambient)
        big = len(subs) ** s * max(1, n_tests)
        if sigma is None and s == 3 and big > _VECTOR_THRESHOLD:
            member_idx = _vector_filter(size, ambient, tests)
            members = [
                SubsetTuple(subs[i] for i in idx) for idx in member_idx
            ]
        else:
            if sigma is None:
                candidates = all_tuples(size, ambient, s)
            else:
                candidates = stable_tuples(size, ambient,
                                           Permutation.from_cycle_type(sigma))
            members = [t for t in candidates
                       if _passes(t, tests, size, ambient, s)]
        zero_dim = [expected_dim(t) == 0 for t in members]
        point = [
            z and lr.classify(t).is_point for t, z in zip(members, zero_dim)
        ]
        return HornTable(size, ambient, s, sigma, members, zero_dim, point,
                         "recursion+lr")


def _passes(tup, tests, size, ambient, s):
    """Plain-Python Horn filter for one candidate tuple."""
    if expected_dim(tup) < 0:
        return False
    for d, test_tuples in tests:
        if not test_tuples:
            continue
        d_subs = all_subsets(d, size)
        base = s * d * (d + 1) // 2 + (s - 1) * d * (ambient - d)
        for idx in test_tuples:
            total = 0
            for part, j in zip(tup.parts, idx):
                inner = d_subs[j].elements
                elems = part.elements
                for x in inner:
                    total += elems[x - 1]
            if total < base:
                return False
    return True


def _composition_sums(size, ambient, d):
    """Matrix F with F[i, j] = sum_k I_i(J_j(k)) over the mask-ordered
    subsets I of [ambient] (size ``size``) and J of [size] (size d)."""
    outer = all_subsets(size, ambient)
    inner = all_subsets(d, size)
    F = np.empty((len(outer), len(inner)), dtype=np.int16)
    for i, I in enumerate(outer):
        e = I.elements
        for j, J in enumerate(inner):
            F[i, j] = sum(e[x - 1] for x in J.elements)
    return F


def _vector_filter(size, ambient, tests):
    """Index triples of the tuples surviving the vectorized Horn filter."""
    return np.argwhere(_vector_ok_cube(size, ambient, tests))


def horn_check(tup, store, sigma=None):
    """Decide whether a tuple is intersecting from the Horn inequalities
    against the store's lower levels (the symmetry-restricted ones when a
    cycle type is given, in which case the tuple itself must be fixed by
    the permutation)."""
    sigma = normalize_cycle_type(sigma)
    if sigma is not None:
        if sum(sigma) != tup.arity:
            raise NotSigmaStable(
                f"cycle type {sigma} does not act on {tup.arity} positions"
            )
        if not tup.is_stable(Permutation.from_cycle_type(sigma)):
            raise NotSigmaStable(f"{tup!r} is moved by the cycle type {sigma}")
    if expected_dim(tup) < 0:
        return False
    r = tup.size
    for d in range(1, r):
        table = store.table(d, r, sigma)
        for test in table.zero_dim_members():
            if expected_dim(tup.compose(test)) < expected_dim(test):
                return False
    return True


class IntersectingCount(NamedTuple):
    """Counts from a full-cube intersecting enumeration: the total, the
    all-components-equal diagonal, and how many diagonal members have
    expected dimension zero."""

    total: int
    diagonal: int
    diagonal_zero_dim: int


def count_intersecting(size, ambient, store):
    """Count the intersecting tuples of Subsets(size, ambient, s) without
    materializing them, using the store's lower levels.  Vectorized for
    s = 3; plain enumeration otherwise."""
    s = store.arity
    tests = store._test_sets(size, None, "0")
    if s == 3:
        subs = all_subsets(size, ambient)
        N = len(subs)
        ok = _vector_ok_cube(size, ambient, tests)
        idx = np.arange(N)
        diag = ok[idx, idx, idx]
        dims = np.array([p.dim() for p in subs], dtype=np.int64)
        zero = diag & (3 * dims == 2 * size * (ambient - size))
        return IntersectingCount(int(ok.sum()), int(diag.sum()), int(zero.sum()))
    total = diagonal = diagonal_zero = 0
    for tup in all_tuples(size, ambient, s):
        if _passes(tup, tests, size, ambient, s):
            total += 1
            if all(p == tup.parts[0] for p in tup.parts):
                diagonal += 1
                if expected_dim(tup) == 0:
                    diagonal_zero += 1
    return IntersectingCount(total, diagonal, diagonal_zero)


def _vector_ok_cube(size, ambient, tests):
    """Boolean cube over Subsets(size, ambient)^3 marking the tuples that
    pass the expected-dimension and Horn conditions.

    The Horn inequality for one test tuple splits into a sum of per-part
    contributions, so each test is a single broadcast add-and-compare.
    Raises MemoryBudgetExceeded, before allocating, when the cube would
    not fit in CUBE_BYTES_BUDGET.
    """
    need = 4 * math.comb(ambient, size) ** 3
    if need > CUBE_BYTES_BUDGET:
        raise MemoryBudgetExceeded(
            f"the dense Horn filter for size {size} in ambient {ambient} "
            f"needs {need:,} bytes, above its budget of "
            f"{CUBE_BYTES_BUDGET:,} bytes"
        )
    subs = all_subsets(size, ambient)
    N = len(subs)
    dims = np.array([p.dim() for p in subs], dtype=np.int16)
    thr0 = 2 * size * (ambient - size)
    pair = dims[:, None] + dims[None, :]
    ok = pair[:, :, None] + dims[None, None, :] >= thr0
    buf = np.empty((N, N, N), dtype=np.int16)
    for d, test_tuples in tests:
        if not test_tuples:
            continue
        F = _composition_sums(size, ambient, d)
        base = 3 * d * (d + 1) // 2 + 2 * d * (ambient - d)
        for j1, j2, j3 in test_tuples:
            a, b, c = F[:, j1], F[:, j2], F[:, j3]
            np.add(a[:, None, None], b[None, :, None], out=buf)
            np.add(buf, c[None, None, :], out=buf)
            ok &= buf >= base
    return ok


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
    sigma = normalize_cycle_type(sigma)
    table = store.table(size, ambient, sigma)
    if sigma is None:
        candidates = all_tuples(size, ambient, store.arity)
    else:
        candidates = stable_tuples(size, ambient,
                                   Permutation.from_cycle_type(sigma))
    mismatches = []
    total = 0
    for tup in candidates:
        total += 1
        got = table.flags(tup)
        cls = lr.classify(tup)
        want = (cls.is_intersecting, cls.is_zero_dim, cls.is_point)
        if got != want:
            mismatches.append((tup, got, want))
    return CrossCheckReport(size, ambient, total, mismatches)
