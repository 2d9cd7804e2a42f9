"""Subsets of [n], tuples of subsets, and the permutations acting on them.

A ``Subset`` is a set of integers ``{j_1 < ... < j_d}`` inside an ambient
interval ``[1..n]``, identified with the strictly increasing map
``k -> j_k``.  A ``SubsetTuple`` is an s-tuple of subsets of common size
and ambient; these index products of Schubert classes on a Grassmannian
and carry a natural action of the symmetric group on the s positions.

Everything in this module is exact integer arithmetic on immutable
values, so all operations are safe to call concurrently.  Elements,
ambients and permutation images must be integers (numpy ones too, bools
not): anything else is a ValueError, never truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from numbers import Integral


def _integer(x):
    """``x`` as a Python int; ValueError unless it is an integer that is
    not a bool, where ``int(x)`` would truncate it or pass it."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


@dataclass(frozen=True, init=False, repr=False)
class Subset:
    """A nonempty subset of [1..ambient], stored strictly increasing.

    The canonical encoding is the bit mask with bit ``j-1`` set iff ``j``
    is in the subset; it round-trips losslessly with the sequence form
    and is the sort key everywhere.  Equality and hashing read the
    elements and the ambient, which the mask determines.
    """

    __slots__ = ("elements", "ambient", "mask")
    elements: tuple
    ambient: int

    def __init__(self, elements, ambient):
        elements = tuple(map(_integer, elements))
        ambient = _integer(ambient)
        if not elements:
            raise ValueError("subset must be nonempty")
        if any(b <= a for a, b in zip(elements, elements[1:])):
            raise ValueError(f"elements must be strictly increasing, got {elements}")
        if elements[0] < 1 or elements[-1] > ambient:
            raise ValueError(f"elements {elements} not inside [1..{ambient}]")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "ambient", ambient)
        mask = 0
        for j in elements:
            mask |= 1 << (j - 1)
        object.__setattr__(self, "mask", mask)

    @property
    def size(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, j):
        return 1 <= j <= self.ambient and self.mask >> (j - 1) & 1 == 1

    def __call__(self, k):
        """The k-th element (1-indexed), i.e. the value of the increasing map."""
        return self.elements[k - 1]

    def __repr__(self):
        return f"Subset({list(self.elements)}, {self.ambient})"

    def rank(self):
        """Position in all_subsets(size, ambient): the colex rank."""
        return sum(comb(j - 1, c) for c, j in enumerate(self.elements, 1))

    def dim(self):
        """Dimension of the Schubert variety indexed by this subset:
        sum of ``j_k - k``."""
        d = len(self.elements)
        return sum(self.elements) - d * (d + 1) // 2

    def codim(self):
        """Codimension of the Schubert variety inside Gr(size, ambient)."""
        d = self.size
        return d * (self.ambient - d) - self.dim()

    def schubert_partition(self):
        """Partition of the Schubert class of this subset in
        Gr(size, ambient): the weakly decreasing ``(k - j_k + ambient -
        size)`` over k, how far each element sits left of the final
        segment.  No entry is negative; the weight is the codimension."""
        shift = self.ambient - len(self.elements)
        return tuple(k - j + shift for k, j in enumerate(self.elements, start=1))

    def to_json(self):
        """Serialize as a sorted integer array."""
        return list(self.elements)


@dataclass(frozen=True, init=False, repr=False)
class SubsetTuple:
    """An s-tuple of subsets of common size and ambient."""

    __slots__ = ("parts",)
    parts: tuple

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("tuple must have at least one component")
        if not all(isinstance(p, Subset) for p in parts):
            raise TypeError("all components must be Subset instances")
        first = parts[0]
        for p in parts[1:]:
            if p.size != first.size or p.ambient != first.ambient:
                raise ValueError("all components must share size and ambient")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, *element_lists, ambient):
        """Convenience constructor from raw element sequences."""
        return cls(Subset(e, ambient) for e in element_lists)

    @property
    def size(self):
        return self.parts[0].size

    @property
    def ambient(self):
        return self.parts[0].ambient

    @property
    def arity(self):
        return len(self.parts)

    @property
    def mask_key(self):
        """Concatenated bit masks; the canonical sort key for tuples."""
        return tuple(p.mask for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, l):
        return self.parts[l]

    def __repr__(self):
        inner = ", ".join(str(set(p.elements)) for p in self.parts)
        return f"SubsetTuple[{inner} in [{self.ambient}]]"

    def permuted(self, perm):
        """Left action of a permutation on the s positions:
        component l of the result is component perm^{-1}(l)."""
        return SubsetTuple(perm.act(self.parts))

    def is_stable(self, perm):
        """True when the tuple is fixed by the position permutation; a
        permutation of another number of positions fixes no tuple."""
        return perm.degree == self.arity and self.permuted(perm) == self

    def to_json(self):
        return [p.to_json() for p in self.parts]


@dataclass(frozen=True, init=False, repr=False)
class Permutation:
    """A permutation of [1..s], stored by its image sequence."""

    __slots__ = ("images",)
    images: tuple

    def __init__(self, images):
        images = tuple(map(_integer, images))
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of [1..{len(images)}]: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def from_cycles(cls, cycles, s):
        images = list(range(1, s + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                images[a - 1] = b
        return cls(images)

    @classmethod
    def from_cycle_type(cls, lengths):
        """The canonical permutation with the given cycle type: consecutive
        cycles (1..l_1)(l_1+1..l_1+l_2)... in increasing length order."""
        lengths = tuple(sorted(map(_integer, lengths)))
        if any(x < 1 for x in lengths):
            raise ValueError("cycle lengths must be positive")
        s = sum(lengths)
        cycles = []
        start = 1
        for x in lengths:
            cycles.append(tuple(range(start, start + x)))
            start += x
        return cls.from_cycles(cycles, s)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, l):
        return self.images[l - 1]

    def inverse(self):
        inv = [0] * self.degree
        for l, i in enumerate(self.images, start=1):
            inv[i - 1] = l
        return Permutation(inv)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def cycles(self):
        """Disjoint cycles, each starting at its least element, sorted by
        (length, least element)."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        out.sort(key=lambda c: (len(c), c[0]))
        return out

    def cycle_type(self):
        return tuple(sorted(len(c) for c in self.cycles()))

    def act(self, seq):
        """Left action on an s-sequence: position l receives entry
        ``seq[self^{-1}(l)]``."""
        if len(seq) != self.degree:
            raise ValueError("sequence length does not match permutation degree")
        inv = self.inverse()
        return tuple(seq[inv(l) - 1] for l in range(1, self.degree + 1))


def expected_dim(tup):
    """Expected dimension of the intersection of the s Schubert varieties
    indexed by ``tup`` inside Gr(size, ambient): the Grassmannian
    dimension minus the total codimension.  May be negative."""
    d, n = tup.size, tup.ambient
    return d * (n - d) - sum(p.codim() for p in tup.parts)


@lru_cache(maxsize=None)
def all_subsets(size, ambient):
    """All subsets of the given size in [1..ambient], sorted by bit mask.

    The result is cached and shared; callers must not mutate it.
    """
    if not 1 <= size <= ambient:
        raise ValueError(f"need 1 <= size <= ambient, got ({size}, {ambient})")
    subs = [Subset(c, ambient) for c in itertools.combinations(range(1, ambient + 1), size)]
    subs.sort(key=lambda x: x.mask)
    return tuple(subs)


def stable_tuples(size, ambient, perm):
    """All tuples fixed by ``perm``, enumerated generatively: one free
    subset per cycle of the permutation, propagated along the cycle.
    Returned sorted by mask key."""
    subs = all_subsets(size, ambient)
    cycles = perm.cycles()
    out = []
    for choice in itertools.product(subs, repeat=len(cycles)):
        parts = [None] * perm.degree
        for cyc, sub in zip(cycles, choice):
            for l in cyc:
                parts[l - 1] = sub
        out.append(SubsetTuple(parts))
    out.sort(key=lambda t: t.mask_key)
    return out


def orbit_representative(tup):
    """Lexicographically least coordinate permutation, comparing the
    element sequences componentwise: the parts sorted by them."""
    return SubsetTuple(sorted(tup.parts, key=lambda p: p.elements))


def group_into_orbits(tuples):
    """Partition a collection of tuples into coordinate-permutation
    orbits.  Returns (representative, members) pairs sorted by the
    representative's element sequences."""
    by_rep = {}
    for t in tuples:
        by_rep.setdefault(orbit_representative(t), []).append(t)
    return sorted(
        by_rep.items(), key=lambda kv: tuple(p.elements for p in kv[0].parts)
    )
