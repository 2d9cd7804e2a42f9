"""Inequality descriptions of the eigenvalue cone and exact membership.

The cone lives in (R^r weakly decreasing)^s x R: a family of s spectra
together with a scalar t, such that s Hermitian matrices with those
spectra can sum to t times the identity.  Its description consists of the
trace equality, the chamber (ordering) inequalities, and one Horn
inequality ``sum of selected entries <= d t`` per zero-expected-dimension
intersecting tuple of each level d < r.  When the family is required to
be fixed by a coordinate permutation, the Horn rows shrink to the tuples
fixed by it and the chamber rows to one run per cycle.

A system keeps its Horn rows as index arrays.  On first use it builds
one int64 coefficient array, which decisions and LPs read, and a row-id
array per block permutation, which symmetries and stabilizers read.  The
CSV is rendered in pieces without them; row objects are built if read.

All arithmetic is exact: spectra and t are `fractions.Fraction` values,
serialized as "p/q" strings.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional

import numpy as np

from .horn import HornStore, NotSigmaStable, _fits, horn_rows, normalize_cycle_type
from .subsets import Permutation, Subset, SubsetTuple, _integer, all_subsets


# the table flag that selects each level's Horn rows (see generate_system)
LEVEL_FLAGS = {"full0": "zero_dim", "min00": "point", "all": None}


def _frac(x):
    """An exact rational with Python int parts: a numpy integer's would
    wrap around or lack ``bit_length``.  A float or bool is a TypeError, a
    string or Decimal with an exponent or zero denominator a ValueError."""
    if isinstance(x, (float, bool, np.bool_)):
        raise TypeError(f"spectra must be exact rationals, not {x!r}")
    x = str(x) if isinstance(x, Decimal) else x
    if isinstance(x, str) and "e" in x.lower():  # Fraction computes 10**exp
        raise ValueError(f"{x!r} has an exponent: write p/q or a decimal")
    try:
        x = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None
    return Fraction(int(x.numerator), int(x.denominator))


@dataclass(frozen=True, init=False, repr=False)
class SpectrumFamily:
    """s spectra of length r plus the scalar t, all exact rationals.

    Spectra are expected weakly decreasing, but a violation is a
    reportable state (a full0 system's ``decide`` names the chamber row it
    breaks), not a construction error.
    """

    __slots__ = ("spectra", "t")
    spectra: tuple
    t: Fraction

    def __init__(self, spectra, t):
        spectra = tuple(tuple(_frac(x) for x in spec) for spec in spectra)
        if not spectra:
            raise ValueError("need at least one spectrum")
        r = len(spectra[0])
        if any(len(spec) != r for spec in spectra):
            raise ValueError("all spectra must have the same length")
        if r == 0:
            raise ValueError("spectra must be nonempty")
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "t", _frac(t))

    @property
    def arity(self):
        return len(self.spectra)

    @property
    def length(self):
        return len(self.spectra[0])

    def __repr__(self):
        return f"SpectrumFamily({[[str(x) for x in s] for s in self.spectra]}, t={self.t})"

    def to_json(self):
        return {
            "spectra": [[str(x) for x in spec] for spec in self.spectra],
            "t": str(self.t),
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["spectra"], data["t"])


def shift_rescale(point, taus, c):
    """Shift each spectrum by a constant and rescale everything by a
    positive rational: spectra become ``c * (spec_l + tau_l)`` and t
    becomes ``c * (t + sum tau_l)``.  Membership in the cone is invariant
    under this family of maps."""
    c = _frac(c)
    if c <= 0:
        raise ValueError("rescale factor must be positive")
    taus = [_frac(x) for x in taus]
    if len(taus) != point.arity:
        raise ValueError("need one shift per spectrum")
    spectra = [
        [c * (x + tau) for x in spec]
        for spec, tau in zip(point.spectra, taus)
    ]
    return SpectrumFamily(spectra, c * (point.t + sum(taus)))


class HornRow(NamedTuple):
    """One Horn inequality: selected entry sum <= d*t, tagged with the
    generating tuple's provenance."""

    d: int
    tup: SubsetTuple
    sigma_stable: bool
    is_point: bool


class Constraint(NamedTuple):
    """A system row in canonical order: ``kind`` is one of trace_le,
    trace_ge, chamber, horn.  For chamber rows ``meta`` is (cycle_index,
    position); for horn rows it is the HornRow."""

    kind: str
    index: int
    meta: object

    def describe(self):
        if self.kind == "trace_le":
            return "trace sum <= r*t"
        if self.kind == "trace_ge":
            return "trace sum >= r*t"
        if self.kind == "chamber":
            c, i = self.meta
            return f"spectrum group {c + 1}: entry {i} >= entry {i + 1}"
        row = self.meta
        parts = ", ".join("{" + ",".join(map(str, p.elements)) + "}" for p in row.tup.parts)
        return f"level {row.d}: sum over ({parts}) <= {row.d}*t"


class Violation(NamedTuple):
    constraint: Constraint
    amount: Fraction


class MembershipVerdict(NamedTuple):
    is_member: bool
    violation: Optional[Violation]

    def __bool__(self):
        return self.is_member


class InequalitySystem:
    """The full constraint list describing one cone.

    Variables are the entries of one spectrum per permutation cycle plus
    t; without a symmetry restriction every spectrum is its own cycle.
    The advertised ``count`` follows the convention that the trace
    equality contributes two inequalities and the chamber rows are
    included.  ``levels`` holds the Horn rows in order as (d, rows,
    point) triples: (K, s) positions in all_subsets(d, r), in the dtype
    of the tables' rows (a list becomes intp), and K flags.
    """

    def __init__(self, r, s, sigma, level, levels):
        self.r = r
        self.s = s
        self.sigma = normalize_cycle_type(sigma, s)
        self.level = level
        self.cycles = tuple(
            Permutation.from_cycle_type(self.sigma or (1,) * s).cycles())
        self.lengths = tuple(len(cyc) for cyc in self.cycles)
        self.levels = tuple((d, np.asarray(rows, getattr(rows, "dtype", np.intp))
                             .reshape(len(point), s), np.asarray(point, dtype=bool))
                            for d, rows, point in levels)
        # at rank 2 (plain or all-ones cycle type, three summands) the
        # reduced system drops the chamber rows: the trace equality plus
        # the Horn rows imply them
        self._chamber_on = not (
            level == "min00" and r == 2 and s == 3
            and self.sigma in (None, (1,) * s)
        )

    @property
    def chamber_count(self):
        return len(self.cycles) * (self.r - 1) if self._chamber_on else 0

    @property
    def count(self):
        return 2 + self.chamber_count + sum(len(p) for _, _, p in self.levels)

    @property
    def counts(self):
        return {"total": self.count, "equality": 2,
                "chamber": self.chamber_count,
                "horn": self.count - 2 - self.chamber_count}

    def kind(self, k):
        """Row k's kind: trace_le, trace_ge, chamber or horn.  ValueError
        unless ``k`` is an integer, IndexError unless a row."""
        k = _integer(k)
        if not 0 <= k < self.count:
            raise IndexError(f"row {k} of a system of {self.count} rows")
        return "horn" if k >= 2 + self.chamber_count else \
            "chamber" if k >= 2 else ("trace_le", "trace_ge")[k]

    def constraint(self, k):
        """Row k in canonical order, built alone after the checks of
        ``kind``: the two trace directions, chamber rows by (cycle,
        position), Horn rows by (level, mask key)."""
        kind, k = self.kind(k), int(k)
        if kind == "chamber":
            c, i = divmod(k - 2, self.r - 1)
            return Constraint(kind, k, (c, i + 1))
        if kind != "horn":
            return Constraint(kind, k, None)
        j = k - 2 - self.chamber_count
        for d, rows, point in self.levels:
            if j < len(rows):
                tup = SubsetTuple(all_subsets(d, self.r)[i] for i in rows[j].tolist())
                return Constraint("horn", k, HornRow(
                    d, tup, self.sigma is not None, bool(point[j])))
            j -= len(rows)

    def constraints(self):
        """All rows in canonical order."""
        return [self.constraint(k) for k in range(self.count)]

    @cached_property
    def horn(self):
        """The HornRow of every Horn row, in order."""
        return tuple(con.meta for con in self.constraints()[2 + self.chamber_count:])

    # -- the coefficient matrix -----------------------------------------

    @cached_property
    def matrix(self):
        """Exact integer coefficients as one read-only ``int64`` array of
        shape (count, cycles * r + 1), one row per constraint in canonical
        order: row a means ``a . x <= 0``, where x holds the spectrum of
        each cycle (columns ``c*r`` to ``c*r + r - 1``) followed by t; the
        Horn rows of each level are ``horn.horn_rows``."""
        matrix = np.vstack([self._leading_rows(), *(
            horn_rows(d, rows, self.r, self.lengths) for d, rows, _ in self.levels)])
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def _row_ids(self):
        """For each block permutation p, the id of every row's image under
        p (block c of the image is block p[c], t stays): the first index
        of an equal row, -1 if none."""
        M, r = self.matrix, self.r
        perms = [*itertools.permutations(range(len(self.cycles)))]
        images = (M.take([b * r + i for b in p for i in range(r)] + [len(M.T) - 1], axis=1)
                  .view((np.void, M[0].nbytes)).ravel().tolist() for p in perms)
        identity = next(images)
        first = {key: k for k, key in reversed([*enumerate(identity)])}
        return {p: np.array([first.get(key, -1) for key in image])
                for p, image in zip(perms, itertools.chain([identity], images))}

    @cached_property
    def symmetries(self):
        """The ``stabilizer`` of every row among all block permutations."""
        return self.stabilizer(slice(None), tuple(self._row_ids))

    def stabilizer(self, rows, group):
        """The permutations p of ``group`` (identity first), in order, that
        map the multiset of the rows that ``rows`` picks (index list, slice
        or boolean mask) onto itself: their sorted ids under p are those
        under the identity.  The trace row weighs a block by its length."""
        ids = self._row_ids
        ordered = sorted(ids[group[0]][rows].tolist())
        return tuple(p for p in group if sorted(ids[p][rows].tolist()) == ordered)

    @cached_property
    def orbits(self):
        """For each row, the first row of its orbit under ``symmetries``."""
        return np.min([self._row_ids[p] for p in self.symmetries], axis=0)

    def _leading_rows(self):
        """The matrix rows before the Horn rows: the trace row weighs each
        cycle's entries by its length, then its negation; chamber row
        (c, i) is entry i + 1 minus entry i of cycle c; t is not read."""
        r = self.r
        trace = [w for w in self.lengths for _ in range(r)] + [-r]
        rows = [trace, [-w for w in trace]]
        for j in range(self.chamber_count):
            rows.append([0] * len(trace))
            col = j + j // (r - 1)  # row c * (r - 1) + i reads column c * r + i
            rows[-1][col:col + 2] = -1, 1
        return np.array(rows, np.int64)

    # -- membership -----------------------------------------------------

    def excesses(self, point):
        """Exact excess ``a . x`` of every row at the point, in canonical
        order (positive means violated), as ``(numerators, L)``: L is the
        one common denominator of the point's entries, and the numerators
        are a 1-D array, ``int64`` while every ``|L x|`` is below 2**b,
        b = 62 - bit_length((s + 1) * r), and ``object`` (Python ints)
        past it."""
        if point.arity != self.s or point.length != self.r:
            raise ValueError(
                f"point shape ({point.arity}, {point.length}) does not match "
                f"system shape ({self.s}, {self.r})"
            )
        if any(point.spectra[i - 1] != point.spectra[cyc[0] - 1]
               for cyc in self.cycles for i in cyc[1:]):
            raise NotSigmaStable("the restricted system only decides families "
                                 f"fixed by the cycle type {self.sigma}")
        # a stable family repeats its spectrum along each cycle, so the
        # cycle's first spectrum stands for all of them
        x = [v for cyc in self.cycles for v in point.spectra[min(cyc) - 1]]
        x.append(point.t)
        denom = lcm(*(v.denominator for v in x))
        cleared = [v.numerator * (denom // v.denominator) for v in x]
        # L x in signed base-2**b digits: a row's absolute entries sum to
        # at most (s + 1) * r, so one digit's int64 product cannot wrap
        b = 62 - ((self.s + 1) * self.r).bit_length()
        mask, top = (1 << b) - 1, max(map(abs, cleared)).bit_length()
        products = [self.matrix @ np.array(
            [v >> shift & mask if v >= 0 else -(-v >> shift & mask) for v in cleared],
            dtype=np.int64) for shift in range(0, top or 1, b)]
        if len(products) == 1:
            return products[0], denom
        return sum(p.astype(object) << i * b
                   for i, p in enumerate(products)), denom

    def decide(self, point):
        """Exact membership verdict; a non-member reports the first
        violated constraint in canonical order."""
        # the min00 convention at r = 2 drops the chamber rows exactly
        # because the trace equality and the Horn rows imply them, so
        # checking the remaining rows still decides the cone
        numerators, denom = self.excesses(point)
        for k in np.flatnonzero(numerators > 0)[:1].tolist():
            violation = Violation(self.constraint(k), Fraction(int(numerators[k]), denom))
            return MembershipVerdict(False, violation)
        return MembershipVerdict(True, None)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "schema": 1,
            "r": self.r,
            "s": self.s,
            "sigma": list(self.sigma) if self.sigma is not None else None,
            "level": self.level,
            "counts": self.counts,
            "horn": [
                {
                    "d": row.d,
                    "tuple": row.tup.to_json(),
                    "sigma_stable": row.sigma_stable,
                    "is00": row.is_point,
                }
                for row in self.horn
            ],
        }

    @classmethod
    def from_json(cls, data):
        """The system ``to_json`` wrote.  ValueError unless r, s and each
        d are integers, its levels run once each in increasing order below
        r, every row is fixed by the cycle type, its ``is00`` and
        ``sigma_stable`` are JSON booleans, the latter true exactly when
        sigma is given, and the level name and counts are the ones it has."""
        if data.get("schema") != 1:
            raise ValueError("unsupported system schema")
        r, s, level = _integer(data["r"]), _integer(data["s"]), data["level"]
        if level not in LEVEL_FLAGS:
            raise ValueError(f"unknown level {level!r}")
        perm = Permutation.from_cycle_type(
            normalize_cycle_type(data["sigma"], s) or (1,) * s)
        levels = []
        for d, group in itertools.groupby(data["horn"], key=lambda h: h["d"]):
            d = _integer(d)
            if not (levels[-1][0] if levels else 0) < d < r:
                raise ValueError(f"level-{d} rows out of place: each level "
                                 f"runs once, in increasing order below {r}")
            group = list(group)
            tuples = [SubsetTuple(Subset(e, r) for e in h["tuple"])
                      for h in group]
            if any((t.size, t.arity) != (d, s) for t in tuples):
                raise ValueError(f"a level-{d} row has another shape")
            if not all(t.is_stable(perm) for t in tuples):
                raise ValueError(f"a level-{d} row is not fixed by the "
                                 "cycle type")
            if any(type(h["is00"]) is not bool
                   or h["sigma_stable"] is not (data["sigma"] is not None)
                   for h in group):
                raise ValueError(f"a level-{d} row's is00 or sigma_stable is "
                                 "not the boolean the system gives it")
            levels.append((d, [[p.rank() for p in t] for t in tuples],
                           [h["is00"] for h in group]))
        system = cls(r, s, data["sigma"], level, levels)
        if data.get("counts") != system.counts:
            raise ValueError(f"counts {data.get('counts')} do not match the "
                             f"rows: {system.counts}")
        return system

    def to_csv(self):
        """The text of ``csv_pieces``, grown in place, not joined from a list."""
        text = ""
        for piece in self.csv_pieces():
            text += piece
        return text

    def csv_pieces(self):
        """Yield the CSV text, one row per constraint and its coefficients:
        the header and leading rows, then a piece per 1,024 Horn rows from
        ``horn.horn_rows`` (not the matrix), each one join of texts looked up
        in tables of the few values entries take and of each level's subsets."""
        # a Horn entry is a cycle's count, at most s, or -d > -r
        b = max(self.r, self.s)
        cells = np.array([f",{v}" for v in range(-b, b + 1)], dtype=object)
        names = [f"L{min(cyc)}[{j}]" for cyc in self.cycles for j in range(1, self.r + 1)]
        kinds = ["trace_le", "trace_ge"] + ["chamber"] * self.chamber_count
        yield ",".join(["kind", "d", "tuple", *names, "t"]) + "\n" + "".join(
            f"{k},,,{','.join(map(str, a))}\n" for k, a in zip(kinds, self._leading_rows().tolist()))
        for d, rows, _ in self.levels:
            # csv quotes the tuple text as it holds a comma: unless s = d = 1
            q = '"' * (self.s * d > 1)
            js = np.array([json.dumps(x.to_json()) for x in all_subsets(d, self.r)], object)
            tables = [f"horn,{d},{q}[" + js] + [", " + js] * (self.s - 1)
            tables[-1] = tables[-1] + f"]{q}"
            for chunk in np.split(rows, range(1024, len(rows), 1024)):
                yield "".join(np.column_stack(
                    [*(t[i] for t, i in zip(tables, chunk.T)),
                     cells[horn_rows(d, chunk, self.r, self.lengths) + b],
                     np.full(len(chunk), "\n", dtype=object)]).ravel().tolist())


def generate_system(r, s=3, sigma=None, level="full0", store=None):
    """Build the inequality system for the rank-r cone.

    ``level`` selects the Horn rows: "full0" uses the intersecting tuples
    of expected dimension zero of the levels below r (the default inductive
    description), "min00" only those whose Schubert product is the point
    class (the reduced description; at r = 2, s = 3 the chamber rows are
    dropped as well since the Horn rows imply them), and "all" every
    intersecting tuple (valid but heavily redundant).  The store builds
    only the levels (d, r) and those they read.  ValueError unless r >= 1
    and s are integers (numpy ones too, bools not), and before any level
    is built unless C(r, r // 2) <= 65536 (r <= 18)."""
    if level not in LEVEL_FLAGS:
        raise ValueError(f"unknown level {level!r}")
    r, s = _integer(r), _integer(s)
    if r < 1:
        raise ValueError(f"rank {r} is not positive")
    _fits(r // 2, r)  # the largest level the system reads, before any build
    sigma = normalize_cycle_type(sigma, s)
    if store is None:
        store = HornStore(arity=s)
    elif store.arity != s:
        raise ValueError(f"a store of arity {store.arity} has no levels "
                         f"for s={s}")
    levels = [(d, *store.table(d, r, sigma).select(LEVEL_FLAGS[level]))
              for d in range(1, r)]
    return InequalitySystem(r, s, sigma, level, levels)


def member(point, system):
    """Exact membership of a spectrum family in the cone the system
    describes."""
    return system.decide(point)

