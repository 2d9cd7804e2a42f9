"""Inequality descriptions of the eigenvalue cone and exact membership.

The cone lives in (R^r weakly decreasing)^s x R: a family of s spectra
together with a scalar t, such that s Hermitian matrices with those
spectra can sum to t times the identity.  Its description consists of the
trace equality, the chamber (ordering) inequalities, and one Horn
inequality ``sum of selected entries <= d t`` per zero-expected-dimension
intersecting tuple of each level d < r.  When the family is required to
be fixed by a coordinate permutation, the Horn rows shrink to the tuples
fixed by it and the chamber rows to one run per cycle.

Each system is one exact integer matrix, built on first use from its
constraint list; membership decisions, the CSV output and the redundancy
LPs all read it.

All arithmetic is exact: spectra and t are `fractions.Fraction` values,
serialized as "p/q" strings.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import NamedTuple, Optional

from .horn import HornStore, NotSigmaStable, normalize_cycle_type
from .subsets import Permutation, Subset, SubsetTuple


def _frac(x):
    if isinstance(x, float):
        raise TypeError("spectra must be exact rationals, not floats")
    return Fraction(x)


class SpectrumFamily:
    """s spectra of length r plus the scalar t, all exact rationals.

    Spectra are expected weakly decreasing, but a violation is a
    reportable state (see :meth:`chamber_violations`), not a construction
    error.
    """

    __slots__ = ("spectra", "t")

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

    def __setattr__(self, name, value):
        raise AttributeError("SpectrumFamily is immutable")

    @property
    def arity(self):
        return len(self.spectra)

    @property
    def length(self):
        return len(self.spectra[0])

    @property
    def total(self):
        """Sum of every entry of every spectrum."""
        return sum(sum(spec) for spec in self.spectra)

    def chamber_violations(self):
        """(l, i) pairs where spectrum l increases from position i to i+1
        (1-indexed)."""
        out = []
        for l, spec in enumerate(self.spectra, start=1):
            for i in range(len(spec) - 1):
                if spec[i] < spec[i + 1]:
                    out.append((l, i + 1))
        return out

    def is_stable(self, perm):
        return perm.act(self.spectra) == self.spectra

    def permuted(self, perm):
        return SpectrumFamily(perm.act(self.spectra), self.t)

    def __eq__(self, other):
        return (
            isinstance(other, SpectrumFamily)
            and self.spectra == other.spectra
            and self.t == other.t
        )

    def __hash__(self):
        return hash((self.spectra, self.t))

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
    included.
    """

    def __init__(self, r, s, sigma, level, horn_rows):
        self.r = r
        self.s = s
        self.sigma = normalize_cycle_type(sigma, s)
        self.level = level
        if self.sigma is None:
            self.cycles = tuple((l,) for l in range(1, s + 1))
        else:
            self.cycles = tuple(
                Permutation.from_cycle_type(self.sigma).cycles()
            )
        self.horn = tuple(horn_rows)
        # at rank 2 (plain, three summands) the reduced system drops the
        # chamber rows: the trace equality plus the Horn rows imply them
        self._chamber_on = not (
            level == "min00" and r == 2 and s == 3 and self.sigma is None
        )

    @property
    def chamber_count(self):
        return len(self.cycles) * (self.r - 1) if self._chamber_on else 0

    @property
    def count(self):
        return 2 + self.chamber_count + len(self.horn)

    @property
    def num_vars(self):
        return len(self.cycles) * self.r + 1

    def constraints(self):
        """All rows in canonical order: the two trace directions, the
        chamber rows by (cycle, position), then the Horn rows by
        (level, mask key)."""
        rows = [Constraint("trace_le", 0, None), Constraint("trace_ge", 1, None)]
        k = 2
        if self._chamber_on:
            for c in range(len(self.cycles)):
                for i in range(1, self.r):
                    rows.append(Constraint("chamber", k, (c, i)))
                    k += 1
        for row in self.horn:
            rows.append(Constraint("horn", k, row))
            k += 1
        return rows

    # -- the coefficient matrix -----------------------------------------

    def _variable_names(self):
        names = []
        for cyc in self.cycles:
            rep = min(cyc)
            names.extend(f"L{rep}[{j}]" for j in range(1, self.r + 1))
        names.append("t")
        return names

    @cached_property
    def matrix(self):
        """Exact integer coefficients, one row per constraint in canonical
        order: row a means ``a . x <= 0``, where x holds the spectrum of
        each cycle (columns ``c*r`` to ``c*r + r - 1``) followed by t."""
        r = self.r
        cycle_of = {l: c for c, cyc in enumerate(self.cycles) for l in cyc}
        weights = [len(cyc) for cyc in self.cycles for _ in range(r)]
        rows = []
        for con in self.constraints():
            if con.kind == "trace_le":
                rows.append((*weights, -r))
                continue
            if con.kind == "trace_ge":
                rows.append((*(-w for w in weights), r))
                continue
            vec = [0] * self.num_vars
            if con.kind == "chamber":
                c, i = con.meta
                vec[c * r + i] = 1
                vec[c * r + i - 1] = -1
            else:
                row = con.meta
                for l, part in enumerate(row.tup.parts, start=1):
                    for j in part.elements:
                        vec[cycle_of[l] * r + j - 1] += 1
                vec[-1] = -row.d
            rows.append(tuple(vec))
        return tuple(rows)

    # -- membership -----------------------------------------------------

    def excesses(self, point):
        """Exact excess ``a . x`` of every row at the point, in canonical
        order (positive means violated), as ``(numerators, L)``: the
        numerators are Python ints over the one common denominator L of
        the point's entries, yielded lazily."""
        if point.arity != self.s or point.length != self.r:
            raise ValueError(
                f"point shape ({point.arity}, {point.length}) does not match "
                f"system shape ({self.s}, {self.r})"
            )
        if self.sigma is not None:
            perm = Permutation.from_cycle_type(self.sigma)
            if not point.is_stable(perm):
                raise NotSigmaStable(
                    "the restricted system only decides families fixed by "
                    f"the cycle type {self.sigma}"
                )
        # a stable family repeats its spectrum along each cycle, so the
        # cycle's first spectrum stands for all of them
        x = [v for cyc in self.cycles for v in point.spectra[min(cyc) - 1]]
        x.append(point.t)
        denom = lcm(*(v.denominator for v in x))
        cleared = [v.numerator * (denom // v.denominator) for v in x]
        return (sum(map(mul, row, cleared)) for row in self.matrix), denom

    def decide(self, point):
        """Exact membership verdict; a non-member reports the first
        violated constraint in canonical order."""
        # the min00 convention at r = 2 drops the chamber rows exactly
        # because the trace equality and the Horn rows imply them, so
        # scanning the remaining rows still decides the cone
        numerators, denom = self.excesses(point)
        for k, num in enumerate(numerators):
            if num > 0:
                violation = Violation(self.constraints()[k], Fraction(num, denom))
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
            "counts": {
                "total": self.count,
                "equality": 2,
                "chamber": self.chamber_count,
                "horn": len(self.horn),
            },
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
        if data.get("schema") != 1:
            raise ValueError("unsupported system schema")
        rows = [
            HornRow(
                h["d"],
                SubsetTuple(Subset(e, data["r"]) for e in h["tuple"]),
                h["sigma_stable"],
                h["is00"],
            )
            for h in data["horn"]
        ]
        return cls(data["r"], data["s"], data["sigma"], data["level"], rows)

    def to_csv(self):
        """One row per constraint with the coefficient columns."""
        names = self._variable_names()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "d", "tuple", *names])
        for con, vec in zip(self.constraints(), self.matrix):
            if con.kind == "horn":
                d = con.meta.d
                tup = json.dumps(con.meta.tup.to_json())
            else:
                d = ""
                tup = ""
            writer.writerow([con.kind, d, tup, *[str(x) for x in vec]])
        return buf.getvalue()


def generate_system(r, s=3, sigma=None, level="full0", store=None):
    """Build the inequality system for the rank-r cone.

    ``level`` selects the Horn rows: "full0" uses every
    zero-expected-dimension intersecting tuple of the levels below r (the
    default inductive description), "min00" only those whose Schubert
    product is the point class (the reduced description; at r = 2, s = 3
    the chamber rows are dropped as well since the Horn rows imply them),
    and "all" every intersecting tuple regardless of expected dimension
    (valid but heavily redundant).
    """
    table_flag = {"full0": "zero_dim", "min00": "point", "all": None}
    if level not in table_flag:
        raise ValueError(f"unknown level {level!r}")
    if r < 1:
        raise ValueError(f"rank {r} is not positive")
    sigma = normalize_cycle_type(sigma, s)
    if store is None:
        store = HornStore(arity=s)
    elif store.arity != s:
        raise ValueError(f"a store of arity {store.arity} has no levels "
                         f"for s={s}")
    # every level (d, n) with d < r and n <= r, not only the (d, r) the
    # rows come from: readers of a cache directory expect them all
    store.build_through(r - 1, r, sigma)
    flag = table_flag[level]
    rows = [HornRow(d, tup, sigma is not None, is_point)
            for d in range(1, r)
            for tup, is_point in store.table(d, r, sigma).select(flag)]
    return InequalitySystem(r, s, sigma, level, rows)


def member(point, system):
    """Exact membership of a spectrum family in the cone the system
    describes."""
    return system.decide(point)


def lr_membership(lams, store=None, sigma=None):
    """Positivity of the invariant-vector dimension for a family of
    integral highest weights: membership of (lams, 0) in the cone.

    Entries must be weakly decreasing integers (negative entries are
    fine).  Equivalent to the corresponding multi-Littlewood-Richardson
    coefficient being positive."""
    lams = [tuple(int(x) for x in lam) for lam in lams]
    for lam in lams:
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"weights must be weakly decreasing: {lam}")
    r = len(lams[0])
    system = generate_system(r, s=len(lams), sigma=sigma, store=store)
    return bool(member(SpectrumFamily(lams, 0), system))
