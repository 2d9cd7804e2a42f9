"""Seeded inputs of every workload, made without the program.

Members are built from explicit matrices: diagonal matrices summing to
t*I for the exact families, random unitary conjugates for the float
families the witness search gets.  Non-members are families that break a
Weyl or a Lidskii inequality, checked here in exact rational arithmetic.
The same (workload, seed) always gives the same inputs.

Print the inputs of one run:
    python3 perfbench/inputs.py --workload certify --seed 3
"""

import argparse
import itertools
import json
import random
from fractions import Fraction
from math import comb

import numpy as np

# Rows of the plain rank-5 system: 2 trace, 12 chamber, then the Horn
# rows; the published count is 156.
RANK5_HORN_ROWS = range(14, 156)


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _desc(xs):
    return sorted(xs, reverse=True)


def weyl_lidskii_slacks(spectra, t):
    """Slacks of the Weyl and Lidskii inequalities of three spectra
    (weakly decreasing) of matrices A + B + C = t*I; every slack of a
    member is >= 0.  Yields (inequality, slack)."""
    r = len(spectra[0])
    a, b, c = spectra
    # Weyl: l_{i+j-1}(A+B) <= l_i(A) + l_j(B) and l_{i+j-r}(A+B) >=
    # l_i(A) + l_j(B), with l_k(A+B) = t - c_{r+1-k}
    for i, j in itertools.product(range(1, r + 1), repeat=2):
        k = r + 2 - i - j
        if 1 <= k <= r:
            yield ("weyl>=", i, j, k), a[i - 1] + b[j - 1] + c[k - 1] - t
        k = 2 * r + 1 - i - j
        if 1 <= k <= r:
            yield ("weyl<=", i, j, k), t - a[i - 1] - b[j - 1] - c[k - 1]
    # Lidskii: sum_I l_i(A+B) <= sum_I l_i(A) + sum_{j<=d} l_j(B), and
    # its dual with the d smallest entries of B
    for roles in itertools.permutations(range(3)):
        x, y, z = (spectra[p] for p in roles)
        for d in range(1, r):
            top, bottom = sum(y[:d]), sum(y[r - d:])
            for I in itertools.combinations(range(1, r + 1), d):
                sxz = sum(x[i - 1] + z[r - i] for i in I)
                yield ("lidskii>=", roles, I), sxz + top - d * t
                yield ("lidskii<=", roles, I), d * t - sxz - bottom


def violated_inequality(spectra, t):
    """Name of the first Weyl or Lidskii inequality the family breaks,
    or None."""
    for name, slack in weyl_lidskii_slacks(spectra, t):
        if slack < 0:
            return name
    return None


def _scale(spectra, t):
    return max(max(abs(x) for s in spectra for x in s), abs(t), 1)


def _frac(rng):
    return Fraction(rng.randint(-24, 24), rng.randint(1, 4))


def diagonal_member(rng, r):
    """Three diagonal matrices summing to t*I, as sorted spectra."""
    t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    a = [_frac(rng) for _ in range(r)]
    b = [_frac(rng) for _ in range(r)]
    c = [t - x - y for x, y in zip(a, b)]
    return [_desc(a), _desc(b), _desc(c)], t


def cycled_member(rng, r):
    """Three equal spectra: the union of r/3 triples summing to t, with
    the three diagonal matrices cycled within each triple."""
    t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    values = []
    for _ in range(r // 3):
        x, y = _frac(rng), _frac(rng)
        values += [x, y, t - x - y]
    spec = _desc(values)
    return [spec, list(spec), list(spec)], t


def weyl_breaking(rng, r, equal=False, margin=Fraction(0)):
    """A family with t fixed by the trace that breaks a Weyl or Lidskii
    inequality by more than ``margin`` times its scale."""
    while True:
        if equal:
            # a top entry far above the rest breaks l_1 + 2 l_r <= t
            spec = _desc(_frac(rng) for _ in range(r))
            spec[0] += 30
            spectra = [spec, list(spec), list(spec)]
        else:
            spectra = [_desc(_frac(rng) for _ in range(r)) for _ in range(3)]
        t = sum(sum(s) for s in spectra) / r
        bound = -margin * _scale(spectra, t)
        if any(slack < bound for _, slack in weyl_lidskii_slacks(spectra, t)):
            return spectra, t


def _haar(gen, r):
    z = (gen.standard_normal((r, r)) + 1j * gen.standard_normal((r, r))) / np.sqrt(2)
    q, rr = np.linalg.qr(z)
    d = np.diag(rr)
    return q * (d / np.abs(d))


def unitary_member(gen, r, margin):
    """Spectra of random Hermitian A, B and C = t*I - A - B, kept when
    every Weyl and Lidskii slack exceeds ``margin`` times the scale."""
    while True:
        a = np.sort(gen.choice(np.arange(-12, 13), r, replace=False))[::-1]
        b = np.sort(gen.choice(np.arange(-12, 13), r, replace=False))[::-1]
        t = float(gen.integers(-3, 4))
        u, v = _haar(gen, r), _haar(gen, r)
        A = (u * a) @ u.conj().T
        B = (v * b) @ v.conj().T
        c = np.linalg.eigvalsh(t * np.eye(r) - A - B)[::-1]
        spectra = [[float(x) for x in s] for s in (a, b, c)]
        worst = min(slack for _, slack in weyl_lidskii_slacks(spectra, t))
        if worst > margin * _scale(spectra, t):
            return spectra, t


# -- the inputs of each workload ---------------------------------------


def levels_inputs(seed, samples=120):
    """(d, n, part indices) of tuples whose table flags are compared with
    lr.classify; n <= 8, indices into the mask-ordered d-subsets of [n]."""
    rng = _rng("levels", seed)
    out = []
    for _ in range(samples):
        n = rng.randint(2, 8)
        d = rng.randint(1, n - 1)
        out.append((d, n, [rng.randrange(comb(n, d)) for _ in range(3)]))
    return out


def certify_inputs(seed, plain=12, equal=24, lp_rows=2):
    rng = _rng("certify", seed)
    return {
        "members7": [diagonal_member(rng, 7) for _ in range(plain)],
        "nonmembers7": [weyl_breaking(rng, 7) for _ in range(plain)],
        "members9": [cycled_member(rng, 9) for _ in range(equal)],
        "nonmembers9": [weyl_breaking(rng, 9, equal=True) for _ in range(equal)],
        "rank5_rows": sorted(rng.sample(RANK5_HORN_ROWS, lp_rows)),
    }


def witness_inputs(seed, counts=((3, 300), (4, 16))):
    """Interior members; a search's iteration count varies a lot with
    the member and the start, so the run sums many searches."""
    gen = np.random.default_rng([seed, 3])
    out = []
    for r, count in counts:
        for _ in range(count):
            spectra, t = unitary_member(gen, r, margin=0.1)
            out.append((spectra, t, int(gen.integers(1 << 30))))
    return out


def stall_inputs(seed, per_rank=2):
    rng = _rng("stall", seed)
    out = []
    for r in (3, 4):
        for _ in range(per_rank):
            spectra, t = weyl_breaking(rng, r, margin=Fraction(1, 10))
            out.append((spectra, t, rng.randrange(1 << 30)))
    return out


MAKERS = {
    "levels": levels_inputs,
    "certify": certify_inputs,
    "witness": witness_inputs,
    "stall": stall_inputs,
}


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MAKERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(_jsonable(MAKERS[args.workload](args.seed)), indent=1))


if __name__ == "__main__":
    main()
