"""Self-test of the output checks: each check must pass the right answer
and reject one deliberately wrong answer.

    python3 perfbench/selftest.py        (from the root of a checkout)

Takes a few seconds.  Exits 1 if any check fails either way.
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from horncone import cone, lp, lr, witness  # noqa: E402
from horncone.cone import SpectrumFamily  # noqa: E402
from horncone.horn import HornStore  # noqa: E402
from horncone.horn import IntersectingCount  # noqa: E402
from horncone.subsets import SubsetTuple, all_subsets  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


class FakeTable:
    """A level table with chosen members and flags."""

    def __init__(self, members, zero_dim, point):
        self.members, self.zero_dim, self.point = members, zero_dim, point

    def __len__(self):
        return len(self.members)

    def flags(self, tup):
        if tup not in self.members:
            return (False, False, False)
        i = self.members.index(tup)
        return (True, self.zero_dim[i], self.point[i])


def copy(table, drop=None, flip_point=None):
    rows = list(zip(table.members, table.zero_dim, table.point))
    if drop is not None:
        del rows[drop]
    if flip_point is not None:
        m, z, p = rows[flip_point]
        rows[flip_point] = (m, z, not p)
    return FakeTable(*(list(x) for x in zip(*rows)))


def main():
    results = []

    def expect(name, right, wrong):
        ok = not right and bool(wrong)
        results.append(ok)
        detail = wrong[0] if wrong else "wrong answer accepted"
        if right:
            detail = f"right answer rejected: {right[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    # -- levels --------------------------------------------------------
    plain_rows = [(r, c, m) for r, c, m in
                  zip(range(1, 8), checks.PLAIN_COUNTS, checks.REDUCED_COUNTS + [2062])]
    sigma_rows = [(r, c, c) for r, c in zip(range(1, 8), checks.SIGMA_COUNTS)]
    bad_rows = plain_rows[:5] + [(6, 538, 538)] + plain_rows[6:]
    expect("published counts",
           checks.check_published_counts(plain_rows, sigma_rows),
           checks.check_published_counts(bad_rows, sigma_rows))

    expect("census", checks.check_census(IntersectingCount(718738, 49, 0)),
           checks.check_census(IntersectingCount(718738, 48, 0)))

    store = HornStore(arity=3)
    store.build_through(4, 5)
    store.build_through(4, 5, sigma=(3,))
    plain = {k[:2]: t for k, t in store.tables.items() if k[2] is None}
    sigma = {k[:2]: t for k, t in store.tables.items() if k[2] is not None}
    # (2,4) member {1,4},{2,4},{2,4}: dropping it leaves its permutations
    t24 = plain[(2, 4)]
    drop = t24.members.index(SubsetTuple.of([1, 4], [2, 4], [2, 4], ambient=4))
    expect("S_3 invariance", checks.check_s3_invariance(plain),
           checks.check_s3_invariance({**plain, (2, 4): copy(t24, drop=drop)}))
    expect("Grassmann duality", checks.check_duality(plain),
           checks.check_duality({**plain, (1, 4): copy(plain[(1, 4)], drop=0)}))
    s35 = sigma[(3, 5)]
    expect("sigma = all-equal plain members",
           checks.check_sigma_is_diagonal(plain, sigma),
           checks.check_sigma_is_diagonal(plain, {**sigma, (3, 5): copy(s35, flip_point=0)}))
    expect("warm = cold tables", checks.check_same_tables(store.tables, store.tables),
           checks.check_same_tables({**store.tables, (2, 4, None): copy(t24, flip_point=3)},
                                    store.tables))

    s4 = cone.generate_system(4, 3, None, "full0", store)
    text = s4.to_csv()
    expect("CSV row count", checks.check_csv_rows(text, s4.count, 4),
           checks.check_csv_rows(text.rsplit("\n", 2)[0] + "\n", s4.count, 4))

    tuples = [((d, n), SubsetTuple(all_subsets(d, n)[i] for i in idx))
              for d, n, idx in inputs.levels_inputs(1) if n <= 5]
    sample = tuples + [((2, 4), t24.members[5])]
    expect("LR sample", checks.check_lr_sample(plain, sample, lr.classify),
           checks.check_lr_sample({**plain, (2, 4): copy(t24, flip_point=5)},
                                  sample, lr.classify))

    # -- certify -------------------------------------------------------
    rng = random.Random(1)
    def each(check, *cases):
        return [e for case in cases for e in check(*case)]

    families = [inputs.diagonal_member(rng, 4) for _ in range(5)]
    cases = [(s4, sp, t, cone.member(SpectrumFamily(sp, t), s4), True)
             for sp, t in families]
    expect("member decisions", each(checks.check_decision, *cases),
           each(checks.check_decision, *[c[:4] + (False,) for c in cases]))
    breaking = [inputs.weyl_breaking(rng, 4) for _ in range(5)]
    cases = [(s4, sp, t, cone.member(SpectrumFamily(sp, t), s4), False)
             for sp, t in breaking]
    v = cases[0][3]
    wrong = v._replace(violation=v.violation._replace(amount=v.violation.amount + 1))
    expect("non-member decisions", each(checks.check_decision, *cases),
           checks.check_decision(s4, *breaking[0], wrong, False))

    rows = [lp.is_redundant(s4, i) for i in (0, 5, 20, 40)]
    halved = rows[0]._replace(optimum=rows[0].optimum / 2)
    expect("LP verdict vs HiGHS",
           each(checks.check_lp_verdict, *[(s4, v, False, linprog) for v in rows]),
           checks.check_lp_verdict(s4, halved, False, linprog))
    redundant = rows[0]._replace(essential=False, optimum=Fraction(0))
    expect("KTW essential rows",
           each(checks.check_essential, *[("rank 4", v) for v in rows]),
           checks.check_essential("rank 4", redundant))

    s6 = cone.generate_system(6, 3, (3,), "full0", HornStore(arity=3))
    report = lp.redundancy_report(s6, fix_t_zero=True)
    star = next(v for v in report.verdicts if not v.essential)
    expect("sigma rank-6 slice",
           each(checks.check_sigma6_slice, *[(s6, v) for v in report.verdicts]),
           checks.check_sigma6_slice(
               s6, star._replace(essential=True, optimum=Fraction(1))))

    # -- witness and stall ---------------------------------------------
    spectra, t, seed = inputs.witness_inputs(1, counts=((3, 1),))[0]
    res = witness.find_witness(spectra, t, seed=seed)
    bent = res._replace(matrices=(res.matrices[0] + 1e-4 * np.eye(3),) + res.matrices[1:])
    expect("member witness", checks.check_member_witness(res, spectra, t),
           checks.check_member_witness(bent, spectra, t))
    spectra, t, seed = inputs.stall_inputs(1)[0]
    res = witness.find_witness(SpectrumFamily(spectra, t), seed=seed, restarts=2)
    expect("stalled non-member", checks.check_stalled(res, 2),
           checks.check_stalled(res._replace(converged=True), 2))

    # -- inputs: members pass every Weyl/Lidskii inequality, and a family
    # that breaks one is never accepted by the cone description
    bad = []
    for r in (3, 4, 5):
        system = cone.generate_system(r, 3, None, "full0", store)
        for _ in range(100):
            if inputs.violated_inequality(*inputs.diagonal_member(rng, r)):
                bad.append(f"rank {r}: a member breaks Weyl/Lidskii")
            if cone.member(SpectrumFamily(*inputs.weyl_breaking(rng, r)), system):
                bad.append(f"rank {r}: a certified non-member is accepted")
    results.append(not bad)
    print(f"{'FAIL' if bad else 'ok  '} Weyl/Lidskii inputs agree with the "
          f"cone on 300 members and 300 non-members", *bad[:1])

    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
