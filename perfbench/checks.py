"""Output checks, run after the timed phase and never timed.

Each check returns a list of error strings (empty when the output is
right).  They compare against published values, against properties the
method must have, and against independent computations: exact rational
arithmetic written here, ``scipy.optimize.linprog`` (HiGHS) for the LPs
and ``numpy.linalg.eigh`` for witnesses.  None compares against a stored
copy of the program's own output.
"""

import csv
import io
import itertools

import numpy as np

# Published values (three summands): inequality counts by rank, the
# reduced counts, the counts for three equal spectra, and the census of
# Subsets(5, 10, 3): intersecting, fixed by a 3-cycle, fixed and zero-dim.
PLAIN_COUNTS = [2, 8, 20, 52, 156, 539, 2082]
REDUCED_COUNTS = [2, 5, 20, 52, 156, 538]
SIGMA_COUNTS = [2, 3, 4, 7, 10, 10, 18]
CENSUS_5_10 = (718738, 49, 0)


# -- levels ---------------------------------------------------------------


def parse_count_table(text):
    """Rows of ``horncone tables`` output as integer tuples."""
    lines = text.strip().splitlines()
    return [tuple(int(x) for x in line.split()) for line in lines[1:]]


def check_published_counts(plain_rows, sigma_rows):
    errors = []
    got = {
        "plain": [row[1] for row in plain_rows][:len(PLAIN_COUNTS)],
        "reduced": [row[2] for row in plain_rows][:len(REDUCED_COUNTS)],
        "sigma": [row[1] for row in sigma_rows][:len(SIGMA_COUNTS)],
    }
    want = {"plain": PLAIN_COUNTS, "reduced": REDUCED_COUNTS,
            "sigma": SIGMA_COUNTS}
    for key in want:
        if got[key] != want[key]:
            errors.append(f"{key} counts {got[key]} != published {want[key]}")
    return errors


def check_census(count):
    got = (count.total, count.diagonal, count.diagonal_zero_dim)
    if got != CENSUS_5_10:
        return [f"census (5,10) {got} != published {CENSUS_5_10}"]
    return []


def check_s3_invariance(tables):
    """Every plain level is closed under permuting the three parts."""
    errors = []
    for key, table in tables.items():
        keys = {t.mask_key for t in table.members}
        for k in keys:
            if any(p not in keys for p in itertools.permutations(k)):
                errors.append(f"level {key} not closed under S_3 at {k}")
                break
    return errors


def check_duality(tables):
    """Grassmann duality: |(d, n)| = |(n - d, n)|."""
    errors = []
    for (d, n), table in tables.items():
        dual = tables.get((n - d, n))
        if dual is not None and len(dual) != len(table):
            errors.append(f"|({d},{n})| = {len(table)} but "
                          f"|({n - d},{n})| = {len(dual)}")
    return errors


def _flag_rows(table):
    return [(t.mask_key, z, p)
            for t, z, p in zip(table.members, table.zero_dim, table.point)]


def check_sigma_is_diagonal(plain, sigma):
    """Each table for three equal spectra is the all-equal part of the
    plain table, flags included."""
    errors = []
    for key, table in sigma.items():
        if key not in plain:
            continue
        want = [row for row in _flag_rows(plain[key])
                if len(set(row[0])) == 1]
        if _flag_rows(table) != want:
            errors.append(f"sigma level {key} differs from the all-equal "
                          "members of the plain level")
    return errors


def check_same_tables(warm, cold):
    """Tables read back from the cache equal freshly computed ones."""
    errors = []
    for key, table in cold.items():
        if key not in warm or _flag_rows(warm[key]) != _flag_rows(table):
            errors.append(f"cached level {key} differs from a cold build")
    return errors


def check_csv_rows(text, rows, r):
    """The system CSV parses back to ``rows`` rows of 3 + 3r + 1 cells."""
    parsed = list(csv.reader(io.StringIO(text)))
    body = parsed[1:]
    errors = []
    if len(body) != rows:
        errors.append(f"CSV has {len(body)} rows, expected {rows}")
    width = 3 + 3 * r + 1
    if any(len(row) != width for row in parsed):
        errors.append(f"CSV rows are not all {width} cells wide")
    return errors


def check_lr_sample(tables, tuples, classify):
    """Table flags of sampled tuples agree with the LR classification."""
    errors = []
    for key, tup in tuples:
        got = tables[key].flags(tup)
        cls = classify(tup)
        want = (cls.is_intersecting, cls.is_zero_dim, cls.is_point)
        if got != want:
            errors.append(f"{key} {tup!r}: table {got} but LR {want}")
    return errors


# -- certify --------------------------------------------------------------


def excess(system, constraint, spectra, t):
    """The row's excess at an exact family, recomputed here; positive
    means the row is violated."""
    r = system.r
    kind = constraint.kind
    if kind in ("trace_le", "trace_ge"):
        total = sum(sum(s) for s in spectra) - r * t
        return total if kind == "trace_le" else -total
    if kind == "chamber":
        c, i = constraint.meta
        spec = spectra[min(system.cycles[c]) - 1]
        return spec[i] - spec[i - 1]
    row = constraint.meta
    chosen = sum(spec[j - 1] for part, spec in zip(row.tup.parts, spectra)
                 for j in part.elements)
    return chosen - row.d * t


def check_decision(system, spectra, t, verdict, member):
    """A member by construction must be accepted; a certified non-member
    rejected, with the reported excess of the violated row confirmed."""
    if verdict.is_member != member:
        return [f"rank {system.r}: member={verdict.is_member}, "
                f"expected {member} for t={t}"]
    if not member:
        con, amount = verdict.violation
        if amount <= 0 or excess(system, con, spectra, t) != amount:
            return [f"rank {system.r}: violation of row {con.index} "
                    f"misreported ({amount})"]
    return []


def row_matrix(system, fix_t_zero):
    """Coefficient rows ``a . x <= 0`` of the system, built here from its
    constraint list: each cycle's spectrum, then t."""
    r, cycles = system.r, system.cycles
    cycle_of = {l: c for c, cyc in enumerate(cycles) for l in cyc}
    rows = []
    for con in system.constraints():
        a = np.zeros(len(cycles) * r + 1)
        if con.kind in ("trace_le", "trace_ge"):
            sign = 1 if con.kind == "trace_le" else -1
            for c, cyc in enumerate(cycles):
                a[c * r:(c + 1) * r] = sign * len(cyc)
            a[-1] = -sign * r
        elif con.kind == "chamber":
            c, i = con.meta
            a[c * r + i] = 1
            a[c * r + i - 1] = -1
        else:
            for l, part in enumerate(con.meta.tup.parts, start=1):
                for j in part.elements:
                    a[cycle_of[l] * r + j - 1] += 1
            a[-1] = -con.meta.d
        rows.append(a[:-1] if fix_t_zero else a)
    return np.array(rows)


def check_lp_verdict(system, verdict, fix_t_zero, linprog):
    """Re-solve one redundancy LP (maximize the row over the others and
    the box [-1, 1]) with HiGHS; the verdict and optimum must agree."""
    A = row_matrix(system, fix_t_zero)
    others = np.delete(A, verdict.index, axis=0)
    res = linprog(-A[verdict.index], A_ub=others, b_ub=np.zeros(len(others)),
                  bounds=(-1, 1), method="highs")
    if res.status != 0:
        return [f"row {verdict.index}: HiGHS status {res.status}"]
    opt = -res.fun
    if (opt > 1e-9) != verdict.essential or abs(opt - float(verdict.optimum)) > 1e-7:
        return [f"rank {system.r} row {verdict.index}: {verdict.verdict} with "
                f"optimum {verdict.optimum}, HiGHS gives {opt:.9g}"]
    return []


def check_essential(label, verdict):
    """Knutson-Tao-Woodward: for three summands the point-class rows are
    the facets, and through rank 5 every zero-dim row is one; so is
    every trace and chamber row."""
    if not verdict.essential:
        return [f"{label}: row {verdict.index} reported redundant"]
    return []


# On the t = 0 slice of the rank-6 system for three equal spectra the
# row {2,4,6} is redundant with optimum 0; {1,5,6}, {3,4,5} and both
# trace rows are essential.
SIGMA6_HORN = {(1, 5, 6): True, (2, 4, 6): False, (3, 4, 5): True}


def check_sigma6_slice(system, verdict):
    cons = system.constraints()
    errors = []
    if verdict.index == 0:
        horn = {c.meta.tup.parts[0].elements for c in cons if c.kind == "horn"}
        if horn != set(SIGMA6_HORN):
            errors.append(f"rank-6 sigma system has Horn rows {sorted(horn)}")
    con = cons[verdict.index]
    if con.kind == "horn":
        want = SIGMA6_HORN.get(con.meta.tup.parts[0].elements)
    else:
        want = True if con.kind.startswith("trace") else None
    if want is not None and (verdict.essential != want
                             or (not want and verdict.optimum != 0)):
        errors.append(f"rank-6 sigma slice: row {verdict.index} is "
                      f"{verdict.verdict} (optimum {verdict.optimum})")
    return errors


# -- witness and stall ----------------------------------------------------


def check_member_witness(result, spectra, t, tol=1e-7):
    """A member's search converged to Hermitian matrices whose spectra
    (by numpy.linalg.eigh) and sum match the target."""
    if not result.converged:
        return [f"member search did not converge (residual {result.residual:.3g})"]
    r = len(spectra[0])
    errors = []
    for m, lam in zip(result.matrices, spectra):
        m = np.asarray(m)
        if np.abs(m - m.conj().T).max() > tol:
            errors.append("witness matrix is not Hermitian")
        w = np.linalg.eigh(m)[0][::-1]
        if np.abs(w - np.asarray(lam, dtype=float)).max() > tol:
            errors.append("witness spectrum is off its target")
    residual = np.linalg.norm(sum(np.asarray(m) for m in result.matrices)
                              - float(t) * np.eye(r))
    if residual > tol:
        errors.append(f"witness sum is {residual:.3g} from t*I")
    return errors


def check_stalled(result, restarts):
    """A certified non-member never converges, and every restart ran."""
    errors = []
    if result.converged:
        errors.append("a certified non-member converged")
    if result.attempts != restarts:
        errors.append(f"{result.attempts} attempts, expected {restarts}")
    return errors

