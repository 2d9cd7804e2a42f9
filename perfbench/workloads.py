"""The four workloads.  Each has a set-up (inputs, and any systems it
needs built first) and a list of operations that make up the timed
phase, each as (label, call, check).  ``check(output)`` returns a list of
errors; it runs after the timed phase.  A run splits the operations of
one round over several processes (see run.py), so each check needs only
its own operation's output and the round's directory.

Operations call the program through module attributes (``cli.main``,
``horn.count_intersecting``, ...), so that the traced run's wrappers see
every call.
"""

import os

from horncone import cli, cone, horn, lp, lr, subsets, witness
from horncone.cone import SpectrumFamily
from horncone.horn import HornStore

import checks
import inputs

RESTARTS = 10  # a stalled search runs them all
# The iterations of a member search vary with the member and the start
# by about half their mean, so a steady wall_s needs many searches; a
# tolerance looser than the default 1e-8 makes each about a third
# shorter, so more fit in a run.  About one first attempt in 300 runs to
# the iteration cap without converging; a cap of 500 instead of 5,000
# (no converging attempt seen needs 400) restarts it sooner, so that one
# search does not take a fifth of a run.
WITNESS_TOL = 1e-6
WITNESS_MAX_ITERS = 500


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


class Levels:
    """A cold CLI session with a fresh cache directory, then the census.
    Each operation runs in its own process, as separate CLI commands do;
    they share the round's directory, and the last checks them all."""

    COMMANDS = {
        "tables8": ["tables", "--rmax", "8"],
        "tables11s3": ["tables", "--rmax", "11", "--sigma", "3"],
        "system8csv": ["system", "--r", "8", "--format", "csv"],
    }

    def setup(self, seed, workdir):
        self.cache = os.path.join(workdir, "cache")
        self.files = {k: os.path.join(workdir, k + ".out") for k in self.COMMANDS}
        self.samples = inputs.levels_inputs(seed)

    def _cli(self, key):
        argv = self.COMMANDS[key] + ["--cache-dir", self.cache,
                                     "-o", self.files[key]]
        if cli.main(argv) != 0:
            raise RuntimeError(f"horncone {' '.join(argv)} failed")
        return key

    def _census(self):
        store = HornStore(arity=3, cache_dir=self.cache)
        store.build_through(4, 5)
        return horn.count_intersecting(5, 10, store)

    def operations(self):
        ops = [(key, lambda key=key: self._cli(key), _no_check)
               for key in self.COMMANDS]
        return ops + [("census (5,10)", self._census, self.check)]

    def layer_bytes(self):
        """Bytes in the cache directory and in the CLI outputs so far."""
        return {
            "horn.cache_bytes": _dir_bytes(self.cache),
            "cli.output_bytes": sum(os.path.getsize(f)
                                    for f in self.files.values()
                                    if os.path.exists(f)),
        }

    def check(self, census):
        def read(key):
            with open(self.files[key], encoding="utf-8") as fh:
                return fh.read()

        plain_rows = checks.parse_count_table(read("tables8"))
        sigma_rows = checks.parse_count_table(read("tables11s3"))
        errors = checks.check_published_counts(plain_rows, sigma_rows)
        errors += checks.check_census(census)

        # every table read back from the cache only (a miss is an error)
        warm = _CacheOnlyStore(arity=3, cache_dir=self.cache)
        warm.build_through(7, 8)
        warm.build_through(10, 11, sigma=(3,))
        plain = {k[:2]: t for k, t in warm.tables.items() if k[2] is None}
        sigma = {k[:2]: t for k, t in warm.tables.items() if k[2] is not None}
        errors += checks.check_s3_invariance(plain)
        errors += checks.check_duality(plain)
        errors += checks.check_duality(sigma)
        errors += checks.check_sigma_is_diagonal(plain, sigma)
        fixed = sigma[(5, 10)]
        if (len(fixed), len(fixed.zero_dim_members())) != census[1:]:
            errors.append("sigma level (5,10) disagrees with the census")

        cold = HornStore(arity=3)
        cold.build_through(6, 6)
        cold.build_through(6, 6, sigma=(3,))
        errors += checks.check_same_tables(warm.tables, cold.tables)

        errors += checks.check_csv_rows(read("system8csv"), plain_rows[7][1], 8)
        tuples = [((d, n), subsets.SubsetTuple(subsets.all_subsets(d, n)[i]
                                               for i in idx))
                  for d, n, idx in self.samples]
        errors += checks.check_lr_sample(plain, tuples, lr.classify)
        return errors


class _CacheOnlyStore(HornStore):
    def _compute_table(self, size, ambient, sigma, test_level):
        raise LookupError(f"level ({size}, {ambient}, {sigma}) was not "
                          "served from the cache directory")


def _no_check(output):
    return []


def _linprog():
    from scipy.optimize import linprog
    return linprog


class Certify:
    """Exact membership decisions and redundancy LPs on built systems."""

    def setup(self, seed, workdir):
        data = inputs.certify_inputs(seed)
        plain = HornStore(arity=3)
        self.s7 = cone.generate_system(7, 3, None, "full0", plain)
        self.s4 = cone.generate_system(4, 3, None, "full0", plain)
        self.s5 = cone.generate_system(5, 3, None, "full0", plain)
        equal = HornStore(arity=3)
        self.s9 = cone.generate_system(9, 3, (3,), "full0", equal)
        self.s6 = cone.generate_system(6, 3, (3,), "full0", equal)
        self.groups = [
            (self.s7, data["members7"], True),
            (self.s7, data["nonmembers7"], False),
            (self.s9, data["members9"], True),
            (self.s9, data["nonmembers9"], False),
        ]
        self.rank5_rows = data["rank5_rows"]

    def _decision(self, system, spectra, t, member):
        family = SpectrumFamily(spectra, t)
        return (f"member r{system.r}",
                lambda: cone.member(family, system),
                lambda v: checks.check_decision(system, spectra, t, v, member))

    def _lp(self, label, system, row, fix_t_zero, expect):
        def check(verdict):
            return (checks.check_lp_verdict(system, verdict, fix_t_zero,
                                            _linprog())
                    + expect(verdict))
        return (f"is_redundant {label} row {row}",
                lambda: lp.is_redundant(system, row, fix_t_zero), check)

    def operations(self):
        ops = [self._decision(system, spectra, t, member)
               for system, families, member in self.groups
               for spectra, t in families]
        ops += [self._lp("r4", self.s4, i, False,
                         lambda v: checks.check_essential("rank 4", v))
                for i in range(self.s4.count)]
        ops += [self._lp("sigma r6 t=0", self.s6, i, True,
                         lambda v: checks.check_sigma6_slice(self.s6, v))
                for i in range(self.s6.count)]
        ops += [self._lp("r5", self.s5, i, False,
                         lambda v: checks.check_essential("rank 5", v))
                for i in self.rank5_rows]
        return ops

    def layer_bytes(self):
        return {}


class Witness:
    """Witness searches on interior members: each converges."""

    make_inputs = staticmethod(inputs.witness_inputs)

    def setup(self, seed, workdir):
        self.cases = self.make_inputs(seed)

    def operations(self):
        return [(f"find_witness r{len(spectra[0])}",
                 lambda spectra=spectra, t=t, s=s:
                     witness.find_witness(spectra, t, seed=s, tol=WITNESS_TOL,
                                          max_iters=WITNESS_MAX_ITERS),
                 lambda res, spectra=spectra, t=t:
                     checks.check_member_witness(res, spectra, t,
                                                 2 * WITNESS_TOL))
                for spectra, t, s in self.cases]

    def layer_bytes(self):
        return {}


class Stall(Witness):
    """Witness searches on certified non-members: every restart stalls."""

    make_inputs = staticmethod(inputs.stall_inputs)

    def operations(self):
        return [(f"find_witness r{len(spectra[0])}",
                 lambda f=SpectrumFamily(spectra, t), s=s:
                     witness.find_witness(f, seed=s, restarts=RESTARTS),
                 lambda res: checks.check_stalled(res, RESTARTS))
                for spectra, t, s in self.cases]


WORKLOADS = {
    "levels": Levels,
    "certify": Certify,
    "witness": Witness,
    "stall": Stall,
}
