"""Per-layer spans and counters, recorded from outside the program.

The traced run wraps the functions the benchmark reaches in each module of
``horncone`` and sums, per span name, the calls, the seconds and the self
seconds (the span's duration minus the part its traced child spans cover).
Counters read the arguments and results of the same calls.  The wrappers
are removed again before the output checks run.
"""

import time
from collections import defaultdict
from math import comb

# (per-layer metric, unit, the end-to-end metrics it should move)
LAYER_METRICS = [
    ("horn.build_level.calls", "count", "levels/wall_s"),
    ("horn.build_level.self_s", "s", "levels/wall_s"),
    ("horn.build_level.warm_s", "s", "levels/wall_s"),
    ("horn.candidates", "count", "levels/wall_s"),
    ("horn.members", "count", "levels/wall_s"),
    ("horn.yield", "ratio", "levels/wall_s"),
    ("horn.cache_bytes", "bytes", "levels/wall_s"),
    ("horn.count_intersecting.s", "s", "levels/wall_s, levels/peak_rss_mb"),
    ("lr.classify.calls", "count", "levels/wall_s, certify/setup_s"),
    ("lr.classify.s", "s", "levels/wall_s, certify/setup_s"),
    ("subsets.expected_dim.calls", "count", "levels/wall_s"),
    ("subsets.expected_dim.s", "s", "levels/wall_s"),
    ("cone.generate_system.self_s", "s", "levels/wall_s, certify/setup_s"),
    ("cone.decide.calls", "count", "certify/wall_s"),
    ("cone.decide.s", "s", "certify/wall_s"),
    ("cone.decide.rows_scanned", "count", "certify/wall_s"),
    ("cone.to_csv.s", "s", "levels/wall_s"),
    ("cli.output_bytes", "bytes", "levels/wall_s"),
    ("cli.main.calls", "count", "levels/wall_s"),
    ("cli.main.self_s", "s", "levels/wall_s"),
    ("lp.solve_lp.calls", "count", "certify/wall_s"),
    ("lp.solve_lp.s", "s", "certify/wall_s"),
    ("lp.rows_total", "count", "certify/wall_s"),
    ("witness.find_witness.calls", "count", "witness/wall_s, stall/wall_s"),
    ("witness.find_witness.s", "s", "witness/wall_s, stall/wall_s"),
    ("witness.iterations", "count", "stall/wall_s"),
    ("witness.attempts", "count", "stall/wall_s"),
    ("witness.converged", "count", "stall/wall_s"),
    ("witness.project_to_orbit.calls", "count", "witness/wall_s, stall/wall_s"),
    ("witness.project_to_orbit.s", "s", "witness/wall_s, stall/wall_s"),
    ("witness.hermitian_eigh.calls", "count", "witness/wall_s, stall/wall_s"),
    ("witness.hermitian_eigh.s", "s", "witness/wall_s, stall/wall_s"),
    ("witness.verify_witness.s", "s", "witness/wall_s"),
]


class Tracer:
    """Spans leave out the time the host clock's samples took in them."""

    def __init__(self, clock):
        self.clock = clock
        self.stats = defaultdict(float)
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, span=None, count=None):
        """Replace ``owner.attr`` by a wrapper.  With ``span`` the call is
        timed under that name; ``count(stats, args, result)`` runs after
        every call that returns."""
        original = getattr(owner, attr)
        stack, stats, clock = self._stack, self.stats, self.clock

        if span is None:
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                count(stats, args, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                child = [0.0]
                stack.append(child)
                spent = clock.spent
                t0 = time.perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0 - (clock.spent - spent)
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    stats[span + ".calls"] += 1
                    stats[span + ".s"] += dt
                    stats[span + ".self_s"] += dt - child[0]
                if count is not None:
                    count(stats, args, out)
                return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _count_table(stats, args, table):
    store, size, ambient, sigma = args[:4]
    cycles = store.arity if sigma is None else len(sigma)
    stats["horn.candidates"] += comb(ambient, size) ** cycles
    stats["horn.members"] += len(table)


def _count_decide(stats, args, verdict):
    system = args[0]
    if verdict.is_member:
        stats["cone.decide.rows_scanned"] += system.count
    else:
        stats["cone.decide.rows_scanned"] += verdict.violation.constraint.index + 1


def _count_lp(stats, args, result):
    leq = args[1] if len(args) > 1 else ()
    eq = args[2] if len(args) > 2 else ()
    stats["lp.rows_total"] += len(leq) + len(eq)


def _count_witness(stats, args, result):
    stats["witness.iterations"] += result.iterations
    stats["witness.attempts"] += result.attempts
    stats["witness.converged"] += int(result.converged)


def install(tracer):
    """Wrap every traced function of the program; returns the tracer."""
    from horncone import cli, cone, horn, lp, lr, subsets, witness

    store = horn.HornStore
    tracer.wrap(store, "build_level", "horn.build_level")
    tracer.wrap(store, "_load_cached", "horn.cache_load")
    tracer.wrap(store, "_compute_table", count=_count_table)
    tracer.wrap(horn, "count_intersecting", "horn.count_intersecting")
    tracer.wrap(lr, "classify", "lr.classify")
    # expected_dim is imported by name into each module that calls it
    for module in (subsets, horn, lr):
        tracer.wrap(module, "expected_dim", "subsets.expected_dim")
    tracer.wrap(cone, "generate_system", "cone.generate_system")
    tracer.wrap(cone.InequalitySystem, "decide", "cone.decide", _count_decide)
    tracer.wrap(cone.InequalitySystem, "to_csv", "cone.to_csv")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(lp, "solve_lp", "lp.solve_lp", _count_lp)
    tracer.wrap(witness, "find_witness", "witness.find_witness", _count_witness)
    tracer.wrap(witness, "project_to_orbit", "witness.project_to_orbit")
    tracer.wrap(witness, "hermitian_eigh", "witness.hermitian_eigh")
    tracer.wrap(witness, "verify_witness", "witness.verify_witness")
    return tracer


def layer_values(stats):
    """The reported per-layer values from a round's summed stats (the
    spans plus the byte counts the workload measured)."""
    s = dict(stats)
    # levels served from the cache directory: the cache-load spans
    s["horn.build_level.warm_s"] = s.get("horn.cache_load.s", 0.0)
    cand = s.get("horn.candidates", 0.0)
    s["horn.yield"] = s.get("horn.members", 0.0) / cand if cand else 0.0
    return {name: float(s.get(name, 0.0)) for name, _, _ in LAYER_METRICS}
