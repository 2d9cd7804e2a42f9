"""Command-line front end: level listings, inequality systems, membership,
count tables, redundancy reports, numeric witnesses and the
recursion-vs-LR cross-check.

Exit codes: 0 success, 1 cross-check mismatch, 2 invalid options/input.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from . import cone, horn, lp, witness
from .subsets import Permutation, group_into_orbits
from .horn import HornStore

_SLICE = 1 << 20  # characters per write in _emit


def _parse_sigma(text):
    if text is None:
        return None
    try:
        return tuple(sorted(int(x) for x in text.split(",")))
    except ValueError:
        raise ValueError(f"bad cycle type {text!r}; expected e.g. '3' or '1,1,1'")


def _store(args, s):
    return HornStore(arity=s, cache_dir=args.cache_dir)


def _emit(args, **formats):
    """Write the text of the renderer ``formats[args.format]``, or of
    ``formats["json"]`` for a command without --format; only the chosen
    renderer runs.  The str it returns, or the pieces it yields, go out in
    full _SLICE-character slices, so a yielded text is never held whole.  A
    regular or new -o file is written beside itself and renamed into place,
    so a failed render leaves it as it was; a link, device or pipe is not."""
    pieces = formats[getattr(args, "format", "json")]()
    path = args.output
    part = path and not os.path.islink(path) and (
        os.path.isfile(path) or not os.path.exists(path)) and f"{path}.{os.getpid()}.part"
    try:
        with (open(part or path, "w", encoding="utf-8") if path
              else contextlib.nullcontext(sys.stdout)) as fh:
            buf = ""
            for piece in [pieces] if isinstance(pieces, str) else pieces:
                buf += piece
                for lo in range(0, len(buf) - _SLICE + 1, _SLICE):
                    fh.write(buf[lo:lo + _SLICE])
                buf = buf[len(buf) - len(buf) % _SLICE:]
            fh.write(buf)
        if part:
            os.replace(part, path)
    finally:
        if part and os.path.exists(part):
            os.unlink(part)


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _fmt_subset(sub):
    return "{" + ",".join(str(j) for j in sub.elements) + "}"


def _fmt_tuple(tup):
    return " ".join(_fmt_subset(p) for p in tup.parts)


def cmd_tuples(args):
    sigma = _parse_sigma(args.sigma)
    table = _store(args, args.s).table(args.d, args.r, sigma)
    chosen = {"all": lambda: table.members, "0": table.zero_dim_members,
              "00": table.point_members}[args.level]()
    # without --sigma the mark is "all parts equal", which is being fixed
    # by the full s-cycle
    perm = Permutation.from_cycle_type(sigma or (args.s,))
    if args.orbits:
        listed = [(rep, (len(members),), rep.is_stable(perm))
                  for rep, members in group_into_orbits(chosen)]
    else:
        listed = [(t, (), t.is_stable(perm)) for t in chosen]
    orbit = ("orbit_size",) if args.orbits else ()
    _emit(args,
          table=lambda: "".join(
              f"{_fmt_tuple(tup)}{'  x%d' % size if size else ''}"
              f"{' *' if stable else ''}\n" for tup, size, stable in listed),
          json=lambda: _json([
              {"tuple": tup.to_json(), "sigma_stable": stable,
               **dict(zip(orbit, size))} for tup, size, stable in listed]),
          csv=lambda: _csv([("tuple", *orbit, "sigma_stable")] + [
              (json.dumps(tup.to_json()).replace(",", ";"), *size,
               str(stable).lower()) for tup, size, stable in listed]))
    return 0


def cmd_system(args):
    sigma = _parse_sigma(args.sigma)
    system = cone.generate_system(args.r, args.s, sigma, args.level,
                                  _store(args, args.s))

    def table():
        lines = [
            f"cone rank {args.r}, arity {args.s}, "
            f"sigma {sigma if sigma else 'none'}, level {args.level}",
            f"counts: total {system.count} = equality 2 + chamber "
            f"{system.chamber_count} + horn {system.count - 2 - system.chamber_count}",
        ]
        lines += [f"  [{con.index:>3}] {con.describe()}"
                  for con in system.constraints()]
        return "\n".join(lines) + "\n"

    _emit(args, table=table, json=lambda: _json(system.to_json()),
          csv=system.csv_pieces)
    return 0


def _load_family(path):
    """A spectrum family from a JSON object with "spectra", a list of
    lists, and "t"; every value an integer or a rational string."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    spectra = data.get("spectra") if isinstance(data, dict) else None
    if not (isinstance(spectra, list) and "t" in data
            and all(isinstance(spec, list) for spec in spectra)):
        raise ValueError(f"{path}: expected an object with 'spectra' "
                         "(a list of lists) and 't'")
    for x in [data["t"], *(x for spec in spectra for x in spec)]:
        if isinstance(x, bool) or not isinstance(x, (int, str)):
            raise ValueError(f"{path}: {x!r} is not an integer or a rational string")
    return cone.SpectrumFamily.from_json(data)


def cmd_member(args):
    family = _load_family(args.input)
    sigma = _parse_sigma(args.sigma)
    system = cone.generate_system(family.length, family.arity, sigma,
                                  args.level, _store(args, family.arity))
    verdict = system.decide(family)
    payload = {"member": verdict.is_member}
    if not verdict.is_member:
        payload["violated"] = verdict.violation.constraint.describe()
        payload["excess"] = str(verdict.violation.amount)
    text = "member\n" if verdict.is_member else (
        "not a member\nviolated: {violated} (excess {excess})\n".format(**payload))
    _emit(args, json=lambda: _json(payload), table=lambda: text)
    return 0


def cmd_tables(args):
    sigma = _parse_sigma(args.sigma)
    if args.rmax < 1:
        raise ValueError(f"rank bound --rmax {args.rmax} is not positive")
    store = _store(args, args.s)
    rows = []
    for r in range(1, args.rmax + 1):
        full = cone.generate_system(r, args.s, sigma, "full0", store)
        reduced = cone.generate_system(r, args.s, sigma, "min00", store)
        rows.append((r, full.count, reduced.count))
    if sigma is None:
        headers = ("r", "l0", "l_min")
    else:
        headers = ("r", "l_sigma0", "l_sigma00")
    fmt = "  ".join("{:>%d}" % max(len(h), 6) for h in headers)
    _emit(args,
          table=lambda: "".join(fmt.format(*row) + "\n"
                                for row in [headers, *rows]),
          json=lambda: _json([dict(zip(headers, row)) for row in rows]),
          csv=lambda: _csv([headers, *rows]))
    return 0


def cmd_redundancy(args):
    sigma = _parse_sigma(args.sigma)
    system = cone.generate_system(args.r, args.s, sigma, args.level,
                                  _store(args, args.s))
    if args.minimize:
        result = lp.minimize_system(system, fix_t_zero=args.slice_t)
        payload = {
            "retained": len(result.retained),
            "dropped": len(result.dropped),
            "rows": [v.to_json() for v in result.verdicts],
        }
    else:
        report = lp.redundancy_report(system, fix_t_zero=args.slice_t)
        payload = report.to_json()
    columns = ("index", "kind", "verdict", "optimum")
    _emit(args, json=lambda: _json(payload),
          csv=lambda: _csv([columns] + [[row[c] for c in columns]
                                        for row in payload["rows"]]))
    return 0


def cmd_witness(args):
    family = _load_family(args.input)
    # buffered, so that a search that fails leaves no file behind
    log = io.StringIO() if args.residual_csv else None
    result = witness.find_witness(
        family, max_iters=args.max_iters, tol=args.tol, seed=args.seed,
        restarts=args.restarts, residual_log=log,
    )
    if log:
        with open(args.residual_csv, "w", encoding="utf-8") as fh:
            fh.write(log.getvalue())
    _emit(args, json=lambda: json.dumps(result.to_json()) + "\n")
    return 0


def cmd_crosscheck(args):
    sigma = _parse_sigma(args.sigma)
    report = horn.cross_check(args.r, args.n, _store(args, args.s), sigma)
    summary = {
        "size": args.r,
        "ambient": args.n,
        "tuples": report.total,
        "mismatches": len(report.mismatches),
    }
    _emit(args, json=lambda: _json(summary))
    return 0 if report.clean else 1


SYSTEM_LEVELS = tuple(cone.LEVEL_FLAGS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="horncone",
        description="Horn inequalities and the eigenvalue cone of sums of "
                    "Hermitian matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no abbreviations: "--s" must not pass for "--seed" or "--sigma"
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, arity=True, levels=True, formats=("table", "json", "csv")):
        """The shared options a subcommand reads: the arity, the cycle
        type and cache of the level tables, the output format (the first
        of ``formats`` by default); every subcommand writes through -o."""
        if arity:
            p.add_argument("--s", type=int, default=3)
        if levels:
            p.add_argument("--sigma", help="cycle type, e.g. '3' or '1,1,1'")
            p.add_argument("--cache-dir")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("-o", "--output")

    p = command("tuples", "list one level of intersecting tuples")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--level", choices=("all", "0", "00"), default="00")
    p.add_argument("--orbits", action="store_true",
                   help="group into coordinate-permutation orbits")
    common(p)
    p.set_defaults(func=cmd_tuples)

    p = command("system", "emit the inequality description")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--level", choices=SYSTEM_LEVELS, default="full0")
    common(p)
    p.set_defaults(func=cmd_system)

    p = command("member", "decide membership of a spectrum family")
    p.add_argument("--input", required=True,
                   help="JSON file with spectra and t as p/q strings; "
                        "the arity is the number of spectra")
    p.add_argument("--level", choices=SYSTEM_LEVELS, default="full0")
    common(p, arity=False, formats=("table", "json"))
    p.set_defaults(func=cmd_member)

    p = command("tables", "inequality count table by rank")
    p.add_argument("--rmax", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tables)

    p = command("redundancy", "LP redundancy report for a system")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--level", choices=SYSTEM_LEVELS, default="full0")
    p.add_argument("--slice-t", action="store_true",
                   help="fix t = 0 (integral-weight slice)")
    p.add_argument("--minimize", action="store_true",
                   help="greedy sequential reduction instead of "
                        "independent verdicts")
    common(p, formats=("json", "csv"))
    p.set_defaults(func=cmd_redundancy)

    p = command("witness", "numeric witness search (JSON output)")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--residual-csv", help="per-iteration residual log")
    common(p, arity=False, levels=False, formats=())
    p.set_defaults(func=cmd_witness)

    p = command("crosscheck", "recursion vs LR classification (JSON output)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, formats=())
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
