import argparse
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from horncone import cli
from horncone.cli import build_parser, main
from horncone.cone import InequalitySystem, generate_system
from horncone.horn import HornStore
from test_cone import CSV_CASES, read_levels


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTables:
    def test_sigma_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--rmax", "6", "--sigma", "3")
        assert code == 0
        counts = [int(line.split()[1]) for line in out.strip().split("\n")[1:]]
        assert counts == [2, 3, 4, 7, 10, 10]

    def test_plain_rows_csv(self, capsys):
        code, out, _ = run(capsys, "tables", "--rmax", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,l0,l_min"
        assert lines[1:] == ["1,2,2", "2,8,5", "3,20,20", "4,52,52"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "tables", "--rmax", "2", "--format", "json")
        rows = json.loads(out)
        assert rows == [{"r": 1, "l0": 2, "l_min": 2}, {"r": 2, "l0": 8, "l_min": 5}]


class TestTuples:
    def test_orbit_listing(self, capsys):
        code, out, _ = run(capsys, "tuples", "--d", "1", "--r", "2",
                           "--level", "00", "--orbits")
        assert code == 0
        assert out == "{1} {2} {2}  x3\n"

    def test_sigma_stable_marker(self, capsys):
        code, out, _ = run(capsys, "tuples", "--d", "1", "--r", "4",
                           "--level", "00", "--orbits")
        lines = out.strip().split("\n")
        assert lines == ["{1} {4} {4}  x3", "{2} {3} {4}  x6", "{3} {3} {3}  x1 *"]

    def test_full_listing_counts(self, capsys):
        code, out, _ = run(capsys, "tuples", "--d", "1", "--r", "2",
                           "--level", "00")
        assert len(out.strip().split("\n")) == 3

    def test_orbit_sizes_partition_level(self, capsys):
        _, flat, _ = run(capsys, "tuples", "--d", "2", "--r", "4", "--level", "0")
        total = len(flat.strip().split("\n"))
        _, grouped, _ = run(capsys, "tuples", "--d", "2", "--r", "4",
                            "--level", "0", "--orbits")
        sizes = [int(line.split("x")[-1].split()[0])
                 for line in grouped.strip().split("\n")]
        assert sum(sizes) == total

    def test_sigma_marker_follows_cycle_type(self, capsys):
        # (1,2) swaps the last two positions, which fixes {1} {4} {4}
        # although its parts are not all equal
        code, out, _ = run(capsys, "tuples", "--d", "1", "--r", "4",
                           "--sigma", "1,2", "--level", "all")
        assert code == 0
        assert "{1} {4} {4} *" in out.strip().split("\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tuples", "--d", "1", "--r", "3",
                           "--level", "00", "--orbits", "--format", "json")
        rows = json.loads(out)
        assert {"tuple": [[1], [3], [3]], "sigma_stable": False,
                "orbit_size": 3} in rows

    def test_bad_level(self, capsys):
        code, _, err = run(capsys, "tuples", "--d", "1", "--r", "2",
                           "--level", "min00")
        assert code == 2 and "level" in err

    def test_bad_shape(self, capsys):
        code, _, _ = run(capsys, "tuples", "--d", "3", "--r", "2")
        assert code == 2


class TestSystemAndMember:
    def test_system_json(self, capsys):
        code, out, _ = run(capsys, "system", "--r", "6", "--sigma", "3",
                           "--format", "json")
        data = json.loads(out)
        assert data["counts"]["total"] == 10
        tuples = {tuple(h["tuple"][0]) for h in data["horn"]}
        assert tuples == {(1, 5, 6), (2, 4, 6), (3, 4, 5)}

    def test_system_csv_golden_stability(self, capsys):
        _, first, _ = run(capsys, "system", "--r", "3", "--format", "csv")
        _, second, _ = run(capsys, "system", "--r", "3", "--format", "csv")
        assert first == second

    def test_member_verdict(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            {"spectra": [["1", "-1"], ["1", "-1"], ["1", "-1"]], "t": "0"}
        ))
        code, out, _ = run(capsys, "member", "--input", str(path))
        assert code == 0 and out == "member\n"

    def test_member_violation(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            {"spectra": [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "-1"]],
             "t": "0"}
        ))
        code, out, _ = run(capsys, "member", "--input", str(path),
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["member"] is False
        assert "{3}" in data["violated"] and "{1}" in data["violated"]

    def test_member_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "member", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    def family_file(self, tmp_path, data):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_family_file_without_fields(self, capsys, tmp_path):
        for command in ("member", "witness"):
            code, out, err = run(capsys, command, "--input",
                                 self.family_file(tmp_path, {}))
            assert code == 2 and out == "" and "'spectra'" in err, command

    def test_family_file_not_an_object(self, capsys, tmp_path):
        for command in ("member", "witness"):
            code, out, err = run(capsys, command, "--input",
                                 self.family_file(tmp_path, [1, 2]))
            assert code == 2 and out == "" and "'spectra'" in err, command

    def test_family_file_with_strings_for_lists(self, capsys, tmp_path):
        # a string is iterable, but "123" is not three spectra
        for data in ({"spectra": "123", "t": "0"},
                     {"spectra": ["10", "01", "00"], "t": "0"}):
            code, out, err = run(capsys, "member", "--input",
                                 self.family_file(tmp_path, data))
            assert code == 2 and out == "" and "list of lists" in err, data

    def test_family_file_with_floats_or_booleans(self, capsys, tmp_path):
        # 0.1 is not an exact rational; it must not become 3602879701896397/2^55
        for bad, data in (
                ("0.1", {"spectra": [[0.1, 0], [0, 0], [0, 0]], "t": 0}),
                ("True", {"spectra": [[1, 0], [0, 0], [0, 0]], "t": True})):
            path = self.family_file(tmp_path, data)
            for command in ("member", "witness"):
                code, out, err = run(capsys, command, "--input", path)
                assert code == 2 and out == "" and bad in err, command

    def test_family_file_with_zero_denominator_or_exponent(self, capsys, tmp_path):
        # "1/0" ended in a ZeroDivisionError traceback with exit 1;
        # "1e999999999" printed nothing for 20 s while Fraction computed
        # 10**999999999
        for bad in ("1/0", "1e999999999"):
            path = self.family_file(tmp_path, {"spectra": [["1", "0"]] * 3, "t": bad})
            for command in ("member", "witness"):
                start = time.perf_counter()
                code, out, err = run(capsys, command, "--input", path)
                assert time.perf_counter() - start < 1, (bad, command)
                assert code == 2 and out == "" and bad in err, (bad, command)
                assert err.count("\n") == 1 and err.endswith("\n"), err


class TestRedundancyCommand:
    def test_sigma_rank6_slice(self, capsys):
        code, out, _ = run(capsys, "redundancy", "--r", "6", "--sigma", "3",
                           "--slice-t")
        data = json.loads(out)
        verdicts = {row["index"]: row["verdict"] for row in data["rows"]}
        redundant = [i for i, v in verdicts.items() if v == "redundant"]
        assert len(redundant) == 1

    def test_minimize_rank2(self, capsys):
        code, out, _ = run(capsys, "redundancy", "--r", "2", "--minimize")
        data = json.loads(out)
        assert data["retained"] == 5


class TestWitnessCommand:
    def test_witness_json(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            {"spectra": [["1", "-1"], ["1", "-1"], ["1", "-1"]], "t": "0"}
        ))
        code, out, _ = run(capsys, "witness", "--input", str(path), "--seed", "2")
        data = json.loads(out)
        assert code == 0 and data["converged"] is True

    def test_residual_csv(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            {"spectra": [["1", "-1"], ["1", "-1"], ["1", "-1"]], "t": "0"}
        ))
        log = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "witness", "--input", str(path),
                         "--seed", "2", "--residual-csv", str(log))
        assert code == 0
        assert log.read_text().startswith("attempt,iteration,residual")


class TestCrosscheck:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--r", "2", "--n", "4")
        data = json.loads(out)
        assert code == 0 and data["mismatches"] == 0 and data["tuples"] == 216

    def test_sigma_restricts_to_stable_tuples(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--r", "2", "--n", "5",
                           "--sigma", "3")
        data = json.loads(out)
        assert code == 0
        assert data["tuples"] == 10 and data["mismatches"] == 0

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from horncone import cli as cli_mod
        from horncone.horn import CrossCheckReport

        monkeypatch.setattr(
            cli_mod.horn, "cross_check",
            lambda r, n, store, sigma: CrossCheckReport(r, n, 1, [("fake", 0, 1)]),
        )
        code, out, _ = run(capsys, "crosscheck", "--r", "1", "--n", "2")
        assert code == 1
        assert json.loads(out)["mismatches"] == 1


class TestCycleTypeCheck:
    def test_cycle_type_not_a_partition_of_s(self, capsys, tmp_path):
        code, out, err = run(capsys, "tuples", "--d", "1", "--r", "3",
                             "--sigma", "2", "--cache-dir", str(tmp_path))
        assert code == 2 and out == "" and "partition" in err
        assert not any(tmp_path.rglob("*.level"))
        code, out, _ = run(capsys, "crosscheck", "--r", "1", "--n", "3",
                           "--sigma", "2")
        assert code == 2 and out == ""


@pytest.mark.parametrize("argv, word", [
    (["system", "--r", "0"], "rank"),
    (["tables", "--rmax", "3", "--s", "0"], "arity"),
    (["crosscheck", "--r", "0", "--n", "3"], "size"),
    (["tables", "--rmax", "0"], "rank"),
    (["tables", "--rmax", "-1"], "rank"),
])
def test_rank_arity_or_size_out_of_range(capsys, argv, word):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and word in err


def test_level_too_wide_exits_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tuples", "--d", "1", "--r", "70000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.count("\n") == 1 and "65536" in err


def test_rank_past_uint16_positions_exits_at_once(capsys, monkeypatch):
    def refuse(self, size, ambient, sigma):
        raise AssertionError(f"built level ({size}, {ambient}, {sigma})")

    monkeypatch.setattr(HornStore, "_compute_table", refuse)
    for sigma in ([], ["--sigma", "3"]):
        code, out, err = run(capsys, "system", "--r", "19", *sigma)
        assert code == 2 and out == "" and err.count("\n") == 1 \
            and "C(19, 9) <= 65536" in err, sigma


class TestOptionsEachCommandReads:
    # an option a subcommand would not read is rejected, not ignored

    def family(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            {"spectra": [["1", "-1"], ["1", "-1"], ["1", "-1"]], "t": "0"}
        ))
        return str(path)

    def test_witness(self, capsys, tmp_path):
        path = self.family(tmp_path)
        for extra in (["--s", "3"], ["--sigma", "3"], ["--format", "csv"],
                      ["--cache-dir", str(tmp_path)], ["--no-cache"]):
            code, out, _ = run(capsys, "witness", "--input", path,
                               "--seed", "2", *extra)
            assert code == 2 and out == "", extra

    def test_witness_out_of_range_values(self, capsys, tmp_path):
        path = self.family(tmp_path)
        for extra in (["--restarts", "0"], ["--restarts", "-3"],
                      ["--max-iters", "0"], ["--tol", "0"], ["--tol", "-1"],
                      ["--tol", "inf"]):
            code, out, err = run(capsys, "witness", "--input", path, *extra)
            assert code == 2 and out == "" and "error:" in err, extra

    def test_failed_search_writes_no_residual_csv(self, capsys, tmp_path):
        log = tmp_path / "out.csv"
        for extra in (["--restarts", "0"], ["--tol", "inf"]):
            code, out, _ = run(capsys, "witness", "--input",
                               self.family(tmp_path), *extra,
                               "--residual-csv", str(log))
            assert code == 2 and out == "" and not log.exists(), extra

    def test_member(self, capsys, tmp_path):
        code, out, _ = run(capsys, "member", "--input", self.family(tmp_path),
                           "--s", "5")
        assert code == 2 and out == ""

    def test_member_has_no_csv_format(self, capsys, tmp_path):
        path = self.family(tmp_path)
        code, out, _ = run(capsys, "member", "--input", path, "--format", "csv")
        assert code == 2 and out == ""

    def test_redundancy_has_no_table_format(self, capsys):
        code, out, _ = run(capsys, "redundancy", "--r", "1", "--format", "table")
        assert code == 2 and out == ""
        _, default, _ = run(capsys, "redundancy", "--r", "1")
        _, as_json, _ = run(capsys, "redundancy", "--r", "1", "--format", "json")
        assert default == as_json and json.loads(default)["rows"]

    def test_crosscheck(self, capsys):
        for fmt in ("csv", "table", "json"):
            code, out, _ = run(capsys, "crosscheck", "--r", "1", "--n", "2",
                               "--format", fmt)
            assert code == 2 and out == "", fmt


class TestCache:
    def test_cache_dir_roundtrip(self, capsys, tmp_path):
        code1, out1, _ = run(capsys, "tables", "--rmax", "3",
                             "--cache-dir", str(tmp_path))
        code2, out2, _ = run(capsys, "tables", "--rmax", "3",
                             "--cache-dir", str(tmp_path))
        assert code1 == code2 == 0 and out1 == out2
        assert any(tmp_path.rglob("*.level"))

    def test_tables_fill_what_a_cache_reader_reads(self, capsys, tmp_path,
                                                   monkeypatch):
        # every plain level through (7, 8) and every σ = (3,) level through
        # (10, 11), point levels included, is served from the cache
        # directory that `tables` filled, with no level computed
        cache = str(tmp_path)
        for argv in (["--rmax", "8"], ["--rmax", "11", "--sigma", "3"]):
            assert run(capsys, "tables", *argv, "--cache-dir", cache)[0] == 0

        def refuse(self, size, ambient, sigma):
            raise LookupError(f"level ({size}, {ambient}, {sigma}) is not cached")

        monkeypatch.setattr(HornStore, "_compute_table", refuse)
        warm = HornStore(arity=3, cache_dir=cache)
        warm.build_through(7, 8)
        warm.build_through(10, 11, sigma=(3,))
        assert len(warm.tables) == 35 + 65

    def test_system_writes_only_the_levels_it_reads(self, capsys, tmp_path):
        assert run(capsys, "system", "--r", "8", "--cache-dir", str(tmp_path))[0] == 0
        assert sorted(p.name for p in (tmp_path / "v6").iterdir()) == sorted(
            f"int_d{d}_r{n}_s3_full.level" for d, n in read_levels(8))
        assert len(list(tmp_path.rglob("*"))) == 1 + 13

    def test_no_cache_is_not_an_option(self, capsys, tmp_path):
        # the cache is on exactly when --cache-dir is given
        code, out, _ = run(capsys, "system", "--r", "2",
                           "--cache-dir", str(tmp_path), "--no-cache")
        assert code == 2 and out == ""
        assert not any(tmp_path.rglob("*.level"))

    def test_no_openssl(self, tmp_path):
        # a run that writes the cache and one that reads it back import
        # neither hashlib nor OpenSSL's _hashlib
        script = """if True:
            import sys
            from horncone import cli, horn
            argv = ["tables", "--rmax", "4", "--cache-dir", sys.argv[1]]
            assert cli.main(argv + ["-o", sys.argv[2] + ".cold"]) == 0
            horn.HornStore._compute_table = None  # every level is read
            assert cli.main(argv + ["-o", sys.argv[2] + ".warm"]) == 0
            print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
        """
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = tmp_path / "tables"
        done = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / "cache"), str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
        assert any((tmp_path / "cache").rglob("*.level"))
        assert pathlib.Path(f"{out}.cold").read_text() == \
            pathlib.Path(f"{out}.warm").read_text()

    def test_lps_and_tables_leave_numpy_ma_out(self, tmp_path):
        # numpy.ma costs every process that imports it tens of ms: neither
        # a redundancy report, both t settings, nor the tables import it
        script = """if True:
            import sys
            from horncone import cli, cone, lp
            system = cone.generate_system(4)
            for fix_t_zero in (False, True):
                lp.redundancy_report(system, fix_t_zero)
            assert cli.main(["tables", "--rmax", "6", "-o", sys.argv[1]]) == 0
            print("numpy.ma" in sys.modules)
        """
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / "tables")],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestCacheIntegrity:
    # a damaged cache file is a miss: the level is rebuilt, and the output
    # equals a run without the cache
    def check(self, capsys, tmp_path, argv, key, damage):
        code, want, _ = run(capsys, *argv)
        assert code == 0
        run(capsys, *argv, "--cache-dir", str(tmp_path))
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        path = store._cache_path(key)
        # damage the rows or the flags, then save the file again under
        # its old 4-byte checksum (a None leaves the part out)
        with open(path, "rb") as fh:
            raw = fh.read()
        m = (len(raw) - 4) // 7
        data = {"rows": np.frombuffer(raw, "<u2", 3 * m, 4).reshape(m, 3),
                "point": np.frombuffer(raw, bool, m, 4 + 6 * m)}
        damage(data)
        with open(path, "wb") as fh:
            fh.write(raw[:4] + b"".join(
                data[k].tobytes() for k in ("rows", "point")
                if data[k] is not None))
        assert store._load_cached(key) is None
        code, got, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, got, err) == (0, want, "")
        assert store._load_cached(key) is not None

    def test_null_rows(self, capsys, tmp_path):
        def damage(data):
            data["rows"] = None
        self.check(capsys, tmp_path, ["tables", "--rmax", "2"], (1, 2, None),
                   damage)

    def test_short_flag_lists(self, capsys, tmp_path):
        def damage(data):
            data["point"] = data["point"][:-3]
        self.check(capsys, tmp_path, ["system", "--r", "3"], (2, 3, None),
                   damage)

    def test_flipped_point_flag(self, capsys, tmp_path):
        def damage(data):
            data["point"] = data["point"].copy()
            data["point"][data["point"].argmax()] = False
        self.check(capsys, tmp_path, ["system", "--r", "3", "--level", "min00"],
                   (1, 3, None), damage)


class TestOutputFile:
    def test_output_golden_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        run(capsys, "tuples", "--d", "2", "--r", "5", "--level", "00",
            "--orbits", "-o", str(out1))
        run(capsys, "tuples", "--d", "2", "--r", "5", "--level", "00",
            "--orbits", "-o", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_is_written_in_slices(self, capsys, tmp_path, monkeypatch):
        # every slice but the last is full, and the bytes are the text's
        argv = ["system", "--r", "5", "--format", "csv"]
        _, text, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "_SLICE", 1000)
        sizes = []

        class Recorder(io.StringIO):
            def write(self, s):
                sizes.append(len(s))
                return super().write(s)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        assert sys.stdout.getvalue() == text
        assert sizes == [1000] * (len(text) // 1000) + [len(text) % 1000]
        assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 0
        assert (tmp_path / "out.csv").read_bytes() == text.encode()

    def test_first_slice_leaves_before_the_last_piece(self, monkeypatch):
        # the CSV goes out while its pieces are still being rendered
        monkeypatch.setattr(cli, "_SLICE", 1000)
        pieces, events = InequalitySystem.csv_pieces, []

        def recorded(system):
            yield from pieces(system)
            events.append("exhausted")

        class Recorder(io.StringIO):
            def write(self, s):
                events.append("write")
                return super().write(s)

        monkeypatch.setattr(InequalitySystem, "csv_pieces", recorded)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["system", "--r", "5", "--format", "csv"]) == 0
        assert events[0] == "write" and events.count("exhausted") == 1

    @pytest.mark.parametrize("r, s, sigma, level", CSV_CASES)
    def test_csv_is_the_systems_csv(self, capsys, monkeypatch, r, s, sigma,
                                    level):
        # slices of an odd length straddle the pieces
        monkeypatch.setattr(cli, "_SLICE", 997)
        argv = ["system", "--r", str(r), "--s", str(s), "--level", level,
                "--format", "csv"]
        if sigma:
            argv += ["--sigma", ",".join(map(str, sigma))]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == generate_system(r, s, sigma, level).to_csv()

    @pytest.mark.parametrize("previous", [None, "previous text\n"])
    def test_failed_render_leaves_no_partial_file(self, capsys, monkeypatch,
                                                  tmp_path, previous):
        # the first piece would reach the file before the render fails
        monkeypatch.setattr(cli, "_SLICE", 10)
        pieces = InequalitySystem.csv_pieces

        def failing(system):
            yield next(pieces(system))
            raise ValueError("render failed")

        out = tmp_path / "out.csv"
        if previous is not None:
            out.write_text(previous)
        monkeypatch.setattr(InequalitySystem, "csv_pieces", failing)
        code, _, err = run(capsys, "system", "--r", "4", "--format", "csv",
                           "-o", str(out))
        assert (code, err) == (2, "error: render failed\n")
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None
                                                        else ["out.csv"])
        if previous is not None:
            assert out.read_text() == previous

    def test_written_file_is_the_printed_text(self, capsys, tmp_path):
        # a longer file is replaced whole, and the bytes are stdout's
        argv = ["system", "--r", "4", "--format", "csv"]
        _, text, _ = run(capsys, *argv)
        out = tmp_path / "out.csv"
        out.write_text("x" * (2 * len(text)))
        assert run(capsys, *argv, "-o", str(out)) == (0, "", "")
        assert out.read_bytes() == text.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_link_and_device_are_written_through(self, capsys, tmp_path):
        argv = ["system", "--r", "3", "--format", "csv"]
        _, text, _ = run(capsys, *argv)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run(capsys, *argv, "-o", str(link)) == (0, "", "")
        assert link.is_symlink() and target.read_text() == text
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "horncone.cli", *argv, "-o", "/dev/stdout"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="rank-10 CSV of 191,382 rows; set RUN_OPTIONAL=1")
    def test_rank10_plain_csv_is_streamed(self, tmp_path):
        system = generate_system(10, 3, None, "full0", HornStore(arity=3))
        out = tmp_path / "system10.csv"
        args = argparse.Namespace(format="csv", output=str(out))
        tracemalloc.start()
        try:
            cli._emit(args, csv=system.csv_pieces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = out.read_bytes()
        assert len(data) == 24_185_028
        assert hashlib.sha256(data).hexdigest() == \
            "bb961c92cc79dba789dd3797dfe88688a2a1a9d1920736b8c692c71ca6e4c4f4"
        # a slice and a piece at a time, never the 24 MB text
        assert peak < 4 * 2**20, peak


class TestGoldenBytes:
    # sha256 of outputs whose bytes must not change: the coefficient
    # columns, the reported violation and its exact excess, LP optima
    GOLDEN = {
        ("system", "--r", "5", "--format", "csv"):
            "b9f105e10c75309e280a4075dbbfae757cdc7f858c37a0a917653d1e3c2a8270",
        ("system", "--r", "6", "--sigma", "3", "--format", "csv"):
            "40200c8638abc7f6d34510336524d8de9cf11e6614bf68ac285fc548523404b1",
        # 191,998 bytes; then a two-cycle type, four summands, a system
        # without chamber rows and one with rows of every dimension
        ("system", "--r", "7", "--format", "csv"):
            "9dbce4cb1a0837d930f9965949fb33114ed5b471820853dbe0ffab015e101341",
        ("system", "--r", "5", "--sigma", "1,2", "--format", "csv"):
            "89ef7329301f3dc917387ecbfba4cca8951e3ff65601bd5b52ee0bf18cb9aa96",
        ("system", "--r", "4", "--s", "4", "--format", "csv"):
            "e8149751f414204479bcdc4576d8039570fea83337ce480c853443a5f0b75864",
        ("system", "--r", "2", "--level", "min00", "--format", "csv"):
            "7f8c7f7423f1f0d6f8c2f31b833fb807aeed43dd87c3f7a093518a6c9c66798a",
        ("system", "--r", "4", "--level", "all", "--format", "csv"):
            "b2507600fd2240fa0b554f8f8a470c39520f033b0f1d416d84898d8de1982437",
        ("redundancy", "--r", "2", "--minimize"):
            "bc775ad50c6cae5577743eb3f82f54f263ffc5ee8012aae0ec8e2d9b8acbd825",
        ("redundancy", "--r", "4", "--sigma", "3", "--format", "csv"):
            "76fa42a0357e54197b964043663dede1359ad7a2aa7859a06b31a3dbe22e8ba8",
        # 156 rows in 42 orbits, with and without t
        ("redundancy", "--r", "5", "--format", "csv"):
            "71a5baf00f11534fa41e9e531ecda7bf841d1a81af758a0723de05d5ba1ad970",
        ("redundancy", "--r", "5", "--format", "csv", "--slice-t"):
            "cdf15442a147a2783e731f28f45e05941c886337ddedce0835fe915cd564fd5e",
        # 52 rows, none dropped: the 17 orbit LPs of the report
        ("redundancy", "--r", "4", "--minimize"):
            "1d07b40d53ca9777d0ed94933de502b6c6aa771c9898ac2aded88caf999d2a89",
        # a row drops while block permutations other than the identity
        # still map the retained rows onto themselves
        ("redundancy", "--r", "4", "--s", "4", "--minimize"):
            "7eb2b3bea3b7dac6fa2cdf82efffd76948154f84f5420059cc693b7c9f0749bd",
        ("redundancy", "--r", "3", "--level", "all", "--minimize",
         "--format", "csv"):
            "9dd6e62495a212fa7fce6c169f2dc56ba9873b2c0e14cb01cd6698e8ad6a313a",
        ("redundancy", "--r", "4", "--s", "4", "--sigma", "1,1,2",
         "--minimize", "--slice-t"):
            "f85d86a3541a55c3d4329863469d90cdac01539173c26a0f0acbfe28a95064a0",
        ("crosscheck", "--r", "2", "--n", "5"):
            "678d9d1f6d7fa8058c1879101d344d4b8f7cecdace263c1d57242f043a17876b",
    }
    # every format of the listings
    LISTINGS = {
        ("tuples", "--d", "2", "--r", "5", "--level", "0", "--orbits",
         "--sigma", "1,2"): {
            "table": "32d90bc15cbc553cf0debea956c323dde3f86f45b348f83f648d95ad53da507b",
            "json": "ed18d6e1e061c735c153c8333226829221503ef58e7b602b8ea449902a5b3200",
            "csv": "5e47b9da3092e29d0144720fabb8489a14ec95c6019188e9aa4688661f75f5f4",
        },
        ("tables", "--rmax", "6"): {
            "table": "35ec851069fc2b62fbeddfa04c778041e99e8351e5d39ac2ca7dc4cb2b6bcbc5",
            "json": "765d9837b7d79045ffeaa65f006fe5c73a6c00966ac63b03d8340c6437e8e174",
            "csv": "c7c83018c1c7182dd1c194b314c10c720493c46afb28f0922a9082d82342b8d0",
        },
    }
    MEMBER = {
        "table": "9a630df58958568e214bea0bee4c5cf47a6a0d1a509980956bdd214c0b7ccdb2",
        "json": "9469cab82b79236abfc44a4d4ef8518a872d48404e169f24158af485672938f1",
    }
    NON_MEMBER = {
        "table": "c51bcd712739ed1f462839be428ecff10ae198caa21d6641cdf07aea4d50e90e",
        "json": "b3c2c272e93e2da45ad87ad1cd9b613a6df26947eb7ff1154de1fda147f3d667",
    }

    def test_system_and_redundancy(self, capsys):
        for argv, digest in self.GOLDEN.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_listings_in_every_format(self, capsys):
        for argv, digests in self.LISTINGS.items():
            for fmt, digest in digests.items():
                code, out, _ = run(capsys, *argv, "--format", fmt)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                    (argv, fmt)

    def test_member(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"spectra": [["2", "1", "-1"]] * 3,
                                    "t": "2"}))
        for fmt, digest in self.MEMBER.items():
            code, out, _ = run(capsys, "member", "--input", str(path),
                               "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_member_violation(self, capsys, tmp_path):
        # violates a level-2 Horn row by exactly 1/11
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({
            "spectra": [["18/11", "-20/11", "-15/7"], ["11/7", "1", "-12/7"],
                        ["20/13", "-2/13", "-11/13"]],
            "t": "-310/1001",
        }))
        for fmt, digest in self.NON_MEMBER.items():
            code, out, _ = run(capsys, "member", "--input", str(path),
                               "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_workflow_commands_parse():
    # every horncone command the CI workflow runs parses here, so that a
    # renamed option fails in this suite and not only on a runner; the
    # warm-cache loop sets $opts to nothing or to --cache-dir
    workflow = pathlib.Path(__file__).parents[1] / ".github/workflows/tier1.yml"
    commands = [line.split(None, 1)[1]
                for line in workflow.read_text().splitlines()
                if line.split()[:1] == ["horncone"]]
    assert {c.split()[0] for c in commands} == {"crosscheck", "tables", "system"}
    parser = build_parser()
    for command in commands:
        for opts in ("", "--cache-dir cache"):
            argv = shlex.split(command.replace("$opts", opts).replace("$", ""))
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"horncone {command} does not parse")
