import csv
import hashlib
import io
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import vattol as vt
from given_results import Given, given_results
from vattol import cli, verify
from vattol import spectral as spectral_mod

F = Fraction


def run_cli(*args, cwd=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "vattol.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
        preexec_fn=preexec_fn,
    )


def limit_memory():
    """Cap the address space at 2 GB, so that an unbounded allocation
    fails fast in the child instead of exhausting the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestGen:
    def test_writes_file_and_stats(self, tmp_path):
        out = tmp_path / "c6.edges"
        proc = run_cli("gen", "cycle:6", "-o", str(out))
        assert proc.returncode == 0
        assert "n=6 m=6 d=2" in proc.stderr
        edges = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(edges) == 6

    def test_random_reproducible(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        assert run_cli("gen", "random_regular:20,3,seed=42", "-o", str(a)).returncode == 0
        assert run_cli("gen", "random_regular:20,3,seed=42", "-o", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dash_output_is_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "cycle:6", "-o", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0 1" and len(lines) == 6
        assert list(tmp_path.iterdir()) == []

    def test_bad_parameter_exit_2(self):
        proc = run_cli("gen", "cycle:2")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_family_usage_exit_2_one_line(self):
        proc = run_cli("gen", "circulant:8")
        assert proc.returncode == 2
        assert proc.stderr == "error: circulant spec needs 'n,o1+o2+..': 'circulant:8'\n"

    @pytest.mark.parametrize(
        "spec",
        [
            "cycle:100000000",
            "complete:50000",
            "complete:3000",
            "star:100000000",
            "circulant:100000000,1",
            "random_regular:100000000,3,seed=1",
        ],
    )
    def test_spec_over_edge_limit_exit_2_one_line(self, spec):
        proc = run_cli("gen", spec, preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {spec}: up to ")
        assert proc.stderr.endswith(" edges, above the spec limit 100000\n")

    def test_retry_limit_exit_2_one_line(self, tmp_path):
        out = tmp_path / "k10.edges"
        proc = run_cli("gen", "random_regular:10,9,seed=0", "-o", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: no simple 9-regular pairing on 10 vertices after 10000 attempts\n"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--jobs", "abc"],
        ["verify", "--family", "cycle", "--n", "3.."],
        ["metrics", "cycle:6", "--limit", "5"],
        ["verify", "--family", "cycle", "--n", "3..5", "--tolerance", "0"],
        ["verify", "--family", "cycle", "--n", "3..4", "--checks", ","],
    ],
    ids=["bad-int", "bad-range", "no-limit-option", "no-tolerance-option", "no-check"],
)
def test_usage_error_exit_2_one_line(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestMetrics:
    def test_n22_matches_the_engines(self):
        proc = run_cli("metrics", "random_regular:22,3,seed=22", "--vat", "--conductance")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["vat"] == {"num": 3, "den": 8, "real": 0.375, "witness": [7, 8, 9]}
        phi = record["conductance"]
        assert (phi["num"], phi["den"]) == (2, 15)
        assert phi["witness"] == [1, 2, 3, 5, 7, 10, 14, 15, 17, 18]

    def test_above_hard_cap_exit_2_one_line(self):
        proc = run_cli("metrics", "cycle:25")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: n=25 exceeds the hard cap 24\n"

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("w 0 inf 1\n0 1\n", ["--weighted"]),
            ("0 1\n", ["--alpha-beta", "inf,0"]),
            ("0 1\n", ["--alpha-beta", "1,nan"]),
            ("1 300000000\n", ["--vat"]),
            ("0 1\n1 2\n2 3\n0 3\n", ["--alpha-beta", "1.7e308,1.7e308"]),
            ("0 1\n1 2\n2 3\n0 3\n", ["--alpha-beta", "1.7e308,1.7e308", "--format", "csv"]),
        ],
    )
    def test_invalid_input_exit_2_one_line(self, tmp_path, text, flags):
        path = tmp_path / "g.edges"
        path.write_text(text)
        proc = run_cli("metrics", str(path), *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_value_beyond_float_range_exit_2_no_file(self, tmp_path, capsys, fmt):
        path, out = tmp_path / "g.edges", tmp_path / "out"
        path.write_text("".join(f"w {u} {10**400}/1 1\n" for u in range(3)) + "0 1\n1 2\n")
        code = cli.main(["metrics", str(path), "--weighted", "--format", fmt, "-o", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: a value is beyond the float range of the decimal field\n"
        )
        assert not out.exists()

    def test_huge_weights_give_strict_json(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("".join(f"w {u} 1e308 1e308\n" for u in range(3)) + "0 1\n1 2\n")
        proc = run_cli("metrics", str(path), "--weighted")
        assert proc.returncode == 0
        entry = json.loads(proc.stdout, parse_constant=_reject_constant)["weighted_vat"]
        assert F(entry["num"], entry["den"]) == F(10**308, 10**308 + 1)
        assert entry["witness"] == [1]

    @pytest.mark.parametrize("n, spec", [(20000, "cycle:20000"), (30000, "path:30000")])
    def test_lambda2_over_memory_budget_exit_2_one_line(self, n, spec):
        # Lanczos gives up on these spectra, and the dense matrix is over budget
        proc = run_cli("metrics", spec, "--lambda2", preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: n={n}: Lanczos gave up and a dense solve exceeds 256 MiB\n"

    def test_lambda2_lanczos_within_memory_budget(self):
        spec = "random_regular:20000,3,seed=1"
        proc = run_cli("metrics", spec, "--lambda2", preexec_fn=limit_memory)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["spectral_gap"]["real"] == pytest.approx(1 - record["lambda2"]["real"])

    def test_star_json(self):
        proc = run_cli("metrics", "star:5", "--vat", "--conductance")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["vat"] == {"num": 1, "den": 5, "real": 0.2, "witness": [0]}
        assert record["conductance"]["num"] == 1
        assert record["conductance"]["den"] == 1

    def test_file_round_trip_matches_memory(self, tmp_path):
        out = tmp_path / "c6.edges"
        run_cli("gen", "cycle:6", "-o", str(out))
        proc = run_cli(
            "metrics", str(out), "--vat", "--conductance", "--lambda2"
        )
        record = json.loads(proc.stdout)
        assert F(record["vat"]["num"], record["vat"]["den"]) == F(2, 3)
        assert F(record["conductance"]["num"], record["conductance"]["den"]) == F(1, 3)
        assert record["lambda2"]["real"] == pytest.approx(0.5, abs=1e-9)
        g = vt.cycle(6)
        assert record["vat"]["witness"] == vt.vat_exact(g).witness_vertices

    def test_disconnected_rejected_without_flag(self, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("0 1\n2 3\n")
        proc = run_cli("metrics", str(path), "--vat")
        assert proc.returncode == 2
        proc = run_cli("metrics", str(path), "--vat", "--restrict-lcc")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["restricted_to_largest_component"] is True
        assert record["n"] == 2

    def test_restrict_lcc_of_a_huge_input_exit_2_one_line(self, tmp_path):
        # Two 100,000-cycles: their bit masks ran out of the 2 GiB address space.
        n = 100_000
        path = tmp_path / "two.edges"
        path.write_text("".join(f"{c + i} {c + (i + 1) % n}\n" for c in (0, n) for i in range(n)))
        proc = run_cli("metrics", str(path), "--restrict-lcc", "--vat", preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stderr == f"error: n={n} exceeds the hard cap 24\n"

    def test_csv_matches_json_values(self, tmp_path):
        js = run_cli("metrics", "cycle:6", "--vat", "--conductance")
        cs = run_cli("metrics", "cycle:6", "--vat", "--conductance", "--format", "csv")
        record = json.loads(js.stdout)
        rows = {r["metric"]: r for r in csv.DictReader(cs.stdout.splitlines())}
        for metric in ("vat", "conductance"):
            assert int(rows[metric]["num"]) == record[metric]["num"]
            assert int(rows[metric]["den"]) == record[metric]["den"]
            assert float(rows[metric]["real"]) == record[metric]["real"]
            assert rows[metric]["witness"] == " ".join(
                map(str, record[metric]["witness"])
            )

    def test_weighted_and_alpha_beta(self):
        proc = run_cli("metrics", "star:5", "--weighted", "--alpha-beta", "2,0")
        record = json.loads(proc.stdout)
        assert record["weighted_vat"]["num"] == 1
        assert record["alpha_beta_vat"] == {
            "num": 2,
            "den": 5,
            "real": 0.4,
            "witness": [0],
            "parameters": "alpha=2 beta=0",
        }

    def test_csv_bytes_pinned(self):
        args = ["metrics", "star:5", "--vat", "--conductance", "--weighted"]
        args += ["--alpha-beta", "1.5,0.5", "--format", "csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "vattol.cli", *args], capture_output=True, timeout=300
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == (
            b"graph_id,n,m,d,metric,parameters,num,den,real,witness\n"
            b"star:5,6,5,,vat,,1,5,0.2,0\n"
            b"star:5,6,5,,conductance,,1,1,1,0\n"
            b"star:5,6,5,,alpha_beta_vat,alpha=1.5 beta=0.5,2,5,0.4,0\n"
            b"star:5,6,5,,weighted_vat,,1,5,0.2,0\n"
        )

    def test_alpha_beta_label_is_the_decimal_read(self):
        proc = run_cli(
            "metrics", "cycle:5", "--alpha-beta", "0.1234567,0", "--format", "csv"
        )
        (row,) = csv.DictReader(proc.stdout.splitlines())
        assert row["parameters"] == "alpha=0.1234567 beta=0"
        assert (row["num"], row["den"]) == ("1234567", "10000000")


class TestVerify:
    def test_cycles_all_hold(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli(
            "verify", "--family", "cycle", "--n", "3..12", "--checks", "all",
            "-o", str(out),
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len({r["graph_id"] for r in rows}) == 10
        assert all(r["holds"] in ("true", "") for r in rows)

    def test_exhaustive_selection(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = run_cli(
            "verify", "--exhaustive", "6", "2", "--checks", "vat_lower",
            "-o", str(out),
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["graph_id"] for r in rows] == [f"exhaustive:6,2,i={i}" for i in range(60)]
        assert all(r["holds"] == "true" for r in rows)

    def test_k2_equality_reported(self):
        proc = run_cli(
            "verify", "--family", "complete", "--n", "2..2",
            "--checks", "vat_lower", "-o", "/dev/null",
        )
        assert proc.returncode == 0
        assert "equality cases for vat_lower: complete:2" in proc.stderr

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_exit_2_one_line(self, tolerance):
        # The tolerance is the fixed SPECTRAL_TOL; any --tolerance is a usage error.
        proc = run_cli(
            "verify", "--family", "cycle", "--n", "3..5", "--tolerance", tolerance
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_json_csv_identical_values(self, tmp_path):
        args = ["verify", "--family", "cycle", "--n", "3..8", "--checks", "all"]
        cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
        assert run_cli(*args, "--format", "csv", "-o", str(cpath)).returncode == 0
        assert run_cli(*args, "--format", "json", "-o", str(jpath)).returncode == 0
        crows = list(csv.DictReader(cpath.read_text().splitlines()))
        jrows = json.loads(jpath.read_text())
        assert len(crows) == len(jrows)
        for c, j in zip(crows, jrows):
            assert c["graph_id"] == j["graph_id"]
            assert c["theorem"] == j["theorem"]
            assert int(c["n"]) == j["n"] and int(c["m"]) == j["m"]
            for side in ("lhs", "rhs"):
                if j[side] is None:
                    assert c[f"{side}_num"] == "" and c[f"{side}_real"] == ""
                    continue
                if "num" in j[side]:
                    assert int(c[f"{side}_num"]) == j[side]["num"]
                    assert int(c[f"{side}_den"]) == j[side]["den"]
                assert float(c[f"{side}_real"]) == j[side]["real"]
            holds = {"true": True, "false": False, "": None}[c["holds"]]
            assert holds == j["holds"]

    def test_spec_selection(self):
        proc = run_cli(
            "verify", "--spec", "circulant:8,1+4", "--checks", "cheeger",
            "-o", "/dev/null",
        )
        assert proc.returncode == 0

    def test_empty_selection_exit_2(self):
        proc = run_cli("verify", "--checks", "all")
        assert proc.returncode == 2

    def test_unknown_check_exit_2(self):
        proc = run_cli("verify", "--family", "cycle", "--n", "3..4", "--checks", "bogus")
        assert proc.returncode == 2

    def test_no_check_selected_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli.main(["verify", "--spec", "cycle:5", "--checks", ",", "-o", str(out)])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: no check selected; known: all, cheeger, ")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_all_mixed_with_a_group_exit_2_one_line(self):
        proc = run_cli("verify", "--spec", "cycle:4", "--checks", "all,cheeger")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: 'all' selects every check group; list it alone\n"

    @pytest.mark.parametrize(
        "selection",
        [
            ["--family", "random_regular", "--n", "5..6"],
            ["--family", "circulant", "--n", "5..6"],
            ["--family", "cycle"],
            ["--family", "cycle", "--n", "6..3"],
            ["--spec", "cycle"],
            ["--spec", "nosuch:3"],
            ["--exhaustive", "9", "3"],
            ["--spec", "cycle:2"],
            ["--family", "star", "--n", "1..3"],
            ["--family", "hypercube", "--n", "5..7"],
            ["--files", "no/such/dir/graph.edges"],
            ["--spec", "cycle:4", "--n", "3..5"],
            ["--family", "petersen", "--n", "3..5"],
            ["--corpus", "standard", "--seed", "7"],
            ["--spec", "cycle:5", "--seed", "7"],
            ["--family", "cycle", "--n", "3..100000000"],
            ["--spec", "complete:50000"],
            ["--spec", "random_regular:100000000,3,seed=1"],
        ],
    )
    def test_bad_family_selection_exit_2_one_line(self, selection):
        proc = run_cli("verify", *selection, preexec_fn=limit_memory)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_malformed_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 zero\n")
        proc = run_cli("verify", "--files", str(bad))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_graphs_counts_each_graph_checked(self):
        proc = run_cli("verify", "--spec", "cycle:4", "--spec", "cycle:4", "--checks", "vat_lower")
        assert proc.returncode == 0
        assert proc.stderr.startswith("graphs=2 reports=2 ")

    def test_repeated_check_group_runs_once(self):
        proc = run_cli("verify", "--spec", "cycle:6", "--checks", "vat_lower,vat_lower")
        assert proc.returncode == 0
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert [r["theorem"] for r in rows] == ["vat_lower"]
        assert proc.stderr.startswith("graphs=1 reports=1 ")


    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("csv", "596767de40c5d7117240f52b7bebd86ef395d6cc821e89daf79985f94b8b229c"),
            ("json", "17fbbbd8717949675a34476e57594229ee0e7f168a67db0b99fe3f7ee586c980"),
        ],
    )
    def test_standard_corpus_bytes_pinned(self, tmp_path, fmt, digest, jobs):
        # Pinned before the writer memoized sides and witnesses, and before
        # the JSON was spliced from the row table as the CSV is; at --jobs 2
        # both come as text from the pool.
        out = tmp_path / f"r.{fmt}"
        proc = run_cli(
            "verify", "--corpus", "standard", "--jobs", jobs, "--format", fmt,
            "-o", str(out),
        )
        assert proc.returncode == 0
        assert proc.stderr.startswith(
            "graphs=243 reports=3159 holds=2544 strict=1781 failed=0 skipped=615\n"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_theorem_corpus_json_bytes_pinned(self, tmp_path):
        # Pinned at the JSON splice from the row table, before any rewrite of it.
        out = tmp_path / "theorem.json"
        proc = run_cli(
            "verify", "--corpus", "theorem", "--format", "json", "--jobs", "2",
            "-o", str(out),
        )
        assert proc.returncode == 0
        assert proc.stderr.startswith(
            "graphs=45951 reports=597363 holds=505460 strict=365829 failed=0 skipped=91903\n"
        )
        digest = hashlib.sha256()
        with open(out, "rb") as fh:  # about 178 MB, so hashed in blocks
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        pinned = "988afb16650a5e2a7083ea023e51dcf70e22a129076b9129de07f54eb58cd87b"
        assert digest.hexdigest() == pinned

    @pytest.fixture(scope="class")
    def standard_summary(self):
        return vt.run_suite(vt.standard_corpus()).summary.lines()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_stderr_is_the_library_summary(self, standard_summary, jobs):
        proc = run_cli("verify", "--corpus", "standard", "--jobs", jobs, "-o", os.devnull)
        assert proc.returncode == 0
        assert "equality cases for vat_lower: complete:2," in standard_summary
        assert proc.stderr == standard_summary


class TestCsvWriter:
    """The row table's CSV text is byte-equal to ``csv.writer`` over
    ``report_to_csv_row`` of the same graphs' reports, and its JSON text
    to ``json.dumps`` over their ``report_to_json``."""

    @staticmethod
    def cache(graph_id, g, gap=None, **fields):
        """A graph whose results are set by hand; ``fields`` replace those
        of its exact record."""
        return Given(graph_id, g, gap, fields)

    @staticmethod
    def written(entries, jobs=1):
        """The CSV and JSON text that ``write_reports`` gives the ``entries``
        graphs at ``jobs``, with their hand-set results, then the summary."""
        out = []
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with given_results(entries, jobs):
                summary = verify.write_reports([e.item for e in entries], "all", jobs, fmt, buf)
            out.append(buf.getvalue())
        return (*out, summary.lines())

    @staticmethod
    def reports(entry):
        """The reports of one of the ``entries``, a suite batch of one."""
        with given_results([entry]):
            return vt.run_suite([entry.item]).reports

    def expected(self, entries):
        """The CSV and JSON text of the ``entries``' reports, one report at a time."""
        reports = [r for entry in entries for r in self.reports(entry)]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(verify.VERIFY_CSV_COLUMNS)
        writer.writerows(map(verify.report_to_csv_row, reports))
        records = (
            "\n " + json.dumps(verify.report_to_json(r), separators=(", ", ": "))
            for r in reports
        )
        return buf.getvalue(), "[" + ",".join(records) + "\n]\n"

    def test_equal_values_that_print_apart(self):
        k2, c6 = vt.complete(2), vt.cycle(6)
        half = {"phi_num": 1, "phi_den": 2}
        entries = [
            self.cache("a", k2, gap=1.0, **half),  # gap 1.0 against 2 phi = Fraction(1)
            self.cache("a", k2, gap=0.0, **half),
            self.cache("a", k2, gap=-0.0, **half),  # same (d, tau, phi), prints apart
            self.cache("b", k2, gap=float("nan"), **half),
            self.cache("b", k2, gap=float("nan"), **half),
            self.cache('c,"d', c6, tau_witness=0, phi_witness=0b010101),
            self.cache("pfad·ü", vt.path(4)),  # non-ASCII, in the skip reason too
            self.cache("star", vt.star(3)),
        ]
        text, js, _ = self.written(entries)
        assert (text, js) == self.expected(entries)
        assert '"graph_id": "pfad\\u00b7\\u00fc"' in js
        assert '"skip_reason": "NotRegular: pfad\\u00b7\\u00fc: the check' in js
        rows = text.splitlines()[1:]
        assert rows[1] == "a,2,1,1,cheeger_upper,,,1,1,1,1,true,false,0,S=0"
        assert rows[14] == "a,2,1,1,cheeger_upper,,,0,1,1,1,true,true,1,S=0"
        assert rows[27] == "a,2,1,1,cheeger_upper,,,-0,1,1,1,true,true,1,S=0"
        assert rows[40] == "b,2,1,1,cheeger_upper,,,nan,1,1,1,false,false,nan,S=0"
        assert rows[53] == rows[40]
        assert rows[52 + 13 + 8].startswith('"c,""d",6,6,2,connected_minimizer,')
        assert rows[52 + 13 + 8].endswith(",false,,,")  # no connected minimizer, no witness
        assert rows[52 + 13 + 4].endswith(",S=")  # an empty attack witness
        assert rows[-13] == "star,4,3,,cheeger_lower,,,,,,,,,,"

    def test_skip_reasons_in_one_mixed_batch(self, monkeypatch):
        # Every fallback in one run: precedence is regularity, then the
        # exact record (with the minimizer cap first), then lambda2.
        k2, c6, g18 = vt.complete(2), vt.cycle(6), vt.connected_random_regular(18, 3, 0)[0]
        triangles = vt.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        entries = [
            self.cache("nan", k2, gap=float("nan")),
            self.cache("zero", k2, gap=0.0),
            self.cache("minus-zero", k2, gap=-0.0),
            self.cache("star:4", vt.star(4)),
            self.cache("two triangles", triangles),
            self.cache("n=18", g18, gap=vt.lambda2(g18).gap),
            self.cache("star:30", vt.star(30)),
            self.cache("cycle:25", vt.cycle(25)),
            self.cache("refused", vt.petersen()),  # its eigensolve runs below
            self.cache("every vertex", c6, gap=0.5, tau_witness=vt.full_mask(6)),
            self.cache('c,"q\nü', vt.cycle(7), gap=0.25),
        ]
        monkeypatch.setattr(spectral_mod, "_RESIDUAL_TOL", -1.0)  # refuses every eigenpair
        monkeypatch.setattr(verify, "SUITE_BATCH", 4)
        text, js, summary = self.written(entries)
        assert (text, js) == self.expected(entries)
        assert '"c,\\"q\\n\\u00fc", "n": 7' in js and '"c,""q\nü",7,7,2,' in text
        reasons = {
            (r.graph_id, r.theorem): r.skip_reason for entry in entries for r in self.reports(entry)
        }
        irregular = "the check needs a regular graph"
        disconnected = (
            "DisconnectedInput: graph is disconnected; restrict_to_largest_component() first"
        )
        expected = {
            ("star:4", "cheeger_lower"): f"NotRegular: star:4: {irregular}",
            ("star:4", "conductance_range"): "",
            ("two triangles", "cheeger_lower"): disconnected,
            ("two triangles", "connected_minimizer"): disconnected,
            ("n=18", "cheeger_upper"): "",
            ("n=18", "connected_minimizer"):
                "TooLarge: n=18: all-minimizers enumeration capped at n=16",
            ("star:30", "connected_minimizer"): f"NotRegular: star:30: {irregular}",
            ("star:30", "vat_range"): "TooLarge: n=31 exceeds the hard cap 24",
            ("cycle:25", "connected_minimizer"):
                "TooLarge: cycle:25: all-minimizers enumeration capped at n=16",
            ("cycle:25", "cheeger_lower"): "TooLarge: n=25 exceeds the hard cap 24",
            ("refused", "vat_lower"): "",
            ("every vertex", "fragment_size_bound"):
                "EmptyRemainder: removed every vertex; no component remains",
            ("every vertex", "vat_range"): "",
        }
        assert {key: reasons[key] for key in expected} == expected
        assert reasons["refused", "spectral_vat_upper"].startswith(
            "NoConvergence: eigenpair residual"
        )
        if multiprocessing.get_start_method() == "fork":  # how pool workers see the patch
            assert self.written(entries, jobs=2) == (text, js, summary)

    def test_no_graphs_write_only_the_framing(self):
        header = ",".join(verify.VERIFY_CSV_COLUMNS) + "\n"
        for fmt, expected in [("json", "[\n]\n"), ("csv", header)]:
            buf = io.StringIO()
            summary = verify.write_reports([], "all", 1, fmt, buf)
            assert buf.getvalue() == expected
            assert summary.graphs == summary.total == 0
            assert summary.lines() == "graphs=0 reports=0 holds=0 strict=0 failed=0 skipped=0\n"

    def test_hole_is_a_private_use_character(self):
        # Before Python 3.11 the csv writer refuses a NUL field when no
        # escapechar is set, so the hole is a character that no csv or json
        # version treats specially.
        assert unicodedata.category(verify._HOLE) == "Co"
        assert verify._csv_line(["a", verify._HOLE]) == "a," + verify._HOLE + "\n"
        assert verify._HOLE_JSON == json.dumps(verify._HOLE)

    def test_fresh_witness_dicts_are_not_confused(self):
        # 200 distinct attack witnesses through the witness-text memo.
        g = vt.cycle(10)
        entries = [self.cache(f"g{i}", g, tau_witness=i) for i in range(1, 201)]
        assert self.written(entries)[:2] == self.expected(entries)

    def test_cold_and_warm_table_give_the_same_bytes(self):
        graphs = list(vt.standard_corpus())

        def text(fmt):
            buf = io.StringIO()
            verify.write_reports(graphs, "all", 1, fmt, buf)
            return buf.getvalue()

        for fmt, digest in [
            ("csv", "596767de40c5d7117240f52b7bebd86ef395d6cc821e89daf79985f94b8b229c"),
            ("json", "17fbbbd8717949675a34476e57594229ee0e7f168a67db0b99fe3f7ee586c980"),
        ]:
            memos = verify._entry, verify._graph_entries, verify._witness_line, verify._witness_json
            for memo in memos:
                memo.cache_clear()
            texts = [text(fmt), text(fmt)]  # cold, then warm
            assert verify._entry.cache_info().hits > 0
            assert texts[0] == texts[1]
            assert hashlib.sha256(texts[0].encode()).hexdigest() == digest

    def test_table_stays_within_its_bound(self):
        size = verify._TABLE_SIZE
        for i in range(size + 100):
            verify._entry("vat_lower", (3, 1, i + 2, 1, 3))  # distinct tau
        info = verify._entry.cache_info()
        assert info.maxsize == size and info.currsize == size
        entries = [self.cache(f"c{n}", vt.cycle(n)) for n in range(3, 9)]
        assert self.written(entries)[:2] == self.expected(entries)  # evicted, then rebuilt

    def test_unmet_preconditions_share_one_entry_per_group(self):
        verify._entry.cache_clear()
        entries = [self.cache(f"star:{k}", vt.star(k)) for k in (30, 31)]
        reports = [self.reports(entry) for entry in entries]
        assert verify._entry.cache_info().currsize == len(verify.CHECK_GROUPS)
        assert reports[1][0].skip_reason == "NotRegular: star:31: the check needs a regular graph"
        assert reports[1][-1].skip_reason == "TooLarge: n=32 exceeds the hard cap 24"
        assert self.written(entries)[:2] == self.expected(entries)

    def test_files_path_with_comma_and_quote(self, tmp_path):
        path = tmp_path / 'a,"b.edges'
        path.write_text("0 1\n1 2\n2 0\n")
        proc = run_cli("verify", "--files", str(path), "--checks", "vat_lower")
        assert proc.returncode == 0
        quoted = '"' + str(path).replace('"', '""') + '"'
        assert proc.stdout.splitlines()[1].startswith(quoted + ",3,3,2,vat_lower,")
        (row,) = csv.DictReader(proc.stdout.splitlines())
        assert row["graph_id"] == str(path)


class TestCorpus:
    def test_deterministic_rerun(self, tmp_path):
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        assert run_cli("corpus", "-o", str(d1)).returncode == 0
        assert run_cli("corpus", "-o", str(d2)).returncode == 0
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_manifest_lists_every_graph(self, tmp_path):
        d = tmp_path / "c"
        assert run_cli("corpus", "-o", str(d)).returncode == 0
        rows = list(csv.DictReader((d / "manifest.csv").read_text().splitlines()))
        assert len(rows) == len(vt.standard_corpus())
        for row in rows[:5]:
            g = vt.read_edge_list_path(str(d / row["file"]))
            assert g.n == int(row["n"]) and g.m == int(row["m"])

    def test_unwritable_dir_exit_2(self):
        proc = run_cli("corpus", "-o", "/proc/nope/corpus")
        assert proc.returncode == 2


FUZZ_TOKENS = [str(i) for i in range(12)] + ["-1", "w", "x", "0.5", "inf", "nan", "#"]
fuzz_texts = st.lists(
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4).map(" ".join), max_size=12
).map(lambda lines: "".join(line + "\n" for line in lines))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=100, deadline=None)
@example("0 1\n1 2\n2 0\n")
@example("w 0 0.5 2\n0 1\n1 2\n")
@given(fuzz_texts)
def test_fuzzed_edge_lists_end_in_a_graph_or_a_clean_error(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["metrics", path, "--vat", "--conductance", "--weighted"])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
