import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vattol as vt
from vattol import cli, verify

F = Fraction


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "vattol.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


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

    def test_bad_parameter_exit_2(self):
        proc = run_cli("gen", "cycle:2")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_family_usage_exit_2_one_line(self):
        proc = run_cli("gen", "circulant:8")
        assert proc.returncode == 2
        assert proc.stderr == "error: circulant spec needs 'n,o1+o2+..': 'circulant:8'\n"

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

    def test_huge_weights_give_strict_json(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("".join(f"w {u} 1e308 1e308\n" for u in range(3)) + "0 1\n1 2\n")
        proc = run_cli("metrics", str(path), "--weighted")
        assert proc.returncode == 0
        entry = json.loads(proc.stdout, parse_constant=_reject_constant)["weighted_vat"]
        assert F(entry["num"], entry["den"]) == F(10**308, 10**308 + 1)
        assert entry["witness"] == [1]

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
        ],
    )
    def test_bad_family_selection_exit_2_one_line(self, selection):
        proc = run_cli("verify", *selection)
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
        # Pinned before the writer memoized sides and witnesses; at
        # --jobs 2 the JSON comes from reports pickled by the pool.
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
    ``report_to_csv_row`` of the same graphs' reports."""

    @staticmethod
    def cache(graph_id, g, gap=None, **fields):
        """A cache whose results are set by hand, as the prefill would;
        ``fields`` replace those of the graph's exact record."""
        cache = verify.MetricCache(g, graph_id)
        cache.exact = vt.exact_batch([g])[0]._replace(**fields)
        if gap is not None:
            cache.spectral = vt.SpectralResult(1 - gap, gap, 0.0, g.n)
        return cache

    @staticmethod
    def written(caches):
        buf = io.StringIO()
        batch = verify._render(caches, verify.CHECK_GROUPS, text=True)
        cli._write_reports_csv([batch], buf)
        return buf.getvalue()

    @staticmethod
    def expected(caches):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(verify.VERIFY_CSV_COLUMNS)
        for cache in caches:
            for r in vt.evaluate_graph(cache):
                writer.writerow(verify.report_to_csv_row(r))
        return buf.getvalue()

    def test_equal_values_that_print_apart(self):
        k2, c6 = vt.complete(2), vt.cycle(6)
        half = {"phi_num": 1, "phi_den": 2}
        caches = [
            self.cache("a", k2, gap=1.0, **half),  # gap 1.0 against 2 phi = Fraction(1)
            self.cache("a", k2, gap=0.0, **half),
            self.cache("a", k2, gap=-0.0, **half),  # same (d, tau, phi), prints apart
            self.cache("b", k2, gap=float("nan"), **half),
            self.cache("b", k2, gap=float("nan"), **half),
            self.cache('c,"d', c6, tau_witness=0, minimizers=np.array([0b010101])),
            self.cache("star", vt.star(3)),
        ]
        text = self.written(caches)
        assert text == self.expected(caches)
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

    def test_fresh_witness_dicts_are_not_confused(self):
        # 200 distinct attack witnesses through the witness-text memo.
        g = vt.cycle(10)
        caches = [self.cache(f"g{i}", g, tau_witness=i) for i in range(1, 201)]
        assert self.written(caches) == self.expected(caches)

    def test_cold_and_warm_table_give_the_same_bytes(self):
        graphs = list(vt.standard_corpus())

        def text():
            buf = io.StringIO()
            cli._write_reports_csv(verify._suite_batches(graphs, "all", 1, True), buf)
            return buf.getvalue()

        for memo in (verify._entry, verify._witness_line):
            memo.cache_clear()
        texts = [text(), text()]  # cold, then warm
        assert verify._entry.cache_info().hits > 0
        assert texts[0] == texts[1]
        digest = hashlib.sha256(texts[0].encode()).hexdigest()
        assert digest == "596767de40c5d7117240f52b7bebd86ef395d6cc821e89daf79985f94b8b229c"

    def test_table_stays_within_its_bound(self):
        size = verify._TABLE_SIZE
        for i in range(size + 100):
            verify._entry("vat_lower", (3, 1, i + 2, 1, 3))  # distinct tau
        info = verify._entry.cache_info()
        assert info.maxsize == size and info.currsize == size
        caches = [self.cache(f"c{n}", vt.cycle(n)) for n in range(3, 9)]
        assert self.written(caches) == self.expected(caches)  # evicted, then rebuilt

    def test_unmet_preconditions_share_one_entry_per_group(self):
        verify._entry.cache_clear()
        caches = [verify.MetricCache(vt.star(k), f"star:{k}") for k in (30, 31)]
        reports = [vt.evaluate_graph(cache) for cache in caches]
        assert verify._entry.cache_info().currsize == len(verify.CHECK_GROUPS)
        assert reports[1][0].skip_reason == "NotRegular: star:31: the check needs a regular graph"
        assert reports[1][-1].skip_reason == "TooLarge: n=32 exceeds the hard cap 24"
        assert self.written(caches) == self.expected(caches)

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
