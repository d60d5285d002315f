import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from bookcross.cli import _build_parser, main
from bookcross.drawings import count_crossings, from_json
from bookcross.enumeration import canonical_form, count_formula

from conftest import pairwise_crossing_total


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env() -> dict:
    """This environment with ``src/`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def cli_process(*argv, stdout=subprocess.PIPE):
    """``python -m bookcross.cli ARGV`` in a child that imports bookcross from
    ``src/``, with stderr (and by default stdout) as a text pipe."""
    return subprocess.Popen(
        [sys.executable, "-m", "bookcross.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=_src_env(), text=True,
    )


# Imports bookcross and bookcross.cli, runs main(ARGV) when ARGV is given,
# and writes a JSON report as the last line of stderr: whether numpy was
# loaded after the imports and after the run, and the bookcross submodules
# loaded at the end; exits with main's code.
_PROBE = """
import json, sys
import bookcross, bookcross.cli
numpy = ["numpy" in sys.modules]
code = bookcross.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
numpy.append("numpy" in sys.modules)
modules = sorted(name for name in sys.modules if name.startswith("bookcross."))
print(json.dumps({"numpy": numpy, "modules": modules}), file=sys.stderr)
sys.exit(code)
"""


def import_probe(*argv, stdin: str = "") -> tuple[int, str, list[str], dict]:
    """Run ``_PROBE`` in a fresh interpreter (the test process has numpy and
    every bookcross module loaded already): its exit code, its stdout, the
    lines of stderr before the report, and the report."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        input=stdin, capture_output=True, env=_src_env(), text=True, timeout=120,
    )
    *err, report = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, err, json.loads(report)


def _log_record(m, n, k, canonical='"000001111"', nodes="0", millis="0.1"):
    """One ``--log`` line with each field's JSON token given as it is written."""
    return (
        f'{{"m": {m}, "n": {n}, "k": {k}, "canonical_string": {canonical}, '
        f'"verdict": "not_colorable", "nodes": {nodes}, "millis": {millis}}}\n'
    )


class TestCountDrawings:
    def test_5_7(self, capsys):
        code, out, _ = run(capsys, "count-drawings", "5", "7")
        assert code == 0
        assert out.strip() == "38"

    def test_4_5(self, capsys):
        code, out, _ = run(capsys, "count-drawings", "4", "5")
        assert code == 0 and out.strip() == "10"

    def test_long_word_counts_at_once(self):
        # one gcd per rotation, 10^11 of them, took hours
        with cli_process("count-drawings", "99999999999", "1") as proc:
            try:
                out, err = proc.communicate(timeout=20)
            finally:
                proc.kill()
        assert (proc.returncode, out, err) == (0, "1\n", "")

    def test_count_beyond_str_digit_limit(self, capsys):
        # 6,014 digits: str() of the int raised "Exceeds the limit (4300 digits)"
        code, out, err = run(capsys, "count-drawings", "10000", "10000")
        assert (code, err) == (0, "")
        assert Decimal(out) == count_formula(10000, 10000)


class TestEnumerate:
    def test_json_emit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "5", "--emit", "json")
        assert code == 0
        strings = json.loads(out)
        assert len(strings) == 10
        assert all(canonical_form(s) == s for s in strings)

    def test_line_emit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1")
        assert code == 0
        assert out.strip() == "01"

    @pytest.mark.parametrize("m,n", [(5, 7), (6, 6)])
    def test_lines_match_json(self, capsys, m, n):
        code, out, _ = run(capsys, "enumerate", str(m), str(n), "--emit", "json")
        assert code == 0
        strings = json.loads(out)
        code, out, _ = run(capsys, "enumerate", str(m), str(n))
        assert code == 0
        assert out == "".join(s + "\n" for s in strings)


    def test_closed_stdout_exits_141_quietly(self):
        # like `bookcross enumerate 9 13 | head -1`: 11,410 lines overfill
        # the pipe, so the reader's close reaches the writer mid-stream
        with cli_process("enumerate", "9", "13") as proc:
            assert proc.stdout.readline() == "0000000000000111111111\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == ""


class TestLazyNumpy:
    """numpy is imported where a page array is first built, so the commands
    that only read layouts, closed forms and colorings never load it."""

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("count-drawings", "5", "7"),
            ("enumerate", "4", "5"),
            ("bounds", "4", "13"),
            ("bounds", "4", "30", "--scan"),
            ("verify-pagenumber", "4", "5", "3", "--jobs", "1"),
            ("verify-pagenumber", "4", "5", "3", "--jobs", "2"),
        ],
        ids=["import", "count-drawings", "enumerate", "bounds", "bounds-scan", "proven-jobs1", "proven-jobs2"],
    )
    def test_never_loaded(self, argv):
        code, out, _, report = import_probe(*argv)
        assert code == 0
        assert report["numpy"] == [False, False]
        if argv[:1] == ("verify-pagenumber",):
            assert out.splitlines()[-1].startswith("proven")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_refuted_witness_loads_it_mid_run(self, jobs):
        code, out, _, report = import_probe("verify-pagenumber", "4", "4", "3", "--jobs", jobs)
        assert code == 1
        assert report["numpy"] == [False, True]
        d = from_json(out.splitlines()[-1])
        assert count_crossings(d).total == 0
        assert pairwise_crossing_total(d) == 0


class TestLazyModules:
    """The CLI imports coloring, drawings and enumeration; bounds,
    constructions, oracle and render load only in the commands that run them."""

    HANDLER_ONLY = {"bookcross.bounds", "bookcross.constructions", "bookcross.oracle", "bookcross.render"}

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("count-drawings", "5", "7"), ""),
            (("enumerate", "4", "5"), ""),
            (("crossings", "-"), '{"m": 1, "n": 2, "k": 1, "order": ["b0", "w0", "w1"], "edges": [[0, 0, 0], [0, 1, 0]]}'),
            (("verify-pagenumber", "4", "5", "3", "--jobs", "1"), ""),
        ],
        ids=["count-drawings", "enumerate", "crossings", "verify-pagenumber"],
    )
    def test_never_loaded(self, argv, stdin):
        code, out, err, report = import_probe(*argv, stdin=stdin)
        assert (code, err) == (0, [])
        assert out
        assert "bookcross.cli" in report["modules"]
        assert not self.HANDLER_ONLY & set(report["modules"])

    def test_oracle_limit_error_exits_2(self):
        code, out, err, _ = import_probe("oracle", "7", "7", "2")
        assert code == 2
        assert out == ""
        assert err == ["oracle limits: m+n = 14 exceeds the oracle limit of 10 vertices"]


class TestConstructAndCrossings:
    def test_blowup_pipe_equivalent(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        code, _, _ = run(capsys, "construct", "blowup", "3", "5", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "crossings", str(path))
        assert code == 0
        assert out.splitlines()[0] == "total 1"

    def test_block_cyclic(self, capsys, tmp_path):
        path = tmp_path / "bc.json"
        run(capsys, "construct", "block-cyclic", "4", "5", "3", "-o", str(path))
        code, out, _ = run(capsys, "crossings", str(path))
        assert code == 0
        assert out.splitlines()[0] == "total 2"

    def test_balanced_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "balanced", "5")
        assert code == 0
        d = from_json(out)
        assert (d.m, d.n, d.k) == (6, 9, 5)
        assert count_crossings(d).total == 0

    def test_riskin_uneven_notes(self, capsys, tmp_path):
        path = tmp_path / "r34.json"
        assert run(capsys, "construct", "riskin", "3", "4", "-o", str(path)) == (0, "", "")
        assert from_json(path.read_text()).k == 1
        code, out, err = run(capsys, "crossings", str(path))
        assert (code, out.splitlines()[0], err) == (0, "total 8", "")

    def test_round_trip_report_identical(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        run(capsys, "construct", "riskin", "3", "6", "-o", str(path))
        d = from_json(path.read_text())
        assert count_crossings(d) == count_crossings(from_json(path.read_text()))

    def test_crossings_reads_stdin(self, capsys, monkeypatch):
        import io

        code, out, _ = run(capsys, "construct", "blowup", "3", "5")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "crossings", "-")
        assert code == 0
        assert out.splitlines()[0] == "total 1"


class TestVerifyPagenumber:
    def test_proven_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1")
        assert code == 0
        lines = out.strip().splitlines()
        logs = [json.loads(s) for s in lines if s.startswith("{")]
        assert len(logs) == 10
        assert all(entry["verdict"] == "not_colorable" for entry in logs)
        assert lines[-1].startswith("proven")

    def test_refuted_exit_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify-pagenumber", "4", "4", "3", "--jobs", "1")
        assert code == 1
        witness_line = out.strip().splitlines()[-1]
        d = from_json(witness_line)
        assert count_crossings(d).total == 0

    def test_budget_exit_two(self, capsys):
        code, out, _ = run(capsys, "verify-pagenumber", "5", "7", "4", "--budget", "1", "--jobs", "1")
        assert code == 2
        assert "inconclusive" in out

    def test_negative_budget_exit_64(self, capsys):
        code, _, err = run(capsys, "verify-pagenumber", "4", "5", "3", "--budget", "-1", "--jobs", "1")
        assert code == 64
        assert "budget" in err
        # 0 is the clique bound alone: every layout is decided or unfinished
        code, out, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--budget", "0", "--jobs", "1")
        assert code == 2
        assert "inconclusive" in out

    def test_nonpositive_jobs_exit_64(self, capsys):
        for jobs in ("0", "-3"):
            code, out, err = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", jobs)
            assert code == 64
            assert "jobs" in err and "proven" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_search_deeper_than_the_recursion_limit_exit_64(self, jobs):
        # K_{2,500} at k = 2 used to exit 1, the refuted code, with a RecursionError traceback
        proc = cli_process("verify-pagenumber", "2", "500", "2", "--jobs", jobs)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 64
        assert out == ""
        assert err.startswith("error: ") and "1000 vertices" in err and "Traceback" not in err

    def test_export_cnf(self, capsys, tmp_path):
        cnf_dir = tmp_path / "cnfs"
        code, _, _ = run(
            capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1",
            "--export-cnf", str(cnf_dir),
        )
        assert code == 0
        files = sorted(cnf_dir.glob("*.cnf"))
        assert len(files) == 10
        head = files[0].read_text().splitlines()[0]
        assert head.startswith("p cnf 60 ")

    def test_log_resume(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        first = log.read_text()
        assert len(first.strip().splitlines()) == 10
        code, out, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("proven")

    def test_log_blank_lines_skipped(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        records = log.read_text().splitlines()
        assert len(records) == 10
        log.write_text("\n \n".join(records) + "\n\n\t\n")
        code, out, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("proven")
        assert log.read_text().splitlines() == records

    def test_log_for_other_k_rejected(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        code, out, err = run(capsys, "verify-pagenumber", "4", "5", "4", "--jobs", "1", "--log", str(log))
        assert code == 65
        assert str(log) in err
        assert "proven" not in out
        # without the k=3 log the same question is refuted by an embedding
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "4", "--jobs", "1")
        assert code == 1

    def test_failed_run_keeps_log(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        first = log.read_bytes()
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "0", "--log", str(log))
        assert code == 64
        assert log.read_bytes() == first
        # a finished rerun replaces the records rather than appending to them
        code, _, _ = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 0
        assert len(log.read_text().splitlines()) == 10

    def test_closed_stdout_keeps_the_whole_log(self, tmp_path):
        # like `verify-pagenumber 7 12 6 --jobs 1 --log F | head -1`: the
        # 1,368 records overfill the pipe, and F must still hold them all
        log = tmp_path / "run.jsonl"
        with cli_process("verify-pagenumber", "7", "12", "6", "--jobs", "1", "--log", str(log)) as proc:
            assert json.loads(proc.stdout.readline())["k"] == 6
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == ""
        assert len(log.read_text().splitlines()) == 1368

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_keeps_every_cnf_file(self, monkeypatch, tmp_path, unbuffered):
        # stdout is already closed when the run starts: the write end of a
        # pipe whose read end is gone, so the first record cannot be written
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        cnf_dir = tmp_path / "cnfs"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process(
                "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--export-cnf", str(cnf_dir), stdout=write_end
            )
        finally:
            os.close(write_end)
        with proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == ""
        assert len(list(cnf_dir.glob("*.cnf"))) == 10

    def test_jobs_default_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _build_parser().parse_args(["verify-pagenumber", "4", "5", "3"]).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _build_parser().parse_args(["verify-pagenumber", "4", "5", "3"]).jobs == 8

    @pytest.mark.parametrize(
        "text, mnk",
        [
            ('{"m": 4, "n": 5, "k": 3, "canonical_string": "000001111", "verd\n', "4 5 3"),
            ('{"m": 4, "n": 5, "k": 3, "verdict": "not_colorable", "nodes": 0, "millis": 0.1}\n', "4 5 3"),
            ('{"canonical_string": "000001111", "verdict": "not_colorable", "nodes": 0, "millis": 0.1}\n', "4 5 3"),
            (
                '{"m": 4, "n": 5, "k": 3, "canonical_string": "000001111", "verdict": "maybe", '
                '"nodes": 0, "millis": 0.1}\n',
                "4 5 3",
            ),
            ("[" * 100_000 + "\n", "4 5 3"),
            (_log_record(4, 5, 3, nodes="1e400"), "4 5 3"),
            (_log_record(4, 5, 3, nodes="1.9"), "4 5 3"),
            (_log_record(4, 5, 3, nodes="true"), "4 5 3"),
            (_log_record(4, 5, 3, nodes="-5"), "4 5 3"),
            (_log_record(4, 5, 3, millis="-1"), "4 5 3"),
            (_log_record(4, 5, 3, millis="NaN"), "4 5 3"),
            (_log_record(4, 5, 3, millis="Infinity"), "4 5 3"),
            (_log_record(4, 5, 3, millis="true"), "4 5 3"),
            (_log_record("3.0", 1, 2, canonical='"0111"'), "3 1 2"),
            (_log_record(3, "true", 2, canonical='"0111"'), "3 1 2"),
            (_log_record(4, 5, 3, canonical="123"), "4 5 3"),
            (_log_record(4, 5, 3, canonical="null"), "4 5 3"),
            (_log_record(4, 5, 3, canonical='"abc"'), "4 5 3"),
            (_log_record(4, 5, 3, canonical='"0000011111"'), "4 5 3"),
            (_log_record(4, 5, 3, canonical='"111100000"'), "4 5 3"),
        ],
        ids=[
            "truncated",
            "no_canonical_string",
            "no_mnk",
            "unknown_verdict",
            "over_deep_nesting",
            "infinite_nodes",
            "fractional_nodes",
            "bool_nodes",
            "negative_nodes",
            "negative_millis",
            "nan_millis",
            "infinite_millis",
            "bool_millis",
            "float_m",
            "bool_n",
            "int_canonical",
            "null_canonical",
            "letters_canonical",
            "wrong_split_canonical",
            "rotated_canonical",
        ],
    )
    def test_malformed_log_exit_65(self, capsys, tmp_path, text, mnk):
        log = tmp_path / "bad.jsonl"
        log.write_text(text)
        code, _, err = run(capsys, "verify-pagenumber", *mnk.split(), "--jobs", "1", "--log", str(log))
        assert code == 65
        assert err.startswith("malformed log file:") and str(log) in err


class TestBounds:
    def test_family_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "5")
        assert code == 0
        rows = json.loads(out)
        exact = [r for r in rows if r["formula"] == "exact_crossing_number"]
        assert exact and exact[0]["value"] == 1

    def test_general_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "10", "10")
        assert code == 0
        rows = json.loads(out)
        sources = {r["formula"] for r in rows}
        assert "block_cyclic_bound" in sources and "general_lower" in sources

    @pytest.mark.parametrize(
        "args, rows",
        [
            (
                ("3", "10", "10"),
                [
                    ["general_lower", "lower", "27", False],
                    ["block_cyclic_bound", "upper", 144, True],
                    ["riskin_value_k1", "exact", 1200, False],
                    ["zarankiewicz_k2", "upper", 400, False],
                ],
            ),
            (
                ("1", "3", "6"),
                [
                    ["general_lower", "lower", "15/4", False],
                    ["block_cyclic_bound", "upper", 45, True],
                    ["riskin_value_k1", "exact", 21, True],
                    ["zarankiewicz_k2", "upper", 6, False],
                ],
            ),
            (
                ("1", "3", "4"),
                [
                    ["general_lower", "lower", "3/2", False],
                    ["block_cyclic_bound", "upper", 18, True],
                    ["riskin_value_k1", "exact", 8, True],
                    ["zarankiewicz_k2", "upper", 2, False],
                ],
            ),
        ],
        ids=["3_10_10", "1_3_6", "1_3_4"],
    )
    def test_general_table_json(self, capsys, args, rows):
        code, out, _ = run(capsys, "bounds", *args)
        assert code == 0
        k, m, n = (int(a) for a in args)
        expected = [
            {"k": k, "m": m, "n": n, "formula": f, "kind": kind, "value": v, "valid": ok}
            for f, kind, v, ok in rows
        ]
        assert out == json.dumps(expected) + "\n"

    def test_one_page_value_at_once(self):
        # a loop over m would take hours here
        with cli_process("bounds", "1", "1000000000000", "999999999999") as proc:
            try:
                out, err = proc.communicate(timeout=20)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (0, "")
        row = json.loads(out)[2]
        assert (row["formula"], row["valid"]) == ("riskin_value_k1", True)
        assert isinstance(row["value"], int)

    def test_scan_flags_known_violation(self, capsys):
        code, out, _ = run(capsys, "bounds", "4", "13", "--scan")
        assert code == 0
        doc = json.loads(out)
        flagged = {(v["k"], v["n"]) for v in doc["violations"]
                   if v["lower"]["formula"] == "multiplanar_lower_even"}
        assert (4, 12) in flagged

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "bounds", "3")
        assert code == 64

    def test_zero_m_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "3", "0", "4")
        assert code == 64
        assert out == ""
        assert "m must be positive" in err and "Traceback" not in err

    def test_negative_m_is_named(self, capsys):
        code, _, err = run(capsys, "bounds", "3", "-1", "4")
        assert code == 64
        assert "m must be positive, got -1" in err

    def test_scan_rejects_three_parameters(self, capsys):
        code, out, err = run(capsys, "bounds", "3", "0", "4", "--scan")
        assert code == 64
        assert out == ""
        assert "--scan" in err

    @pytest.mark.parametrize(
        "args, n",
        [(("3", "0", "--scan"), 0), (("3", "-2", "--scan"), -2), (("3", "4", "-1"), -1)],
        ids=["scan_0", "scan_-2", "family_-1"],
    )
    def test_nonpositive_n_is_named(self, capsys, args, n):
        code, out, err = run(capsys, "bounds", *args)
        assert code == 64
        assert out == ""
        assert f"n must be positive, got {n}" in err


class TestOracle:
    def test_3_3_2(self, capsys):
        code, out, _ = run(capsys, "oracle", "3", "3", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 1
        assert doc["m"] == 3 and doc["k"] == 2

    def test_limits_exit(self, capsys):
        code, _, err = run(capsys, "oracle", "7", "7", "2")
        assert code == 2
        assert "limit" in err

    def test_node_budget_exit(self, capsys):
        # K_{5,6} at k = 2 takes 28,054 nodes
        code, out, _ = run(capsys, "oracle", "5", "6", "2", "--max-vertices", "12", "--node-budget", "28054")
        assert code == 0
        assert json.loads(out)["value"] == 24
        code, out, err = run(capsys, "oracle", "5", "6", "2", "--max-vertices", "12", "--node-budget", "28053")
        assert code == 2
        assert out == ""
        assert "node budget" in err

    @pytest.mark.parametrize(
        "flag, name", [("--node-budget", "node_budget"), ("--max-vertices", "max_vertices"), ("--max-pages", "max_pages")]
    )
    def test_negative_limit_is_a_usage_error(self, capsys, flag, name):
        code, out, err = run(capsys, "oracle", "3", "3", "2", flag, "-1")
        assert code == 64
        assert out == ""
        assert f"{name} must be non-negative, got -1" in err


class TestRender:
    def test_deterministic_svg(self, capsys, tmp_path):
        drawing = tmp_path / "d.json"
        run(capsys, "construct", "balanced", "5", "-o", str(drawing))
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run(capsys, "render", str(drawing), "-o", str(out1))[0] == 0
        assert run(capsys, "render", str(drawing), "-o", str(out2))[0] == 0
        svg = out1.read_text()
        assert svg == out2.read_text()
        assert svg.startswith("<?xml")
        assert svg.count('<g id="page') == 5
        assert "0 crossings" in svg

    def test_single_page_star(self, capsys, tmp_path):
        drawing = tmp_path / "star.json"
        run(capsys, "construct", "riskin", "1", "3", "-o", str(drawing))
        out = tmp_path / "star.svg"
        run(capsys, "render", str(drawing), "-o", str(out))
        assert out.read_text().count('<g id="page') == 1

    def test_annotates_crossings(self, capsys, tmp_path):
        drawing = tmp_path / "bc.json"
        run(capsys, "construct", "block-cyclic", "4", "5", "3", "-o", str(drawing))
        out = tmp_path / "bc.svg"
        run(capsys, "render", str(drawing), "-o", str(out))
        assert "2 crossings total" in out.read_text()


class TestErrors:
    def test_malformed_json_exit_65(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "crossings", str(bad))
        assert code == 65
        assert "malformed" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"m": 0, "n": 1, "k": 0, "order": ["w0"], "edges": []}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w0"], "edges": [["a", 0, 0]]}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w0"], "edges": [[null, 0, 0]]}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", 3], "edges": [[0, 0, 0]]}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w0"], "edges": [[0.7, 0, 0]]}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w\u00b2"], "edges": [[0, 0, 0]]}',
            '{"m": 1, "n": 2, "k": 1, "order": ["b0", "w0", "w\u0661"], "edges": [[0, 0, 0], [0, 1, 0]]}',
            '{"m": 1%s, "n": 1, "k": 1, "order": ["b0", "w0"], "edges": [[0, 0, 0]]}' % ("0" * 5000),
            "[" * 100_000,
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w0"]}',
            '{"m": 1, "n": 1, "k": 1, "order": "b0 w0", "edges": [[0, 0, 0]]}',
            '{"m": 1, "n": 1, "k": 1, "order": ["b0", "w0"], "edges": [[0, 0]]}',
        ],
        ids=[
            "zero_pages", "string_index", "null_index", "numeric_token", "float_index", "superscript_digit",
            "arabic_indic_digit", "over_long_integer", "over_deep_nesting", "missing_field", "order_not_array",
            "edge_not_triple",
        ],
    )
    def test_malformed_drawing_exit_65(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc, encoding="utf-8")
        code, _, err = run(capsys, "crossings", str(bad))
        assert code == 65
        assert err.startswith("malformed drawing file:")

    @pytest.mark.parametrize("command", ["crossings", "render"])
    def test_page_count_beyond_64_bits_exit_65(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1, "n": 1, "k": %d, "order": ["b0", "w0"], "edges": [[0, 0, 0]]}' % 10**20)
        argv = [command, str(bad)] + (["-o", str(tmp_path / "out.svg")] if command == "render" else [])
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert err == f"malformed drawing file: page count k={10**20} above the 1048576 pages a drawing may have\n"
        assert out == "" and not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize(
        "argv",
        [["construct", "block-cyclic", "2", "2", "1000000000000"], ["verify-pagenumber", "--jobs", "1", "2", "3", "10000000"]],
        ids=["construct", "verify"],
    )
    def test_page_count_above_cap_exit_64(self, capsys, argv):
        # construct looped over all 10^12 groups first; verify built per-colour
        # state for 10^7 colours, then printed a witness that crossings refused
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err == f"error: page count k={argv[-1]} above the 1048576 pages a drawing may have\n"

    @pytest.mark.parametrize("command", ["crossings", "render"])
    def test_page_count_above_file_cap_exit_65(self, capsys, tmp_path, command):
        # fits 64 bits, but a page array of 10**12 entries cannot be built
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 1, "n": 1, "k": %d, "order": ["b0", "w0"], "edges": [[0, 0, 0]]}' % 10**12)
        argv = [command, str(bad)] + (["-o", str(tmp_path / "out.svg")] if command == "render" else [])
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert err.startswith("malformed drawing file:") and "1048576 pages" in err
        assert out == "" and not (tmp_path / "out.svg").exists()

    def test_missing_file_exit_65(self, capsys):
        code, _, _ = run(capsys, "crossings", "/no/such/file.json")
        assert code == 65

    @pytest.mark.parametrize(
        "argv",
        [
            ["crossings", "{dir}"],
            ["render", "{dir}", "-o", "{dir}/out.svg"],
            ["verify-pagenumber", "3", "3", "2", "--log", "{dir}"],
            ["construct", "balanced", "3", "-o", "{dir}"],
            ["verify-pagenumber", "3", "3", "2", "--jobs", "1", "--export-cnf", "{file}"],
            ["crossings", "{binary}"],
            ["verify-pagenumber", "3", "3", "2", "--log", "{binary}"],
            ["verify-pagenumber", "3", "3", "2", "--log", "{dir}/missing/run.jsonl"],
        ],
        ids=[
            "read_dir", "render_dir", "log_dir", "write_dir", "cnf_into_file", "binary_drawing", "binary_log",
            "log_in_missing_dir",
        ],
    )
    def test_unusable_path_exit_65(self, capsys, monkeypatch, tmp_path, argv):
        # unreadable input and unwritable output are data errors, not
        # tracebacks with exit 1 (which means "refuted") or usage errors,
        # and verify-pagenumber reports them before it checks any layout
        def no_run(*args, **kwargs):
            pytest.fail("verify_positive_crossing ran before the paths were checked")

        monkeypatch.setattr("bookcross.cli.verify_positive_crossing", no_run)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("x")
        (tmp_path / "binary").write_bytes(b'\xff\xfe{"m": 1}\n')
        paths = {name: str(tmp_path / name) for name in ("dir", "file", "binary")}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 65
        assert err
        assert out == ""

    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("_bracelets", ["enumerate", "99999999999", "1"]),
            ("verify_positive_crossing", ["verify-pagenumber", "99999999999", "1", "1", "--jobs", "1"]),
        ],
    )
    def test_out_of_memory_exit_64(self, capsys, monkeypatch, callee, argv):
        # these sizes used to exit 1, the refuted code, with a MemoryError
        # traceback; the callee raises here in place of allocating
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"bookcross.cli.{callee}", no_memory)
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err == "error: not enough memory for this input\n"

    def test_unknown_command_exit_64(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_args_exit_64(self, capsys):
        assert run(capsys, "count-drawings", "4")[0] == 64
