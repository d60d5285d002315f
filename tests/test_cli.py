import json

import pytest

from bookcross.cli import main
from bookcross.drawings import count_crossings, from_json
from bookcross.enumeration import canonical_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCountDrawings:
    def test_5_7(self, capsys):
        code, out, _ = run(capsys, "count-drawings", "5", "7")
        assert code == 0
        assert out.strip() == "38"

    def test_4_5(self, capsys):
        code, out, _ = run(capsys, "count-drawings", "4", "5")
        assert code == 0 and out.strip() == "10"


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

    def test_riskin_uneven_notes(self, capsys):
        code, out, err = run(capsys, "construct", "riskin", "3", "4")
        assert code == 0
        assert "uneven" in err
        d = from_json(out)
        assert d.k == 1

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

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": 4, "n": 5, "k": 3, "canonical_string": "000001111", "verd\n',
            '{"m": 4, "n": 5, "k": 3, "verdict": "not_colorable", "nodes": 0, "millis": 0.1}\n',
            '{"canonical_string": "000001111", "verdict": "not_colorable", "nodes": 0, "millis": 0.1}\n',
            '{"m": 4, "n": 5, "k": 3, "canonical_string": "000001111", "verdict": "maybe", '
            '"nodes": 0, "millis": 0.1}\n',
        ],
        ids=["truncated", "no_canonical_string", "no_mnk", "unknown_verdict"],
    )
    def test_malformed_log_exit_65(self, capsys, tmp_path, text):
        log = tmp_path / "bad.jsonl"
        log.write_text(text)
        code, _, err = run(capsys, "verify-pagenumber", "4", "5", "3", "--jobs", "1", "--log", str(log))
        assert code == 65
        assert str(log) in err


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
        ],
        ids=["3_10_10", "1_3_6"],
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
        ],
        ids=["zero_pages", "string_index", "null_index", "numeric_token", "float_index"],
    )
    def test_malformed_drawing_exit_65(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, _, err = run(capsys, "crossings", str(bad))
        assert code == 65
        assert err.startswith("malformed drawing file:")

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
        ],
        ids=["read_dir", "render_dir", "log_dir", "write_dir", "cnf_into_file", "binary_drawing", "binary_log"],
    )
    def test_unusable_path_exit_65(self, capsys, tmp_path, argv):
        # unreadable input and unwritable output are data errors, not
        # tracebacks with exit 1 (which means "refuted") or usage errors
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("x")
        (tmp_path / "binary").write_bytes(b'\xff\xfe{"m": 1}\n')
        paths = {name: str(tmp_path / name) for name in ("dir", "file", "binary")}
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 65
        assert err

    def test_unknown_command_exit_64(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_missing_args_exit_64(self, capsys):
        assert run(capsys, "count-drawings", "4")[0] == 64
