import io
import json
import re
import subprocess
import sys

import pytest

from conftest import canonical_text
from racdraw import DocumentError, cli, read_drawing
from racdraw.cli import main


@pytest.fixture()
def k16_file(tmp_path):
    path = tmp_path / "k16.json"
    assert main(["draw", "--n", "16", "--complete", "--out", str(path)]) == 0
    return path


class TestDraw:
    def test_complete_writes_document(self, k16_file):
        doc = json.loads(k16_file.read_text())
        assert doc["m"] == "120"
        assert doc["n"] == "16"

    def test_stdout(self, capsys):
        assert main(["draw", "--n", "2", "--complete", "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == "1"

    def test_from_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("n 5\n0 4\n")
        assert main(["draw", "--input", str(edges), "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == "5" and doc["m"] == "1"

    def test_empty_graph_is_usage_error(self, capsys):
        assert main(["draw", "--n", "0", "--complete"]) == 2
        assert "empty graph" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["draw"]) == 2
        edges = tmp_path / "g.edges"
        edges.write_text("n 2\n0 1\n")
        assert main(["draw", "--n", "2", "--input", str(edges)]) == 2
        assert main(["draw", "--input", str(edges), "--complete"]) == 2
        assert "--complete requires --n" in capsys.readouterr().err

    def test_large_l_needs_override(self, capsys):
        assert main(["draw", "--n", "65537", "--complete", "--out", "-"]) == 2
        assert "--allow-large" in capsys.readouterr().err

    def test_large_complete_graph_needs_override(self, monkeypatch, capsys):
        # K1448 has 1,047,628 edges, under 2**20; K1449 has 1,049,076. K65536
        # passes the l cap (l = 16) with 2,147,450,880 edges. A stand-in
        # drawing is written in place of any that passes.
        drawn, draw_complete = [], cli.draw_complete

        def stand_in(n):
            drawn.append(n)
            return draw_complete(2)

        monkeypatch.setattr(cli, "draw_complete", stand_in)
        assert main(["draw", "--n", "65536", "--complete", "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert "K65536 has 2147450880 edges" in err and "--allow-large" in err
        assert main(["draw", "--n", "1449", "--complete", "--out", "-"]) == 2
        assert main(["draw", "--n", "1448", "--complete", "--out", "-"]) == 0
        assert main(["draw", "--n", "1449", "--complete", "--allow-large", "--out", "-"]) == 0
        assert drawn == [1448, 1449]

    def test_edge_list_on_stdin(self, monkeypatch, capsys):
        # Edge lists are read as bytes and decoded as ASCII on both paths.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"n 5\r\n0 4\r\n")))
        assert main(["draw", "--input", "-", "--out", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == "5" and doc["m"] == "1"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO("n 5\n0 ４\n".encode())))
        assert main(["draw", "--input", "-", "--out", "-"]) == 2
        assert "ascii" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--input", "--out"])
    def test_os_error_is_usage_error(self, tmp_path, capsys, option):
        path = tmp_path / "missing" / "file"
        source = [] if option == "--input" else ["--n", "2"]
        assert main(["draw", *source, option, str(path)]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(path) in err

    def test_parse_error_surfaces_line(self, tmp_path, capsys):
        edges = tmp_path / "bad.edges"
        edges.write_text("n 3\n0 0\n")
        assert main(["draw", "--input", str(edges), "--out", "-"]) == 2
        assert "line 2" in capsys.readouterr().err


class TestValidate:
    def test_clean_drawing_exits_zero(self, k16_file, capsys):
        assert main(["validate", str(k16_file)]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "certified RAC: yes" in out

    def test_corrupted_drawing_exits_one(self, k16_file, tmp_path, capsys):
        doc = json.loads(k16_file.read_text())
        doc["edges"][3]["bends"][1][0] = str(int(doc["edges"][3]["bends"][1][0]) + 1)
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_text(doc))
        assert main(["validate", str(bad)]) == 1
        assert "certified RAC: NO" in capsys.readouterr().out

    def test_modes_write_identical_reports(self, k16_file, tmp_path, capsys):
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        assert main(["validate", str(k16_file), "--mode", "brute", "--report", str(rep_a)]) == 0
        assert main(["validate", str(k16_file), "--mode", "filtered", "--report", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()
        report = json.loads(rep_a.read_text())
        assert report["crossing_count"] == 7760
        assert report["violations"] == []

    def test_report_to_stdout_is_the_report_alone(self, k16_file, tmp_path, capsysbinary):
        # With the report on stdout, the verdict goes to stderr, so stdout
        # holds the very bytes a report file gets.
        path = tmp_path / "r.json"
        assert main(["validate", str(k16_file), "--report", str(path)]) == 0
        capsysbinary.readouterr()
        assert main(["validate", str(k16_file), "--report", "-"]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out == path.read_bytes()
        assert captured.err.endswith(b"certified RAC: yes\n")

    def test_report_is_written_from_its_chunks(
        self, k16_file, tmp_path, k16_filtered, monkeypatch
    ):
        # The report file is written chunk by chunk, never joined whole.
        want = k16_filtered[0].to_json_bytes() + b"\n"

        def refuse(report):
            raise AssertionError("report joined")

        monkeypatch.setattr("racdraw.model.CrossingReport.to_json_bytes", refuse)
        path = tmp_path / "r.json"
        assert main(["validate", str(k16_file), "--report", str(path)]) == 0
        assert path.read_bytes() == want

    def test_refused_report_prints_no_verdict(self, k16_file, tmp_path, monkeypatch, capsys):
        # A report above the listing limit is a usage error: nothing may
        # read as a certificate, and no file is written.
        monkeypatch.setattr("racdraw.model.LISTING_LIMIT", 100)
        out = tmp_path / "r.json"
        assert main(["validate", str(k16_file), "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "7760 crossings exceed the listing limit 100" in captured.err
        assert not out.exists()

    def test_garbage_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 2

    def test_non_canonical_layout_is_usage_error(self, k16_file, tmp_path, capsys):
        # json.dump's default separators put a space after "," and ":".
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(json.loads(k16_file.read_text())))
        assert main(["validate", str(loose)]) == 2
        assert 'sorted keys and separators "," and ":"' in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_carriage_return_ending_is_usage_error(
        self, k16_file, tmp_path, monkeypatch, capsys, ending, source
    ):
        # A file, stdin and read_drawing all take the same bytes: the
        # writer's, plus at most one "\n", with no newline translated.
        path = tmp_path / "cr.json"
        path.write_bytes(k16_file.read_bytes().removesuffix(b"\n") + ending)
        if source == "stdin":
            stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), newline="\n")
            monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["validate", str(path) if source == "file" else "-"]) == 2
        assert "sorted keys and separators" in capsys.readouterr().err
        with pytest.raises(DocumentError, match="sorted keys and separators"):
            read_drawing(str(path))

    def test_overlong_integer_is_usage_error(self, k16_file, tmp_path, capsys):
        doc = json.loads(k16_file.read_text())
        doc["vertices"][0]["x"] = "1" * 5000
        bad = tmp_path / "long.json"
        bad.write_text(canonical_text(doc))
        assert main(["validate", str(bad)]) == 2
        assert "vertex.x" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["stats"], ["svg", "--out", "-"]])
    def test_coordinates_beyond_float_range(self, tmp_path, capsys, command):
        # Exact ints far past float range load and certify, and stats works
        # from integers alone; only the SVG viewport needs floats.
        small = tmp_path / "k5.json"
        assert main(["draw", "--n", "5", "--complete", "--out", str(small)]) == 0
        assert main(["stats", str(small), "--json"]) == 0
        small_area = int(json.loads(capsys.readouterr().out)["area"])
        doc = json.loads(small.read_text())
        big = 10**400
        for vertex in doc["vertices"]:
            vertex["x"] = str(int(vertex["x"]) * big)
        for edge in doc["edges"]:
            edge["bends"] = [[str(int(x) * big), y] for x, y in edge["bends"]]
        huge = tmp_path / "huge.json"
        huge.write_text(canonical_text(doc))
        status = main([command[0], str(huge), *command[1:]])
        captured = capsys.readouterr()
        if command == ["stats"]:
            assert status == 0
            assert f"area             {small_area * big}\n" in captured.out
            assert re.search(r"^area / n\^2\.75    [0-9]{390,}\.[0-9]{4}$", captured.out, re.M)
        else:
            assert status == 2
            assert "too large" in captured.err


class TestStats:
    def test_text(self, k16_file, capsys):
        assert main(["stats", str(k16_file)]) == 0
        out = capsys.readouterr().out
        assert "area             47882" in out
        assert "bends per edge   6" in out

    def test_json(self, k16_file, capsys):
        assert main(["stats", str(k16_file), "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"area": "47882", "area_ratio": "23.3799", "bends_per_edge": 6, '
            '"crossing_count": 7760, "height": "269", "m": 120, "n": 16, '
            '"pair_counts": {"S2xS3": 5265, "S3xS4": 1065, "S4xS5": 1430}, '
            '"violation_count": 0, "width": "178"}\n'
        )


class TestSvg:
    def test_writes_svg(self, k16_file, tmp_path):
        out = tmp_path / "k16.svg"
        assert main(["svg", str(k16_file), "--out", str(out), "--color-classes"]) == 0
        assert out.read_text().startswith("<?xml")

    def test_marks_crossings(self, tmp_path, capsys):
        small = tmp_path / "k5.json"
        assert main(["draw", "--n", "5", "--complete", "--out", str(small)]) == 0
        capsys.readouterr()
        assert main(["svg", str(small), "--mark-crossings", "--out", "-"]) == 0
        assert "crossings" in capsys.readouterr().out

    def test_refused_markers_write_no_file(self, k16_file, tmp_path, monkeypatch, capsys):
        # The SVG's chunks are written as they are spelled, but the crossing
        # listing is refused before the file is opened.
        monkeypatch.setattr("racdraw.model.LISTING_LIMIT", 100)
        out = tmp_path / "marked.svg"
        assert main(["svg", str(k16_file), "--mark-crossings", "--out", str(out)]) == 2
        assert "7760 crossings exceed the listing limit 100" in capsys.readouterr().err
        assert not out.exists()

    def test_viewport_beyond_float_range_is_usage_error(self, k16_file, tmp_path, capsys):
        out = tmp_path / "big.svg"
        assert main(["svg", str(k16_file), "--scale", "1e307", "--out", str(out)]) == 2
        assert "scale 1e+307" in capsys.readouterr().err
        assert not out.exists()


def test_draw_validate_compose_via_pipe():
    pipeline = (
        f"{sys.executable} -m racdraw draw --n 5 --complete --out - | "
        f"{sys.executable} -m racdraw validate -"
    )
    proc = subprocess.run(
        pipeline, shell=True, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "certified RAC: yes" in proc.stdout
