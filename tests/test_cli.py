import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from polydisc import asymptotics
from polydisc.cli import _UsageError, main, read_config, write_config, write_svg
from polydisc.constructions import kite4
from polydisc.geometry import PointConfig


def run(*argv):
    return main(list(argv))


class TestConstruct:
    def test_kite(self, tmp_path, capsys):
        out = tmp_path / "kite.json"
        assert run("construct", "--family", "kite4", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["n"] == 4
        assert len(doc["points"]) == 4
        assert doc["meta"]["delta_bar"] == pytest.approx(1.148748, abs=1e-6)

    def test_arc_18(self, tmp_path):
        out = tmp_path / "arc18.json"
        assert run("construct", "--family", "arc", "--n", "18", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["delta_bar"] == pytest.approx(1.283184, abs=1e-6)

    def test_triwave_odd_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = run("construct", "--family", "triwave", "--n", "7", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert "even" in captured.err
        assert not out.exists()

    def test_bad_family_usage_error(self, tmp_path):
        code = run("construct", "--family", "nonsense", "--out",
                   str(tmp_path / "x.json"))
        assert code == 2

    def test_infeasible_amplitude_numeric_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = run("construct", "--family", "triwave", "--n", "8",
                   "--amplitude", "0.5", "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_unwritable_path_io_error(self):
        code = run("construct", "--family", "kite4", "--out",
                   "/nonexistent-dir/kite.json")
        assert code == 3

    def test_svg_output(self, tmp_path):
        out = tmp_path / "kite.json"
        svg = tmp_path / "kite.svg"
        assert run("construct", "--family", "kite4", "--out", str(out),
                   "--svg", str(svg)) == 0
        root = ET.fromstring(svg.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        points = [e for e in root.iter(f"{ns}circle") if e.get("class") == "point"]
        diameters = [e for e in root.iter(f"{ns}line") if e.get("class") == "diameter"]
        assert len(points) == 4
        assert len(diameters) == 4  # the kite has four diameter pairs

    def test_svg_hull_omits_interior_point(self, tmp_path):
        cfg = PointConfig([[1, 0], [0, 1], [-1, 0], [0.1, 0.2], [0, -1]])
        svg = tmp_path / "inner.svg"
        write_svg(str(svg), cfg)
        root = ET.fromstring(svg.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        hull, = [e for e in root.iter(f"{ns}polygon") if e.get("class") == "hull"]
        points = [(e.get("cx"), e.get("cy")) for e in root.iter(f"{ns}circle")
                  if e.get("class") == "point"]
        vertices = [tuple(v.split(",")) for v in hull.get("points").split()]
        assert sorted(vertices) == sorted(points[:3] + points[4:])


class TestRoundTrip:
    def test_exact_coordinates(self, tmp_path):
        rng = np.random.default_rng(4)
        cfg = PointConfig(rng.uniform(-1, 1, (9, 2)))
        path = tmp_path / "cfg.json"
        write_config(str(path), cfg, {"family": "random"})
        loaded, meta = read_config(str(path))
        assert np.array_equal(loaded.points, cfg.points)
        assert meta["family"] == "random"

    def test_evaluate_matches_stored_meta(self, tmp_path, capsys):
        out = tmp_path / "hex.json"
        run("construct", "--family", "hexagon6", "--out", str(out))
        meta = json.loads(out.read_text())["meta"]
        assert run("evaluate", str(out)) == 0
        lines = capsys.readouterr().out
        printed = float([ln for ln in lines.splitlines()
                         if ln.startswith("delta_bar")][0].split("=")[1])
        assert printed == pytest.approx(meta["delta_bar"], rel=1e-12)


class TestEvaluate:
    def test_kite_class_and_residual(self, tmp_path, capsys):
        out = tmp_path / "kite.json"
        run("construct", "--family", "kite4", "--out", str(out))
        assert run("evaluate", str(out)) == 0
        text = capsys.readouterr().out
        assert "OddCycleWithPendants" in text
        assert "kkt_residual" in text

    def test_square_reports_disconnected(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        square = PointConfig([[1, 0], [0, 1], [-1, 0], [0, -1]])
        write_config(str(path), square, {})
        assert run("evaluate", str(path)) == 0
        assert "Disconnected" in capsys.readouterr().out

    def test_nan_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "n": 2, '
                        '"points": [[0, 0], [NaN, 1]], "meta": {}}')
        assert run("evaluate", str(path)) == 2

    def test_missing_file(self):
        assert run("evaluate", "/no/such/file.json") == 3

    # a list in place of an object, and boolean header fields, which equal 1
    @pytest.mark.parametrize("command,text", [
        (command, text)
        for text in ("[[0, 0], [1, 1]]",
                     '{"schema_version": true, "n": 2, "points": [[0, 0], [1, 1]]}',
                     '{"schema_version": 1, "n": true, "points": [[0, 0]]}')
        for command in ("evaluate", "kkt")
    ], ids=["evaluate", "kkt", "evaluate-bool-schema_version", "kkt-bool-schema_version",
            "evaluate-bool-n", "kkt-bool-n"])
    def test_json_list_rejected(self, tmp_path, capsys, command, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        assert run(command, str(path)) == 2
        assert capsys.readouterr().err.startswith("error:")
        with pytest.raises(_UsageError):
            read_config(str(path))

    @pytest.mark.parametrize("command", ["evaluate", "kkt"])
    @pytest.mark.parametrize("points", ['[["a", 0], [1, 1]]', "[[0, 0], [1, 1, 2]]",
                                        "[[0, 0, 0], [1, 1, 1]]", '[["1", "0"], [1, 1]]',
                                        "[[true, 0], [1, 1]]"])
    def test_bad_points_rejected(self, tmp_path, capsys, command, points):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"schema_version": 1, "n": 2, "points": {points}, "meta": {{}}}}')
        assert run(command, str(path)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_point_entries_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"schema_version": 1, "n": 2, "points": [[], []], "meta": {}}')
        with pytest.raises(_UsageError, match="pairs of numbers"):
            read_config(str(path))

    # a diameter past the float range, one too small to rescale to 2, and
    # points so close after rescaling that the stationarity sums overflow
    @pytest.mark.parametrize("command", ["evaluate", "kkt"])
    @pytest.mark.parametrize("points,code", [
        ([[0, 1e308], [0, -1e308]], 2),
        ([[0, 0], [0, 1e308], [0, -1e308]], 2),
        ([[0, 0], [0, 72348.0], [0, 2.012233415076728e-304]], 4),
        ([[0, 0], [0, 5e-324], [1e-323, 0]], 2),
    ])
    def test_extreme_coordinates_exit_cleanly(self, tmp_path, capsys, command, points, code):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"schema_version": 1, "n": len(points), "points": points}))
        assert run(command, str(path)) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err + captured.out


class TestOptimize:
    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["optimize", "--n", "4", "--starts", "4", "--seed", "9"]
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_graph_flag(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("optimize", "--n", "4", "--starts", "4", "--seed", "2",
                   "--graph", "4;1-2,2-3,2-4", "--out", str(out)) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["requested_graph"].startswith("n=4")
        below_kite = meta["delta_bar"] < 1.148748315 - 1e-9
        assert (not meta["achieved_matches_request"]) or below_kite

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "o.json"
        trace = tmp_path / "trace.csv"
        assert run("optimize", "--n", "4", "--starts", "2", "--seed", "1",
                   "--trace-csv", str(trace), "--out", str(out)) == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["start", "round", "step", "merit", "log_delta_bar"]
        assert len(rows) > 2

    @pytest.mark.parametrize("graph", ["4;1-2-3", "4;a-b", "4 1-2"])
    def test_malformed_graph_is_a_usage_error(self, tmp_path, capsys, graph):
        assert run("optimize", "--n", "4", "--graph", graph,
                   "--out", str(tmp_path / "o.json")) == 2
        assert f"bad --graph value: malformed graph text '{graph}'" in capsys.readouterr().err

    def test_threads_flag_is_unknown(self, tmp_path):
        assert run("optimize", "--n", "4", "--threads", "2",
                   "--out", str(tmp_path / "o.json")) == 2


class TestTable:
    def test_arc_column(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run("table", "--n", "12,18,24", "--families", "arc",
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["delta_bar_section4"]) for r in rows]
        assert got == pytest.approx([1.290138, 1.283184, 1.281941], abs=1e-6)
        # consistency: delta_bar = exp(log_delta - n log n)
        for r in rows:
            n = int(r["n"])
            assert float(r["delta_bar"]) == pytest.approx(
                math.exp(float(r["log_delta"]) - n * math.log(n)), rel=1e-9)

    def test_optimize_family_n4(self, tmp_path):
        out = tmp_path / "t4.csv"
        assert run("table", "--n", "4", "--families", "optimize",
                   "--starts", "8", "--seed", "3", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["delta_bar"]) == pytest.approx(1.148748, abs=1e-6)
        assert rows[0]["delta_bar_section4"] == ""

    def test_empty_n_list(self, tmp_path):
        assert run("table", "--n", "", "--out", str(tmp_path / "x.csv")) == 2

    def test_non_integer_n_rejected(self, tmp_path, capsys):
        assert run("table", "--n", "x", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestOtherFamilies:
    @pytest.mark.parametrize("argv,n_expected", [
        (["--family", "regular", "--n", "9"], 9),
        (["--family", "dodecagon12"], 12),
        (["--family", "sparse-arc", "--n", "10"], 10),
        (["--family", "triwave", "--n", "16"], 16),
        (["--family", "hexagon6"], 6),
    ])
    def test_construct_families(self, tmp_path, argv, n_expected):
        out = tmp_path / "cfg.json"
        assert run("construct", *argv, "--out", str(out)) == 0
        assert json.loads(out.read_text())["n"] == n_expected


class TestKktCommand:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "kite.json"
        run("construct", "--family", "kite4", "--out", str(out))
        capsys.readouterr()
        assert run("kkt", str(out)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stationarity_residual"] < 1e-8
        assert len(doc["active_set"]) == 4
        assert doc["min_multiplier"] >= -1e-10


class TestAsym:
    def test_cstar(self, capsys):
        assert run("asym", "Cstar") == 0
        out = capsys.readouterr().out
        assert "1.304457" in out
        assert "closed form" in out and "alt route" in out

    def test_json_flag(self, capsys):
        assert run("asym", "J", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "J"
        assert doc["abs_discrepancy"] <= doc["tolerance"]

    def test_converge(self, capsys):
        assert run("asym", "--converge", "1", "200") == 0
        out = capsys.readouterr().out
        assert "regime 1" in out

    def test_rk(self, capsys):
        assert run("asym", "--rk", "4", "-2") == 0
        assert "-2" in capsys.readouterr().out

    def test_unknown_name(self):
        assert run("asym", "bogus") == 2

    def test_request_too_large_for_memory(self, monkeypatch, capsys):
        def refuse(regime, k):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(asymptotics, "regime_product", refuse)
        assert run("asym", "--converge", "1", "100000") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_arguments(self):
        assert run("asym") == 2


class TestErrorPaths:
    # D is a scratch directory, X a directory that does not exist, one.json
    # a file holding one point and kite.json one holding kite4
    @pytest.mark.parametrize("argv,code", [
        ("construct --family regular --out {D}/k.json", 2),
        ("construct --family regular --n 1 --out {D}/k.json", 2),
        ("construct --family arc --out {D}/k.json", 2),
        ("construct --family arc --n 7 --out {D}/k.json", 2),
        ("construct --family arc --n 0 --out {D}/k.json", 2),
        ("construct --family arc --n -6 --out {D}/k.json", 2),
        ("construct --family sparse-arc --out {D}/k.json", 2),
        ("construct --family sparse-arc --n 5 --out {D}/k.json", 2),
        ("construct --family triwave --out {D}/k.json", 2),
        ("construct --family triwave --n 7 --out {D}/k.json", 2),
        ("optimize --n 5 --graph 4;1-2 --out {D}/o.json", 2),
        ("evaluate {D}/one.json", 2),
        ("kkt {D}/one.json", 2),
        ("evaluate {D}/kite.json --rel-tol nan", 2),
        ("kkt {D}/kite.json --rel-tol nan", 2),
        ("asym nope", 2),
        ("asym", 2),
        ("construct --family kite4 --out {X}/k.json", 3),
        ("construct --family kite4 --out {D}/k.json --svg {X}/k.svg", 3),
        ("optimize --n 4 --starts 2 --out {X}/o.json", 3),
        ("optimize --n 4 --starts 2 --out {D}/o.json --trace-csv {X}/t.csv", 3),
        ("table --n 12 --families arc --out {X}/t.csv", 3),
    ])
    def test_exit_code_and_one_error_line(self, tmp_path, capsys, argv, code):
        write_config(str(tmp_path / "one.json"), PointConfig([[0.0, 0.0]]), {})
        write_config(str(tmp_path / "kite.json"), kite4(), {})
        assert run(*argv.format(D=tmp_path, X=tmp_path / "missing").split()) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        if code == 2:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["kite.json", "one.json"]
