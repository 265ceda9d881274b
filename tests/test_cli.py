import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from laddyn import cli, detect, dynamics, measures, model, tables
from laddyn.errors import NumericalFailureError

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "laddyn", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    assert lines[0] == "# laddyn schema v1"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return header, rows, raw


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestEvolveCommand:
    def test_reproduction_run(self, tmp_path):
        out = tmp_path / "evolve.csv"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "12", "--dt", "0.05",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        assert abs(float(first["c_12"]) - 1.0) < 1e-12
        assert abs(float(first["c_34"])) < 1e-12
        assert abs(float(first["s_tot_z"]) + 1.0) < 1e-12
        max_dev = np.array([float(r[header.index("max_dev")]) for r in rows])
        assert np.max(max_dev) <= 1e-9

    def test_d_zero_omits_analytic_columns(self, tmp_path):
        out = tmp_path / "e0.csv"
        res = run_cli("evolve", "--d", "0", "--t-max", "1", "--dt", "0.5",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        assert not any(c.startswith("c_an_") for c in header)
        assert "max_dev" not in header
        assert any(c == "c_12" for c in header)

    def test_csv_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("evolve", "--d", "0.7", "--t-max", "2", "--dt", "0.25",
                          "--output", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "1", "--dt", "0.25",
                      "--output", str(out), "--format", "json")
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "laddyn schema v1"
        again = json.loads(json.dumps(doc))
        assert again == doc
        i = doc["columns"].index("c_12")
        assert abs(doc["rows"][0][i] - 1.0) < 1e-12

    def test_unwritable_output_is_io_error(self, tmp_path):
        res = run_cli("evolve", "--d", "0.6", "--t-max", "1", "--dt", "0.5",
                      "--output", str(tmp_path / "missing_dir" / "x.csv"))
        assert res.returncode == 3
        assert "x.csv" in res.stderr

    def test_missing_output_is_checked_before_evolve_table(self, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("evolve computed before checking --output")

        monkeypatch.setattr(tables, "evolve_table", no_work)
        assert cli.main(["evolve", "--d", "0.5", "--t-max", "3000"]) == 2
        assert "evolve requires --output" in capsys.readouterr().err

    def test_usage_error_on_bad_flag(self):
        res = run_cli("evolve", "--d", "not_a_number", "--output", "/tmp/x.csv")
        assert res.returncode == 2


class TestEventsCommand:
    def test_d1_table(self, tmp_path):
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "1", "--t-max", "10", "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        recs = [dict(zip(header, r)) for r in rows]
        transfers = [float(r["t_detected"]) for r in recs if r["kind"] == "transfer"]
        ws = [float(r["t_detected"]) for r in recs if r["kind"] == "w_state"]
        t0 = math.pi / math.sqrt(2.0)
        np.testing.assert_allclose(transfers, [t0, 3 * t0], atol=1e-6)
        np.testing.assert_allclose(ws, [t0 / 2, 3 * t0 / 2, 5 * t0 / 2,
                                        7 * t0 / 2, 9 * t0 / 2], atol=1e-6)
        for r in recs:
            assert abs(float(r["t_detected"]) - float(r["t_predicted"])) <= 1e-8
            if r["kind"] == "w_state":
                assert float(r["fidelity"]) >= 1 - 1e-9
            else:
                assert r["fidelity"] == ""

    def test_window_before_first_event_is_empty_success(self, tmp_path):
        out = tmp_path / "empty.csv"
        res = run_cli("events", "--d", "1", "--t-max", "0.5", "--output", str(out))
        assert res.returncode == 0
        _, rows, _ = read_csv(out)
        assert rows == []

    def test_requires_positive_d(self):
        res = run_cli("events", "--d", "0", "--t-max", "5")
        assert res.returncode == 2

    def test_undersampled_scan_exits_2_at_once(self, capsys):
        # 0.04 scan points per period of C_34; this scan took 18 s and listed
        # 22,378 of 6,752,373 events before the step was checked
        start = time.process_time()
        code = cli.main(["events", "--d", "1", "--t-max", "1e7", "--dt", "100"])
        elapsed = time.process_time() - start
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE and out == ""
        assert "error: a scan step of 100 undersamples" in err
        assert "a step (--dt) of at most 1.11072" in err
        assert elapsed < 0.5

    @pytest.mark.parametrize("legs, rungs", [
        ([[3, 1], [2, 4]], [[1, 2], [2, 3], [3, 4], [4, 1]]),
        ([[1, 3], [2, 4]], [[1, 2], [2, 3], [3, 4]]),
    ], ids=["reversed_leg", "missing_rung"])
    def test_topology_without_closed_forms_exits_2(self, tmp_path, legs, rungs):
        # these topologies printed an empty table and exited 0
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"rungs": rungs, "legs": legs}))
        res = run_cli("events", "--d", "1", "--t-max", "30", "--topology", str(topo))
        assert res.returncode == 2
        assert "error: events are refined on the closed forms of the default ladder" in res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr

    def test_event_in_last_grid_step_is_listed(self, tmp_path):
        # t_tr(1, 0) = 2.2214... lies between the last grid point 2.22 and t_max
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "1", "--t-max", "2.225", "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        transfers = [dict(zip(header, r)) for r in rows if r[0] == "transfer"]
        assert [r["t_predicted"] for r in transfers] == ["2.2214414690791813"]


class TestSweepCommand:
    def test_degenerate_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--d-grid", "0.5:0.5:1", "--t-max", "0.1",
                      "--dt", "0.2", "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert abs(float(row["c_first"]) - 1.0) < 1e-12

    def test_curves_file(self, tmp_path):
        # an --output without an extension gives the curves file the format's one
        for fmt in ("csv", "json"):
            out = tmp_path / f"sweep_{fmt}"
            res = run_cli("sweep", "--d-grid", "0.2:2.0:0.2", "--t-max", "0.1", "--dt", "0.2",
                          "--format", fmt, "--output", str(out), "--n-max", "9")
            assert res.returncode == 0, res.stderr
            path = tmp_path / f"sweep_{fmt}_twcurves.{fmt}"
            if fmt == "csv":
                header, rows, _ = read_csv(path)
            else:
                table = json.loads(path.read_text(encoding="utf-8"))
                header, rows = table["columns"], table["rows"]
            assert header == ["d"] + [f"t_w_n{n}" for n in range(10)]
            for col in range(1, 11):
                vals = [float(r[col]) for r in rows]
                assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in d


class TestGridLimit:
    @pytest.mark.parametrize("args", [
        ("evolve", "--d", "0.6", "--t-max", "1e18", "--dt", "1"),
        ("sweep", "--d-grid", "0.1:1e12:1", "--t-max", "1"),
        # each grid is small enough on its own; their product is not
        ("sweep", "--d-grid", "0.1:100:0.1", "--t-max", "30"),
        # verify keeps the same budget: 400 d values x 3001 times
        ("verify", "--d-grid", "0.1:40:0.1"),
    ])
    def test_oversized_grid_is_usage_error(self, tmp_path, args):
        out = tmp_path / "x.csv"
        res = run_cli(*args, "--output", str(out))
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("spec, reason", [
        ("0.1:1e12:1", "more than 1000000 points"),
        ("1:0.5:0.1", "step > 0"),
        ("nan:1:0.1", "must be finite"),
        ("0.1:inf:0.1", "must be finite"),
        ("0.1:1:nan", "must be finite"),
    ])
    def test_bad_d_grid_flag_names_reason(self, tmp_path, spec, reason):
        res = run_cli("sweep", "--d-grid", spec, "--t-max", "1",
                      "--output", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert reason in res.stderr


class TestPinnedOutputs:
    """Output bytes of small runs, recorded with the per-value writer."""

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--d-grid", "0.3:0.9:0.3", "--t-max", "1", "--dt", "0.5",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "3fc2028e9ff3bb5622cffb356ddf4e3d8b7ec31dcad340d92946e988719e812f"
        assert sha256(tmp_path / "sweep_twcurves.csv") == (
            "412dd2597ccb9f55027326862b634f55be25db22745720e79fda1f2c0246ceca")

    def test_evolve_json(self, tmp_path):
        out = tmp_path / "evolve.json"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "1", "--format", "json",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "1c5e6898644ad9e550f60b2887e2d376adb7728e60e3344d94496379d8a397fc"

    EVENTS_DIGESTS = [
        ("csv", "bd946e8a07e826d5f8e0aaf008ea7260f981a1d7c26c763890bf37778fc8537f"),
        ("json", "a00bada37856d678cb9a11758e8bdcfce63c747bde5e2e822a1aab0b23b8ecd0"),
    ]

    @pytest.mark.parametrize("fmt, digest", EVENTS_DIGESTS)
    def test_events(self, tmp_path, fmt, digest):
        out = tmp_path / f"events.{fmt}"
        res = run_cli("events", "--d", "1", "--t-max", "10", "--format", fmt,
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == digest

    @pytest.mark.parametrize("fmt, digest", EVENTS_DIGESTS)
    def test_events_stdout(self, fmt, digest):
        # without --output the table goes to stdout, byte for byte as --output writes it
        res = subprocess.run([sys.executable, "-m", "laddyn", "events", "--d", "1",
                              "--t-max", "10", "--format", fmt], capture_output=True)
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout).hexdigest() == digest

    def test_verify_stdout(self):
        # the printed worst values come from the correlation and concurrence layers
        res = run_cli("verify")
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "55168a2909d60e2a00416cde61ad69d63457ed108675575dcff89fb6d8734f5a")

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "237825d183977405c2da662f1523e3889d17e2fd553c5e0d4b8ddd1a2c8abeb9"),
        ("json", "2df9fd85919c19a01566fcefe75729b4557288ea8ced9b8fa2356b560835ad8d"),
    ])
    def test_evolve_across_blocks(self, tmp_path, fmt, digest):
        # 4101 rows, evolved in nine blocks of 455 or 456 rows
        out = tmp_path / f"evolve.{fmt}"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "41", "--format", fmt,
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == digest

    def test_sweep_across_blocks(self, tmp_path):
        # 4101 rows per d, evolved in nine blocks of 455 or 456 rows
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--d-grid", "0.5:1:0.5", "--t-max", "41", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "9ac3abf240a1fa43b1ebcd32d291a7e71c0623647e1d853e30d800f301c49298"
        assert sha256(tmp_path / "sweep_twcurves.csv") == (
            "94c1856cfef1a3050e28edb1ad3949fb37d774da2f7706f35a2f9754ee9faef0")

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "f76bd27e2d5becea2924ed2427102876313d2712344fe651c22fc2f5d8e4c609"),
        ("json", "8bf31bb81a15e0872087345c0d2c68546739abed404822f51fd121c9faa0786b"),
    ])
    def test_evolve_one_past_a_block(self, tmp_path, fmt, digest):
        # 4097 rows, evolved in nine blocks of 455 or 456 rows; blocks of 4096
        # rows and 1 row would evolve the last row in a one-row product, whose
        # bits may differ
        out = tmp_path / f"evolve.{fmt}"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "40.96", "--format", fmt,
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "9fd4070f67d0a810d8698040f733000310023873ea912b3f7838ea10f6256e06"),
        ("json", "da65be5dc19c2f1db684c255214ef79723cd80f459e9388f5f8cb5ea52dcc847"),
    ])
    def test_evolve_one_past_block_rows(self, tmp_path, fmt, digest):
        # 501 rows, one more than dynamics.BLOCK_ROWS: blocks of 500 and 1 row would
        # evolve the last row in a one-row product, whose bits may differ
        out = tmp_path / f"evolve.{fmt}"
        res = run_cli("evolve", "--d", "0.6", "--t-max", "5", "--format", fmt,
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == digest

    def test_sweep_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        res = run_cli("sweep", "--d-grid", "0.3:0.9:0.3", "--t-max", "1", "--format", "json",
                      "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "3fcdf5c09da41a3e2ceb01e2cc9f232cdc1b07bd5d2e76346de176a77f2d7b22"
        assert sha256(tmp_path / "sweep_twcurves.json") == (
            "4b3efb1921deeef0df703879fc3dc56dec4891f733aee35af66ca986be7cb085")

    def test_events_long_scan(self, tmp_path):
        # 150 events over 30,001 scan points; 24 W rows print a fidelity above 1
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "0.3", "--t-max", "300", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "d043f204341ac0317e5d3556864a2850670bd24c8915839f9b46bb548353d672"

    def test_events_scan_across_blocks(self, tmp_path):
        # 4097 grid points up to t_max and two past it, scanned in nine blocks of
        # 455 or 456 points
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "3", "--t-max", "40.96", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "94db8f1e8fdce1d785873c59690f9e6044a4a229e513a609d05ad9aaab4ec4fd"

    def test_events_scan_one_past_block_rows(self, tmp_path):
        # 499 grid points up to t_max and two past it, one more than
        # dynamics.BLOCK_ROWS: scanned in blocks of 250 and 251 points
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "3", "--t-max", "4.98", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "9abc86e8412960f1ff9cf6c0575969b0f4dcdea9af413e5d971ba7885c2226dd"

    def test_events_scan_many_blocks(self, tmp_path):
        # 300,003 scan points in 601 blocks of 499 or 500 points, so 600 block
        # edges that the candidates must cross as the whole-grid scan found them
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "1", "--t-max", "3000", "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert sha256(out) == "988165938b4ccbf198e2ee6b1fceeb9522bdb918273a857566d074fbb13e60e6"


def _reference_csv(columns, rows):
    # the per-value writer that the block writer replaced
    lines = ["# laddyn schema v1", ",".join(columns)]
    lines.extend(",".join(format(x, ".17g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_json(columns, rows):
    buf = io.StringIO()
    json.dump({"schema": "laddyn schema v1", "columns": columns, "rows": rows}, buf,
              sort_keys=True, separators=(",", ":"))
    return buf.getvalue() + "\n"


class TestWriteTable:
    SPECIAL = [-0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
               0.0, 1.0, -3.0, 2.0 ** 53, 1e16, 1e17, 0.1, 1.0 / 3.0]

    # up to one block, a block and a part, and many blocks
    @pytest.mark.parametrize("n_rows", [0, 5, dynamics.BLOCK_ROWS + 7, 4103])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_table_matches_reference(self, tmp_path, rng, n_rows, fmt):
        columns = ["a", "b", "c", "d"]
        values = rng.normal(size=(n_rows, 4)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 4))
        specials = np.resize(self.SPECIAL, values.size)[:values.size].reshape(values.shape)
        values[::2] = specials[::2]
        table = tables.BlockTable.from_array(np.rec.fromarrays(list(values.T), names=columns))
        path = tmp_path / f"t.{fmt}"
        cli._write_table(str(path), columns, table, fmt)
        rows = values.tolist()
        expected = _reference_csv(columns, rows) if fmt == "csv" else _reference_json(columns, rows)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_event_table_is_header_only(self, tmp_path, fmt):
        columns = ["kind", "n", "t_predicted", "t_detected", "residual", "fidelity"]
        path = tmp_path / f"e.{fmt}"
        cli._write_table(str(path), columns, [], fmt)
        expected = _reference_csv(columns, []) if fmt == "csv" else _reference_json(columns, [])
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == expected


def _fmt(x) -> str:
    # the per-value event formatter that the per-kind line templates replaced
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


class TestEventLines:
    COLUMNS = ["kind", "n", "t_predicted", "t_detected", "residual", "fidelity"]

    def test_templates_have_the_bytes_of_per_value_formatting(self):
        rows = [
            [detect.TRANSFER, 0, -0.0, math.nan, math.inf, None],
            [detect.W_STATE, 7, math.nan, -0.0, 5e-324, -0.0],
            [detect.W_STATE, np.int64(2 ** 40), -math.inf, 1e308, np.float64(1 / 3), math.nan],
            [detect.TRANSFER, 12, 0.1, 2.0 ** 53, 1e16, None],
        ]
        rows += [[e.kind, e.n, e.t_predicted, e.t_detected, e.residual, e.fidelity]
                 for e in detect.find_events(1.0, 30.0)]
        assert {row[0] for row in rows} == {detect.TRANSFER, detect.W_STATE}
        buf = io.StringIO()
        cli._encode_table(buf, self.COLUMNS, rows, "csv")
        lines = ["# laddyn schema v1", ",".join(self.COLUMNS)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        assert buf.getvalue() == "\n".join(lines) + "\n"


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_holds_one_block_at_a_time(self, tmp_path, fmt):
        columns = ("a", "b")
        refs, alive = [], []

        def blocks():
            for k in range(4):
                # earlier blocks still referenced when the writer asks for this one
                alive.append(sum(ref() is not None for ref in refs))
                block = np.rec.fromarrays([np.full(3, float(k)), np.arange(3.0)], names=columns)
                refs.append(weakref.ref(block))
                yield block
                del block

        path = tmp_path / f"s.{fmt}"
        cli._write_table(str(path), columns, tables.BlockTable(columns, 12, blocks), fmt)
        assert alive == [0, 0, 0, 0]
        rows = [[float(k), float(i)] for k in range(4) for i in range(3)]
        ref = _reference_csv if fmt == "csv" else _reference_json
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == ref(list(columns), rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_stream_keeps_old_file(self, tmp_path, monkeypatch, capsys, fmt):
        out = tmp_path / f"evolve.{fmt}"
        out.write_bytes(b"earlier output\n")
        cfg = tmp_path / "one_pair.cfg"
        cfg.write_text("pairs = 1-2\n")
        real = measures.concurrence_series
        calls = []

        def fail_on_second_call(states, p, q):
            calls.append(len(states))
            if len(calls) == 2:
                raise NumericalFailureError("injected failure")
            return real(states, p, q)

        monkeypatch.setattr(measures, "concurrence_series", fail_on_second_call)
        code = cli.main(["evolve", "--config", str(cfg), "--d", "0.6", "--t-max", "6",
                         "--format", fmt, "--output", str(out)])
        assert code == cli.EXIT_CHECK_FAILURE
        assert "injected failure" in capsys.readouterr().err
        # one pair, so the second call is the second of the two blocks of the 601
        # rows: the first one was computed and written, the second one raised
        assert calls == [300, 301]
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["evolve." + fmt, "one_pair.cfg"]

    def test_output_through_symlink_writes_its_target(self, tmp_path):
        target = tmp_path / "real.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        cli._write_table(str(link), ["a"], tables.BlockTable.from_array(
            np.rec.fromarrays([[1.0]], names=["a"])), "csv")
        assert link.is_symlink()
        assert target.read_text() == "# laddyn schema v1\na\n1\n"

    def test_special_file_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        cli._write_table(str(fifo), ["a"], tables.BlockTable.from_array(
            np.rec.fromarrays([[1.0]], names=["a"])), "csv")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"# laddyn schema v1\na\n1\n"]
        assert fifo.is_fifo()


class TestVerifyCommand:
    def test_default_topology_passes(self):
        res = run_cli("verify", "--d", "0.6", "--t-max", "6", "--dt", "0.02")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
        assert "sector leakage" in res.stdout
        leak_vals = [float(line.rsplit(" ", 1)[-1]) for line in res.stdout.splitlines()
                     if "sector leakage" in line]
        assert leak_vals and all(v <= 1e-12 for v in leak_vals)
        assert "commutator" in res.stdout

    def test_misoriented_leg_fails(self, tmp_path):
        topo = tmp_path / "bad.json"
        topo.write_text(json.dumps(
            {"rungs": [[1, 2], [2, 3], [3, 4], [4, 1]], "legs": [[3, 1], [2, 4]]}))
        res = run_cli("verify", "--d", "0.6", "--t-max", "6", "--dt", "0.02",
                      "--topology", str(topo))
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_undersampled_event_scan_fails(self):
        # the 0.01 scan has 2.1 points per period at d = 300; it found 13 of the
        # 143 transfers and event_count failed
        res = run_cli("verify", "--d", "300", "--t-max", "3")
        assert res.returncode == 1
        assert "FAIL event_detection[d=300] (raised a scan step of 0.01 undersamples" in res.stdout
        assert "event_count" not in res.stdout

    def test_pure_flip_caught_by_amplitude_oracle(self, tmp_path):
        topo = tmp_path / "flip.json"
        topo.write_text(json.dumps(
            {"rungs": [[1, 2], [2, 3], [3, 4], [4, 1]], "legs": [[3, 1], [4, 2]]}))
        res = run_cli("verify", "--d", "0.6", "--t-max", "6", "--dt", "0.02",
                      "--topology", str(topo))
        assert res.returncode == 1
        assert "FAIL amplitudes_vs_closed_form" in res.stdout

    def test_memory_is_bounded_by_the_block(self):
        # 20,001 times in 41 blocks; whole-grid state stacks peaked at 40.5 MB here
        ts = dynamics.time_grid(0.0, 200.0, 0.01)
        rep = cli._Report()
        tracemalloc.start()
        try:
            cli._verify_one_d(rep, 0.6, model.propagator(0.6), ts, 1e-9, model.DEFAULT_GRAPH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert rep.all_passed

    @pytest.mark.parametrize("t_max", ["1.111", "2.225", "3.3325"])
    def test_event_in_last_grid_step_is_counted(self, t_max):
        # t_w(1, 0) = 1.1107..., t_tr(1, 0) = 2.2214... and t_w(1, 1) = 3.3321... each
        # lie after the last grid point at or below t_max
        res = run_cli("verify", "--d", "1", "--t-max", t_max)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "summary: 28/28 checks passed" in res.stdout

    @pytest.mark.parametrize("d, n_transfer, n_w", [
        # transfer 37 at 60.00000000000006: past t_max, though t_max s / (2 pi)
        # rounds to an odd integer
        ("3.797532998764082", 37, 75),
        # W event 562 at 59.999999999999886: up to t_max, though its bisected
        # root is past it
        ("29.435449704641755", 281, 563),
    ])
    def test_t_max_within_roundoff_of_an_event(self, d, n_transfer, n_w):
        # an event is up to t_max when its closed-form time is, in the events
        # listed and in the count verify expects
        res = run_cli("verify", "--d", d, "--t-max", "60")
        assert res.returncode == 0, res.stdout + res.stderr
        assert (f"PASS event_count[d={float(d):g}] (got {n_transfer} transfers / {n_w} W, "
                f"expected {n_transfer} / {n_w})") in res.stdout
        assert "summary: 28/28 checks passed" in res.stdout


class TestConfigFile:
    def test_config_sets_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 0.6\nt_max = 1\ndt = 0.5\noutput = {}\n".format(
            tmp_path / "from_config.csv"))
        res = run_cli("evolve", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "from_config.csv").exists()

        override = tmp_path / "override.csv"
        res = run_cli("evolve", "--config", str(cfg), "--output", str(override))
        assert res.returncode == 0
        assert override.exists()

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frequency = 12\n")
        res = run_cli("evolve", "--config", str(cfg))
        assert res.returncode == 2

    def test_pair_subset_from_config(self, tmp_path):
        out = tmp_path / "subset.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pairs = 1-2,3-4\nd = 0.6\nt_max = 1\ndt = 0.5\noutput = {out}\n")
        res = run_cli("evolve", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        header, _, _ = read_csv(out)
        assert "c_12" in header and "c_34" in header
        assert "c_13" not in header

    def test_reversed_pair_matches_forward(self, tmp_path):
        columns = {}
        for spec in ("1-2", "2-1"):
            out = tmp_path / f"{spec}.csv"
            cfg = tmp_path / f"{spec}.cfg"
            cfg.write_text(f"pairs = {spec}\nd = 0.6\nt_max = 1\ndt = 0.25\noutput = {out}\n")
            res = run_cli("evolve", "--config", str(cfg))
            assert res.returncode == 0, res.stderr
            header, rows, _ = read_csv(out)
            name = "c_" + spec.replace("-", "")
            columns[spec] = [r[header.index(name)] for r in rows]
        assert columns["2-1"] == columns["1-2"]

    def test_j_is_not_a_config_key(self, tmp_path):
        # energies are in units of J: H(J, D) = J H(1, D/J), so a run at J > 0 is
        # the J = 1 run at D/J with its times scaled by J
        out = tmp_path / "j2.csv"
        cfg = tmp_path / "j.cfg"
        cfg.write_text(f"j = 2.0\nd = 0.6\nt_max = 1\ndt = 0.5\noutput = {out}\n")
        res = run_cli("evolve", "--config", str(cfg))
        assert res.returncode == 2
        assert "error: unknown config key 'j'" in res.stderr
        assert not out.exists()

    def test_j_is_not_a_config_key_for_events(self, tmp_path):
        cfg = tmp_path / "j.cfg"
        cfg.write_text("j = 2.0\nd = 1.0\nt_max = 2\n")
        res = run_cli("events", "--config", str(cfg))
        assert res.returncode == 2
        assert "error: unknown config key 'j'" in res.stderr

    def test_evolve_without_d_is_usage_error(self, tmp_path):
        res = run_cli("evolve", "--t-max", "1", "--dt", "0.5",
                      "--output", str(tmp_path / "x.csv"))
        assert res.returncode == 2


class TestMalformedInput:
    """Bad config values and topology files are usage errors, never tracebacks."""

    @pytest.mark.parametrize("line", [
        "d = abc", "pairs = 1-x", "pairs = 1-5", "n_max = 1.5",
        "pairs = 1-2,1-2", "pairs = 3-4, 1-2,3-4",
    ])
    def test_config_value(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\nt_max = 1\ndt = 0.5\noutput = {tmp_path / 'x.csv'}\n")
        res = run_cli("evolve", "--config", str(cfg))
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert line.split(" = ")[0] in res.stderr
        assert "Traceback" not in res.stderr

    def test_repeated_pair_is_named_and_reversed_pair_kept(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "pairs.cfg"
        cfg.write_text(f"pairs = 3-4,1-2,3-4\nt_max = 1\ndt = 0.5\noutput = {out}\n")
        res = run_cli("evolve", "--d", "0.6", "--config", str(cfg))
        assert res.returncode == 2
        assert "pair 3-4 is given more than once" in res.stderr
        assert not out.exists()
        # 1-2 and 2-1 are distinct ordered pairs with distinct columns
        cfg.write_text(f"pairs = 1-2,2-1\nt_max = 1\ndt = 0.5\noutput = {out}\n")
        res = run_cli("evolve", "--d", "0.6", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        header, _, _ = read_csv(out)
        assert [c for c in header if c.startswith("c_") and "an" not in c] == ["c_12", "c_21"]

    @pytest.mark.parametrize("command", [
        ("evolve", "--d", "0.6", "--output"),
        ("events", "--d", "1", "--output"),
        ("verify",),
        ("sweep", "--d", "0.5", "--output"),
    ])
    @pytest.mark.parametrize("flag, key", [
        ("--dt", "dt"), ("--t-max", "t_max"), ("--tolerance", "tolerance"), ("--d", "d"),
    ])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value(self, tmp_path, command, flag, key, value):
        out = tmp_path / "x.csv"
        if command[-1] == "--output":
            command += (str(out),)
        res = run_cli(*command, f"{flag}={value}")
        assert res.returncode == 2
        assert f"error: {key} must be finite" in res.stderr
        assert res.stdout == ""
        assert "Warning" not in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("sweep", "--d-grid", "0.3:0.9:0.3", "--t-max", "1"),
        ("verify",),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_n_max_beyond_exact_range(self, tmp_path, command, source):
        out = tmp_path / "x.csv"
        if source == "flag":
            extra = ("--n-max", "16")
        else:
            cfg = tmp_path / "n.cfg"
            cfg.write_text("n_max = 16\n")
            extra = ("--config", str(cfg))
        res = run_cli(*command, *extra, "--output", str(out))
        assert res.returncode == 2
        assert "error: n_max must be in 0..15" in res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["n.cfg"] if source == "config" else [])

    @pytest.mark.parametrize("command", [
        ("verify", "--d", "1e-170"),
        ("events", "--d", "1e300", "--t-max", "1"),
        ("events", "--d", "1e103", "--t-max", "1"),
        ("evolve", "--d", "1e300", "--t-max", "1", "--output"),
        ("evolve", "--d", "1e120", "--t-max", "1", "--output"),
        ("sweep", "--d", "1e300", "--t-max", "1", "--output"),
    ])
    def test_d_outside_closed_form_domain(self, tmp_path, command):
        # d*d underflows, or omega*d*d overflows, so the closed forms fail there
        out = tmp_path / "x.csv"
        if command[-1] == "--output":
            command += (str(out),)
        res = run_cli(*command)
        assert res.returncode == 2
        assert "error: closed forms need d*d to be a normal float" in res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", [
        '{"rungs": [[1, 2],',
        '{"rungs": [["a", 2]], "legs": []}',
        '{"rungs": [[1.7, 2]], "legs": []}',
    ])
    def test_topology_file(self, tmp_path, text):
        topo = tmp_path / "topo.json"
        topo.write_text(text)
        res = run_cli("evolve", "--d", "0.6", "--t-max", "1", "--topology", str(topo),
                      "--output", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert "topo.json" in res.stderr
        assert "Traceback" not in res.stderr


def test_every_config_key_is_documented():
    # each key is named in the README as its flag or as a config-file line
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    missing = [key for key in cli._CONFIG_PARSERS
               if not re.search(rf"--{key.replace('_', '-')}(?![\w-])|\b{key} =", readme)]
    assert missing == []


def test_console_script_entry_point():
    # Resolve the `laddyn` script declared in pyproject.toml and call its
    # `module:attr` target the way the wrapper generated by an install does,
    # so the declaration is checked without installing the package.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "laddyn" in scripts
    module, _, attr = scripts["laddyn"].partition(":")
    code = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv = ['laddyn', '--help']\n"
        f"sys.exit({attr}())\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0
    for cmd in ("evolve", "events", "sweep", "verify"):
        assert cmd in res.stdout


@pytest.mark.skipif(shutil.which("laddyn") is None,
                    reason="no installed `laddyn` executable on PATH")
def test_installed_console_script():
    res = subprocess.run(["laddyn", "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    for cmd in ("evolve", "events", "sweep", "verify"):
        assert cmd in res.stdout
