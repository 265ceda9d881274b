import contextlib
import ctypes
import gc
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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddyn import cli, detect, dynamics, measures, model, tables, verify
from laddyn.errors import NumericalFailureError

from conftest import src_env

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "laddyn", *args],
        capture_output=True, text=True, cwd=cwd, env=src_env(),
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_of_two_blocks_matches_reference(self, tmp_path, capsys, fmt):
        # 860 events, written in blocks of dynamics.BLOCK_ROWS rows, to a file and
        # to stdout; the pinned digests hold one block and no separator between two
        events = detect.find_events(60.0, 30.0)
        assert dynamics.BLOCK_ROWS < len(events) <= 2 * dynamics.BLOCK_ROWS
        columns = ["kind", "n", "t_predicted", "t_detected", "residual", "fidelity"]
        assert detect.EventRecord._fields == tuple(columns)
        rows = [list(ev) for ev in events]
        expected = _reference_csv(columns, rows) if fmt == "csv" else _reference_json(columns, rows)
        out = tmp_path / f"events.{fmt}"
        argv = ["events", "--d", "60", "--t-max", "30", "--format", fmt]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == f"wrote {len(events)} events to {out}\n"
        with open(out, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == expected
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == expected

    def test_memory_does_not_depend_on_the_format(self, tmp_path, capsys):
        # 8,595 events.  Both formats write them a block at a time from the list
        # the search returns; with a copy of that list and, for JSON, the text of
        # the whole table, this body peaked at 3.350 MB (CSV) and 7.203 MB (JSON)
        def peak(fmt, t_max):
            gc.collect()
            tracemalloc.start()
            try:
                code = cli.main(["events", "--d", "60", "--t-max", t_max, "--format", fmt,
                                 "--output", str(tmp_path / f"events.{fmt}")])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == cli.EXIT_OK
            return peak

        peak("csv", "3")  # the first run in a process makes one-time allocations
        csv_peak, json_peak = peak("csv", "300"), peak("json", "300")
        capsys.readouterr()
        assert abs(json_peak - csv_peak) <= 0.05 * csv_peak
        assert csv_peak <= 3.35e6

    def test_event_in_last_grid_step_is_listed(self, tmp_path):
        # t_tr(1, 0) = 2.2214... lies between the last grid point 2.22 and t_max
        out = tmp_path / "events.csv"
        res = run_cli("events", "--d", "1", "--t-max", "2.225", "--output", str(out))
        assert res.returncode == 0, res.stderr
        header, rows, _ = read_csv(out)
        transfers = [dict(zip(header, r)) for r in rows if r[0] == "transfer"]
        assert [r["t_predicted"] for r in transfers] == ["2.2214414690791813"]

    def test_large_d_lists_every_event(self, capsys):
        # W events pi/d and transfers 2 pi/d apart: an absolute 1e-6 merge window
        # in t listed 5 of each here (transfers 0, 2, 5, 7, 9), and exited 0
        argv = ["events", "--d", "1e7", "--t-max", "6.3e-6", "--dt", "2e-8"]
        assert cli.main(argv) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# laddyn schema v1", ",".join(detect.EventRecord._fields)]
        rows = [line.split(",") for line in lines[2:]]
        assert [int(n) for kind, n, *_ in rows if kind == "transfer"] == list(range(10))
        assert [int(n) for kind, n, *_ in rows if kind == "w_state"] == list(range(20))


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

    def test_failed_curves_file_keeps_earlier_output(self, tmp_path):
        # the sweep table is written first, but takes its place only with the curves
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier output\n")
        (tmp_path / "out_twcurves.csv").mkdir()
        res = run_cli("sweep", "--d", "0.5", "--t-max", "1", "--output", str(out))
        assert res.returncode == 3
        assert "out_twcurves.csv" in res.stderr and "Traceback" not in res.stderr
        assert out.read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out_twcurves.csv"]


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
        if "output" in cli.COMMANDS[args[0]].keys:
            args += ("--output", str(out))
        res = run_cli(*args)
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
                              "--t-max", "10", "--format", fmt], capture_output=True,
                             env=src_env())
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


def _fmt(x) -> str:
    # the per-value formatter that the block writer and the per-kind event lines replaced
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _reference_csv(columns, rows):
    # the per-value writer that the block writer replaced
    lines = ["# laddyn schema v1", ",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _reference_json(columns, rows):
    buf = io.StringIO()
    json.dump({"schema": "laddyn schema v1", "columns": columns, "rows": rows}, buf,
              sort_keys=True, separators=(",", ":"))
    return buf.getvalue() + "\n"


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# run in a fresh interpreter, so the count starts from a new heap
_FAULT_COUNT_CODE = """\
import resource, sys
from laddyn import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(code, after - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_block_loop_keeps_its_freed_heap(tmp_path):
    # Between evolve blocks the heap top holds 0.6-1.1 MiB free.  Trimmed at
    # glibc's default threshold, each of the 61 blocks faults it in again:
    # 32,000-75,000 minor faults for this run, against 2,700-4,800 when
    # cli.main keeps it (at t_max 100 the trimmed count fell to 3,600 in some
    # heap layouts).  The BLAS pool gets one thread, as in the benchmark; a
    # second thread's start-up can leave a heap layout that hides the trimming.
    env = src_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", _FAULT_COUNT_CODE, "evolve", "--d", "0.6", "--t-max", "300",
         "--format", "json", "--output", str(tmp_path / "evolve.json")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    code, faults = map(int, res.stdout.splitlines()[-1].split())
    assert code == 0
    assert faults < 16000, f"{faults} minor page faults"


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


class TestEventLines:
    COLUMNS = ["kind", "n", "t_predicted", "t_detected", "residual", "fidelity"]

    def test_templates_have_the_bytes_of_per_value_formatting(self):
        rows = [
            [detect.TRANSFER, 0, -0.0, math.nan, math.inf, None],
            [detect.W_STATE, 7, math.nan, -0.0, 5e-324, -0.0],
            [detect.W_STATE, np.int64(2 ** 40), -math.inf, 1e308, np.float64(1 / 3), math.nan],
            [detect.TRANSFER, 12, 0.1, 2.0 ** 53, 1e16, None],
        ]
        rows += detect.find_events(1.0, 30.0)  # EventRecord rows beside the list rows
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

    def test_undersampled_event_scan_fails(self):
        # the 0.01 scan has 2.1 points per period at d = 300; it found 13 of the
        # 143 transfers and event_count failed.  The refusal fails each of the
        # seven gated event records, so the run counts 28 like any other
        res = run_cli("verify", "--d", "300", "--t-max", "3")
        assert res.returncode == 1
        for name in ("event_count", "event_time_agreement", "event_residuals",
                     "transfer_zz_signature", "w_event_fidelity", "w_event_zz_quench",
                     "w_event_rung_xx_eighth"):
            assert (f"FAIL {name}[d=300] (raised a scan step of 0.01 undersamples"
                    in res.stdout)
        assert "summary: 21/28 checks passed" in res.stdout

    def test_memory_is_bounded_by_the_block(self):
        # 20,001 times in 41 blocks; whole-grid state stacks peaked at 40.5 MB here
        ts = dynamics.time_grid(200.0, 0.01)
        h = model.build_hamiltonian(model.ModelParams(d=0.6))
        prop = dynamics.make_propagator(h, model.initial_state())
        gc.collect()
        tracemalloc.start()
        try:
            records = list(verify._state_checks(0.6, h, prop, ts, 1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert all(r.passed for r in records if r.gated)

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

    def test_top_of_the_closed_form_domain_passes(self, capsys):
        # an absolute 1e-6 merge window in t kept 1 transfer and 1 W event here
        argv = ["verify", "--d", "1e100", "--t-max", "6e-99", "--dt", "2e-101"]
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "PASS event_count[d=1e+100] (got 10 transfers / 19 W, expected 10 / 19)" in out
        assert "summary: 28/28 checks passed" in out


class TestOptionTable:
    """Each cli.OPTIONS key is one setting, set alike by its flag and its config-file line.

    A command takes the keys cli.COMMANDS gives it, and refuses every other one.
    """

    COMMANDS = list(cli.COMMANDS)

    @pytest.fixture
    def samples(self, tmp_path):
        # a value of each key that differs from its default
        return {"d": "0.6", "d_grid": "0.1:0.5:0.2", "t_max": "12", "dt": "0.05",
                "pairs": "2-1,3-4", "tolerance": "1e-8", "output": str(tmp_path / "out.csv"),
                "format": "json", "n_max": "4"}

    @staticmethod
    def merged(argv):
        return vars(cli._merge_config(cli._build_parser().parse_args(argv)))

    @staticmethod
    def flag(key):
        return "--" + key.replace("_", "-")

    def test_samples_cover_the_table(self, samples):
        assert sorted(samples) == sorted(cli.OPTIONS)

    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    def test_flag_and_config_line_agree(self, tmp_path, samples, key):
        command = next(name for name, c in cli.COMMANDS.items() if key in c.keys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {samples[key]}\n")
        from_flag = self.merged([command, self.flag(key), samples[key]])
        assert from_flag == self.merged([command, "--config", str(cfg)])
        assert from_flag[key] != cli.OPTIONS[key].default
        assert {k: v for k, v in from_flag.items() if k != key} == {
            k: opt.default for k, opt in cli.OPTIONS.items() if k != key}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key", list(cli.OPTIONS))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_command_takes_only_the_keys_it_reads(self, tmp_path, capsys, samples,
                                                  command, key, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {samples[key]}\n")
        argv = [command, *([self.flag(key), samples[key]] if source == "flag"
                           else ["--config", str(cfg)])]
        if key in cli.COMMANDS[command].keys:
            assert self.merged(argv)[key] == cli.OPTIONS[key].parse(samples[key])
            return
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the flag
            code = exc.code
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert (f"unrecognized arguments: {self.flag(key)}" if source == "flag"
                else f"error: config key '{key}' is not read by {command}") in err
        assert "Traceback" not in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("argv, unrecognized", [
        # each ran, at t_max = 1 and on the grid 0.5:1:0.5, while a flag could be a prefix
        (["verify", "--d", "1", "--t-ma", "1"], "--t-ma 1"),
        (["sweep", "--d-gri", "0.5:1:0.5", "--t-max", "1", "--output", "x.csv"],
         "--d-gri 0.5:1:0.5"),
    ], ids=["verify", "sweep"])
    def test_flag_prefix_is_usage_error(self, tmp_path, monkeypatch, capsys, argv,
                                        unrecognized):
        # a flag is spelled in full, as its config key is: 't_ma = 1' is an unknown key
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_USAGE and out == ""
        assert err.endswith(f"\nladdyn {argv[0]}: error: unrecognized arguments: {unrecognized}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_reported_by_the_command(self, capsys):
        # the command's usage line and name, not those of the top-level parser
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--d", "1", "--t-max", "1", "--output", "v.csv"])
        out, err = capsys.readouterr()
        assert exc.value.code == cli.EXIT_USAGE and out == ""
        assert err.startswith("usage: laddyn verify [-h] [--config CONFIG] [--d D]")
        assert err.endswith("\nladdyn verify: error: unrecognized arguments: --output v.csv\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_only_the_flags_of_the_command(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        listed = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == {"--config", *map(self.flag, cli.COMMANDS[command].keys)}

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("d_source, grid_source", [
        ("flag", "flag"), ("flag", "config"), ("config", "flag"), ("config", "config")])
    def test_d_with_d_grid_is_usage_error(self, tmp_path, capsys, command, d_source,
                                          grid_source):
        # neither one wins: a d beside a grid would otherwise be dropped
        settings = {"d": "5", "d_grid": "0.5:1:0.5", "t_max": "1"}
        if command == "sweep":
            settings["output"] = str(tmp_path / "out.csv")
        sources = {"d": d_source, "d_grid": grid_source}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()
                               if sources.get(key) == "config"))
        argv = [command, "--config", str(cfg)]
        for key, value in settings.items():
            if sources.get(key, "flag") == "flag":
                argv += [self.flag(key), value]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert err == f"error: {command} takes --d or --d-grid, not both\n" and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        # each was accepted and dropped a setting: verify wrote no file, events
        # ignored the grid, --n-max and --pairs, and sweep wrote no d = 5 row
        ["verify", "--d", "1", "--t-max", "1", "--output", "v.csv", "--format", "json",
         "--pairs", "1-2"],
        ["events", "--d", "1", "--t-max", "3", "--d-grid", "0.2:0.4:0.2", "--n-max", "3",
         "--pairs", "1-2"],
        ["sweep", "--d", "5", "--d-grid", "0.5:1:0.5", "--t-max", "1", "--output", "s.csv"],
        ["sweep", "--d", "5", "--d-grid", "0.5:1:0.5", "--output", "s.csv"],
    ], ids=["verify", "events", "sweep", "sweep_default_t_max"])
    def test_dropped_setting_is_usage_error(self, tmp_path, argv):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 2
        assert "error: " in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_retired_topology_option_is_usage_error(self, tmp_path, command, source):
        # the ladder is fixed (model.RUNG_BONDS, LEG_BONDS): no flag or config key names a graph
        out = tmp_path / "x.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = x.json\n")
        retired = ["--topology", "x.json"] if source == "flag" else ["--config", str(cfg)]
        output = ["--output", str(out)] if "output" in cli.COMMANDS[command].keys else []
        res = run_cli(command, "--d", "1", "--t-max", "1", *output, *retired)
        assert res.returncode == 2
        assert ("unrecognized arguments: --topology x.json" if source == "flag"
                else "error: unknown config key 'topology'") in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_config_file_is_usage_error(self, tmp_path, command):
        res = run_cli(command, "--config", str(tmp_path / "none.cfg"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "none.cfg" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["evolve", "sweep"])
    def test_unknown_format_is_usage_error(self, tmp_path, command):
        out = tmp_path / "x.xml"
        res = run_cli(command, "--d", "0.6", "--t-max", "1", "--format", "xml",
                      "--output", str(out))
        assert res.returncode == 2
        assert "error: format must be csv or json, got 'xml'" in res.stderr
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_utf8_bom_files_merge_like_plain_ones(self, tmp_path, samples):
        # a BOM before the first key of a config file
        lines = "".join(f"{key} = {samples[key]}\n" for key in cli.COMMANDS["evolve"].keys)
        plain, with_bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(lines, encoding="utf-8")
        with_bom.write_bytes(b"\xef\xbb\xbf" + lines.encode())
        assert self.merged(["evolve", "--config", str(with_bom)]) == \
            self.merged(["evolve", "--config", str(plain)])

    def test_file_that_is_not_utf8_is_usage_error(self, tmp_path):
        # UTF-16 with its byte-order mark: the first byte, 0xff, is never UTF-8
        bad = tmp_path / "utf16.txt"
        bad.write_bytes("d = 1\n".encode("utf-16"))
        res = run_cli("evolve", "--d", "1", "--t-max", "1", "--output",
                      str(tmp_path / "x.csv"), "--config", str(bad))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert not (tmp_path / "x.csv").exists()


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
    """Bad config values are usage errors, never tracebacks."""

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
        assert (f"error: {key} must be finite" if key in cli.COMMANDS[command[0]].keys
                else f"unrecognized arguments: {flag}={value}") in res.stderr
        assert res.stdout == ""
        assert "Warning" not in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("sweep", "--d-grid", "0.3:0.9:0.3", "--t-max", "1", "--output"),
        ("verify",),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_n_max_beyond_exact_range(self, tmp_path, command, source):
        out = tmp_path / "x.csv"
        if command[-1] == "--output":
            command += (str(out),)
        if source == "flag":
            extra = ("--n-max", "16")
        else:
            cfg = tmp_path / "n.cfg"
            cfg.write_text("n_max = 16\n")
            extra = ("--config", str(cfg))
        res = run_cli(*command, *extra)
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


@pytest.mark.parametrize("command", ["evolve", "events", "sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_output_is_io_error(tmp_path, monkeypatch, capsys, command, source):
    # an empty --output names no file: each command that writes a table refuses
    # it, and none writes the table to stdout or to a file in its place
    monkeypatch.chdir(tmp_path)
    argv = [command, "--d", "1", "--t-max", "3"]
    if source == "flag":
        argv.append("--output=")
    else:
        (tmp_path / "run.cfg").write_text("output =\n")
        argv += ["--config", "run.cfg"]
    assert cli.main(argv) == cli.EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("i/o error")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if source == "config" else [])


#: per OPTIONS key, (values a command accepts on a small grid, extremes that reach its refusals)
_FUZZ_VALUES = {
    "d": (["0.6", "1", "2"],
          ["0", "60", "300", "1e6", "-1", "1e-170", "1e120", "1e300", "nan", "inf", "abc"]),
    "d_grid": (["0.5:0.5:1", "0.2:1.0:0.4"],
               ["0.1:4.0:0.1", "1:0:0.1", "0:1:0.5", "nan:1:0.1", "0.1:1e9:1e-9",
                "1e300:1e300:1", "a:b:c", "1:2"]),
    "t_max": (["0.5", "3", "10"], ["1e-300", "1e7", "1e300", "0", "-1", "inf", "nan"]),
    "dt": (["0.01", "0.05", "0.5"], ["1e-300", "2", "100", "0", "-0.1", "nan", "inf"]),
    "tolerance": (["1e-9", "1e-6"], ["1e-300", "1", "0", "-1e-9", "inf", "nan"]),
    "n_max": (["0", "9", "15"], ["16", "-1", "1.5", "x"]),
    "pairs": (["1-2", "2-1,3-4"], ["1-2,1-2", "1-5", "1-1", "x", ""]),
    "format": (["csv", "json"], ["xml", ""]),
    "output": (["out.csv", "out"], ["missing/out.csv", ".", ""]),
}
#: arguments no command takes: a retired option, unknown flags and a flag without its value
_FUZZ_UNKNOWN = [["--topology", "x.json"], ["--bogus"], ["--j", "2"], ["--d"]]


@st.composite
def _fuzz_options(draw, command):
    """{key: (value, 'flag' or 'config')}: most of command's keys, all but up to two of them
    ordinary, and at most one of d and d_grid; now and then one key command does not read,
    or both d and d_grid."""
    keys = cli.COMMANDS[command].keys
    omitted = draw(st.sets(st.sampled_from(keys), max_size=2))
    if {"d", "d_grid"} <= set(keys) and draw(st.sampled_from([True] * 4 + [False])):
        omitted.add(draw(st.sampled_from(["d", "d_grid"])))
    extreme = draw(st.sets(st.sampled_from(keys), max_size=2))
    options = {key: (draw(st.sampled_from(_FUZZ_VALUES[key][key in extreme])),
                     draw(st.sampled_from(["flag", "config"])))
               for key in keys if key not in omitted}
    unread = [key for key in cli.OPTIONS if key not in keys]
    if draw(st.sampled_from([False] * 4 + [True])):
        key = draw(st.sampled_from(unread))
        options[key] = (draw(st.sampled_from(_FUZZ_VALUES[key][0])),
                        draw(st.sampled_from(["flag", "config"])))
    return options


@given(case=st.sampled_from(list(cli.COMMANDS)).flatmap(
           lambda command: st.tuples(st.just(command), _fuzz_options(command))),
       unknown=st.sampled_from([[], [], [], *_FUZZ_UNKNOWN]))
@example(unknown=[], case=("verify",  # a failed check, exit 1
         {"d": ("0.6", "flag"), "t_max": ("3", "flag"), "tolerance": ("1e-300", "config")}))
@example(unknown=[], case=("evolve",  # an unwritable output, exit 3
         {"d": ("1", "flag"), "t_max": ("3", "flag"), "output": ("missing/out.csv", "flag")}))
@example(unknown=[], case=("events",  # an empty output, exit 3
         {"d": ("1", "flag"), "t_max": ("3", "flag"), "output": ("", "config")}))
@example(unknown=["--topology", "x.json"], case=("sweep",
         {"d": ("1", "flag"), "output": ("out.csv", "flag")}))
@example(unknown=["--t-ma", "1"], case=("verify",  # a prefix of --t-max, exit 2
         {"d": ("1", "flag")}))
@example(unknown=[], case=("events",  # dt tiny beside the event times, exit 0
         {"d": ("1", "flag"), "t_max": ("5e-324", "flag"), "dt": ("1e-300", "flag")}))
@settings(max_examples=300, deadline=None)
def test_main_exits_with_a_documented_code(tmp_path_factory, case, unknown):
    # every argv ends in exit 0, 1, 2 or 3 with no traceback; a grid limit of
    # 2,000 points keeps each accepted run small, and larger grids are refused
    command, options = case
    work = tmp_path_factory.mktemp("fuzz")
    argv, lines = [command], []
    for key, (value, source) in options.items():
        if key == "output" and value:
            value = str(work / value)
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            lines.append(f"{key} = {value}\n")
    if lines:
        (work / "run.cfg").write_text("".join(lines))
        argv += ["--config", str(work / "run.cfg")]
    argv += unknown
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(dynamics, "MAX_GRID_POINTS", 2000), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != cli.EXIT_OK:
        # a refused or failed command leaves no output behind
        assert sorted(p.name for p in work.iterdir()) == (["run.cfg"] if lines else [])


def test_every_config_key_is_documented():
    # each key is named in the README as its flag or as a config-file line
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    missing = [key for key in cli.OPTIONS
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
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
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
