"""Command-line interface: evolve, events, sweep, verify.

Each setting is declared once, in OPTIONS, which gives its --flag, its
config-file key, its default and its parser; flags override a key=value
config file.  A command takes only the keys that COMMANDS gives it.  CSV
output is deterministic: a schema comment line, 17-significant-digit
floats, '.' decimal separator and LF line endings.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
import tempfile
from typing import Any, Callable, NamedTuple

import numpy as np

from . import analytic, detect, dynamics, model, tables, verify
from .errors import DomainError, LaddynError, ValidationError
from .linalg import check_sites

SCHEMA_COMMENT = "# laddyn schema v1"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _parse_d_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive grid."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValidationError("expected start:stop:step") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValidationError("start, stop and step must be finite")
    if not step > 0.0 or stop < start:
        raise ValidationError("need step > 0 and stop >= start")
    return [start + k * step for k in range(dynamics.grid_points(start, stop, step))]


def _parse_pairs(spec: str) -> list[tuple[int, int]]:
    """Parse pair list like '1-2,3-4'; a pair keeps its order, so 2-1 is allowed.

    Each ordered pair names one output column, so a repeated one is rejected.
    """
    out = []
    for chunk in spec.split(","):
        a, _, b = chunk.strip().partition("-")
        pair = check_sites(int(a), int(b))
        if pair in out:
            raise ValidationError(f"pair {pair[0]}-{pair[1]} is given more than once")
        out.append(pair)
    return out


class Option(NamedTuple):
    parse: Callable[[str], Any]
    default: Any
    help: str


#: every setting, by config-file key; its flag is --key with '-' for '_'.  A
#: flag or config-file value is a string that parse converts, and a missing
#: one is default.
OPTIONS = {
    "d": Option(float, None, "DM coupling strength D, in units of J"),
    "d_grid": Option(_parse_d_grid, None, "START:STOP:STEP, an inclusive grid of D values"),
    "t_max": Option(float, 30.0, "last time of the grid (default 30)"),
    "dt": Option(float, 0.01, "time step of the grid (default 0.01)"),
    "pairs": Option(_parse_pairs, tables.ALL_PAIRS, "site pairs like 1-2,3-4 (default all six)"),
    "tolerance": Option(float, 1e-9, "oracle tolerance (default 1e-9)"),
    "output": Option(str, None, "output file"),
    "format": Option(str, "csv", "csv (default) or json"),
    "n_max": Option(int, 9, f"highest W-time curve index, 0..{analytic.EXACT_N_MAX} (default 9)"),
}


def _read_config_file(path: str, command: str) -> dict[str, str]:
    """The raw key=value lines of a config file, by command's keys; every fault is a usage error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(str(exc)) from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise ValidationError(f"unknown config key {key!r}")
        if key not in COMMANDS[command].keys:
            raise ValidationError(f"config key {key!r} is not read by {command}")
        values[key] = val.strip()
    return values


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """The OPTIONS defaults, overridden by the config file's values, then by the flags."""
    cfg = {key: opt.default for key, opt in OPTIONS.items()}
    flags = {key: raw for key, raw in vars(args).items() if key in OPTIONS and raw is not None}
    file_values = _read_config_file(args.config, args.command) if args.config else {}
    for source, values in ((args.config, file_values), ("command line", flags)):
        for key, raw in values.items():
            try:
                cfg[key] = OPTIONS[key].parse(raw)
            except ValueError as exc:
                raise ValidationError(f"{source}: bad {key} value {raw!r}: {exc}") from None
    if cfg["d"] is not None and cfg["d_grid"] is not None:
        raise ValidationError(f"{args.command} takes --d or --d-grid, not both")
    cfg = argparse.Namespace(**cfg)
    _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace) -> None:
    """The checks on the merged values; the only check of format."""
    if cfg.d is not None and not (math.isfinite(cfg.d) and cfg.d >= 0.0):
        raise ValidationError(f"d must be finite and >= 0, got {cfg.d}")
    for key in ("dt", "t_max", "tolerance"):
        value = getattr(cfg, key)
        if not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
    if not cfg.dt > 0.0:
        raise ValidationError(f"dt must be positive, got {cfg.dt}")
    if not cfg.t_max > 0.0:
        raise ValidationError(f"t_max must be positive, got {cfg.t_max}")
    if not cfg.tolerance > 0.0:
        raise ValidationError(f"tolerance must be positive, got {cfg.tolerance}")
    if cfg.format not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {cfg.format!r}")
    if not 0 <= cfg.n_max <= analytic.EXACT_N_MAX:
        raise ValidationError(
            f"n_max must be in 0..{analytic.EXACT_N_MAX}, got {cfg.n_max}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

#: the CSV line of an event row per kind: '%d' % n is str(n), and '%.17g' % x is
#: format(x, '.17g'), -0, inf and nan included.  A transfer has no fidelity, so
#: its line ends in an empty field.
_EVENT_LINES = {
    detect.TRANSFER: f"{detect.TRANSFER},%d,%.17g,%.17g,%.17g,\n",
    detect.W_STATE: f"{detect.W_STATE},%d,%.17g,%.17g,%.17g,%.17g\n",
}


def _compact_json(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _encoded_blocks(rows, encode):
    """encode(block as a list of rows) per block of a tables.BlockTable or BLOCK_ROWS of a list."""
    if isinstance(rows, tables.BlockTable):
        for block in rows:
            yield encode(block.tolist())
            del block  # hold no block while the next one is computed
    else:
        for k in range(0, len(rows), dynamics.BLOCK_ROWS):
            yield encode(rows[k:k + dynamics.BLOCK_ROWS])


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _replace_on_success(path: str):
    """A text file that takes path's place only when the with-block succeeds.

    The text goes to a temporary file beside the target, which os.replace
    moves into place; on any exception it is removed, so no partial output
    is left and a file already at path is untouched.  An existing special
    file (a device or a pipe) is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    try:
        fd, tmp = tempfile.mkstemp(prefix=".laddyn-", suffix=".tmp",
                                   dir=os.path.dirname(target))
    except OSError as exc:
        # name the requested file, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_umask())  # the mode open() would have given
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _encode_table(fh, columns, rows, fmt: str) -> None:
    """Write a table as CSV or JSON to the open text file fh, a block of rows at a time.

    rows is a tables.BlockTable of structured arrays of float64 fields, or
    the list of detect.EventRecord rows of the events table, whose CSV lines
    come from _EVENT_LINES.
    """
    if fmt == "csv":
        fh.write(f"{SCHEMA_COMMENT}\n{','.join(columns)}\n")
        if isinstance(rows, tables.BlockTable):
            # '%.17g' % x is the same text as format(x, '.17g'), -0, inf and nan included
            line = ",".join(["%.17g"] * len(columns)) + "\n"
            fh.writelines(_encoded_blocks(rows, lambda block: "".join([line % r for r in block])))
        else:
            fh.writelines(_encoded_blocks(rows, lambda block: "".join([
                _EVENT_LINES[r[0]] % tuple(r[1:5] if r[5] is None else r[1:]) for r in block])))
    else:
        # the bytes of one json.dumps of {"schema", "columns", "rows"} with
        # sort_keys=True and separators=(",", ":"), NaN and Infinity included,
        # with the rows encoded a block at a time
        fh.write(f'{{"columns":{_compact_json(list(columns))},"rows":[')
        sep = ""
        for text in _encoded_blocks(rows, lambda block: _compact_json(block)[1:-1]):
            fh.write(sep)
            fh.write(text)
            sep = ","
            del text  # hold no text while the next block is computed
        fh.write('],"schema":"laddyn schema v1"}\n')


def _write_table(path: str, columns, rows, fmt: str, then=lambda: None) -> None:
    """_encode_table into path, which is replaced only once the table is written and then() ran."""
    with _replace_on_success(path) as fh:
        _encode_table(fh, columns, rows, fmt)
        then()


def _curves_path(output: str, fmt: str) -> str:
    root, ext = os.path.splitext(output)
    return f"{root}_twcurves{ext or '.' + fmt}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_evolve(cfg: argparse.Namespace) -> int:
    if cfg.output is None:
        raise ValidationError("evolve requires --output")
    if cfg.d is None:
        raise ValidationError("evolve requires --d (0 is allowed, numeric-only)")
    ts = dynamics.time_grid(cfg.t_max, cfg.dt)
    table = tables.evolve_table(cfg.d, ts, cfg.pairs)
    _write_table(cfg.output, table.names, table, cfg.format)
    print(f"wrote {len(table)} rows to {cfg.output}")
    return EXIT_OK


def cmd_events(cfg: argparse.Namespace) -> int:
    if cfg.d is None or cfg.d <= 0.0:
        raise ValidationError("events requires --d > 0")
    events = detect.find_events(cfg.d, cfg.t_max, cfg.dt, cfg.tolerance)
    if cfg.output is not None:
        _write_table(cfg.output, detect.EventRecord._fields, events, cfg.format)
        print(f"wrote {len(events)} events to {cfg.output}")
    else:
        _encode_table(sys.stdout, detect.EventRecord._fields, events, cfg.format)
    return EXIT_OK


def cmd_sweep(cfg: argparse.Namespace) -> int:
    if cfg.d_grid is None and cfg.d is None:
        raise ValidationError("sweep requires --d-grid or --d")
    d_grid = [cfg.d] if cfg.d_grid is None else cfg.d_grid
    if cfg.output is None:
        raise ValidationError("sweep requires --output")
    ts = dynamics.time_grid(cfg.t_max, cfg.dt, len(d_grid))
    table = tables.sweep(d_grid, ts)
    # before any output: the closed forms refuse a d outside their domain
    curves = detect.w_time_curves(d_grid, cfg.n_max)
    curve_table = tables.BlockTable.from_array(np.rec.fromarrays(
        [d_grid, *curves], names=["d"] + [f"t_w_n{n}" for n in range(cfg.n_max + 1)]))
    cpath = _curves_path(cfg.output, cfg.format)
    _write_table(cfg.output, table.names, table, cfg.format,
                 lambda: _write_table(cpath, curve_table.names, curve_table, cfg.format))
    print(f"wrote {len(table)} sweep rows to {cfg.output} and "
          f"{len(curve_table)} t_w curve rows to {cpath}")
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    d_values = cfg.d_grid if cfg.d_grid is not None else (
        [cfg.d] if cfg.d is not None else list(verify.DEFAULT_D))
    # run_checks refuses a bad d or grid before any check, so a refused run prints nothing
    records = verify.run_checks(d_values, cfg.t_max, cfg.dt, cfg.tolerance, cfg.n_max)
    print("laddyn verify")
    print(f"topology: rungs={model.RUNG_BONDS} legs={model.LEG_BONDS}")
    print(f"grid: d in {list(d_values)}, t in [0, {cfg.t_max:g}] step {cfg.dt:g}, "
          f"oracle tolerance {cfg.tolerance:g}")
    print(verify.render(records))
    return EXIT_OK if all(r.passed for r in records if r.gated) else EXIT_CHECK_FAILURE


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    keys: tuple[str, ...]


#: each command and the OPTIONS keys it reads, the only ones it takes
COMMANDS = {
    "evolve": Command(cmd_evolve, "time series of concurrences, correlations and totals",
                      ("d", "t_max", "dt", "pairs", "output", "format")),
    "events": Command(cmd_events, "detect transfer and W-state events",
                      ("d", "t_max", "dt", "tolerance", "output", "format")),
    "sweep": Command(cmd_sweep, "grid sweep over d and t, plus t_w curves",
                     ("d", "d_grid", "t_max", "dt", "output", "format", "n_max")),
    "verify": Command(cmd_verify, "run the full invariant and oracle suite",
                      ("d", "d_grid", "t_max", "dt", "tolerance", "n_max")),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laddyn",
        description="Exact dynamics and verification for the four-qubit DM ladder",
        allow_abbrev=False,  # a flag is spelled in full, as a config key is
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.set_defaults(command_parser=p)
        p.add_argument("--config", help="key=value config file; flags override it")
        # values stay strings; _merge_config parses flags and config lines alike
        for key in command.keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=OPTIONS[key].help)
    return parser


#: glibc mallopt parameter M_TRIM_THRESHOLD (malloc.h)
_M_TRIM_THRESHOLD = -1
#: free bytes the heap top may hold before glibc returns them to the OS.
#: Between evolve blocks the heap is about 6.8 MiB with 0.6-1.1 MiB free at
#: its top; at glibc's default of 128 KiB that top is trimmed after every
#: block and the next block faults each page of it in again.
KEEP_FREED_HEAP_BYTES = 16 << 20


@functools.lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """Raise the C heap's trim threshold, once per process, where it has one.

    The CLI owns its process until exit, so the heap freed between blocks is
    kept for the next block instead of being trimmed and faulted in again;
    a library import makes no such call.  Setting it also fixes glibc's mmap
    threshold at its 128 KiB default, so a block's JSON text (about 265 kB)
    is mapped and unmapped once per block.  Where the C library has no
    mallopt, nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, KEEP_FREED_HEAP_BYTES)


def main(argv=None) -> int:
    _keep_freed_heap()
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        # the command's own parser names the command and shows the flags it takes
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return COMMANDS[args.command].run(_merge_config(args))
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        target = getattr(exc, "filename", None) or ""
        print(f"i/o error{': ' + target if target else ''}: {exc}", file=sys.stderr)
        return EXIT_IO
    except LaddynError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
