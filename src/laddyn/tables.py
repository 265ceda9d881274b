"""The evolve and sweep tables: named columns of the evolved state, a block at a time.

BlockColumns maps a column name to its computation on one block of states;
the tables and `verify` read their observables from it.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics, measures, model
from .errors import ValidationError

#: the six unordered site pairs, and the four of them in the leg class
ALL_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
LEG_CLASS_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))

#: representative pair and column-name suffix per observable class
CLASS_REPRESENTATIVE = {analytic.PairClass.FIRST_RUNG: (1, 2), analytic.PairClass.LEG: (1, 3),
                        analytic.PairClass.LAST_RUNG: (3, 4)}
CLASS_COLUMN = {analytic.PairClass.FIRST_RUNG: "first", analytic.PairClass.LEG: "leg",
                analytic.PairClass.LAST_RUNG: "last"}
_PAIR_OF_CLASS_COLUMN = {CLASS_COLUMN[cls]: pair for cls, pair in CLASS_REPRESENTATIVE.items()}

_EQUAL_AXES = ("xx", "yy", "zz")
#: correlation columns of both tables, in output order
_CHI_NAMES = tuple(f"chi_{aa}_{name}" for name in CLASS_COLUMN.values() for aa in _EQUAL_AXES)
_SWEEP_NAMES = ("d", "t", "c_first", "c_last", "c_leg", *_CHI_NAMES, "s_tot_z")


@dataclass(frozen=True)
class BlockTable:
    """A float table as a stream of structured-array blocks, in row order.

    len() is the total row count, known before any block is computed.
    Each iteration calls ``blocks`` and so computes the blocks afresh; a
    consumer that drops each block before asking for the next holds one
    block at a time.  No block has more than dynamics.BLOCK_ROWS rows.
    """

    names: tuple
    n_rows: int
    blocks: Callable[[], Iterator[np.ndarray]]

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.blocks()

    @classmethod
    def from_array(cls, rows: np.ndarray) -> BlockTable:
        """The structured array rows, in slices of at most dynamics.BLOCK_ROWS rows."""
        step = dynamics.BLOCK_ROWS
        return cls(rows.dtype.names, len(rows),
                   lambda: (rows[k:k + step] for k in range(0, len(rows), step)))


class BlockColumns(dict):
    """The named columns of the states at the times t for coupling d.

    A column is computed at its first lookup, so once, and only if it or a
    column that needs it is looked up:
    - d, t and s_tot_{x|y|z}
    - c_{pq}, the full Wootters concurrence of sites p, q, and c_an_{pq}, its closed form
    - c_{cls} and chi_{aa}_{cls}: c_{pq} and <S^a_p S^a_q> of the representative
      pair of a class (CLASS_COLUMN, CLASS_REPRESENTATIVE)
    - max_dev: the largest deviation from the closed forms of the c_{pq} whose
      c_an_{pq} are in names, of the rung correlations and of the leg zz one (0)
    - leg_xx_table_dev: the larger leg xx or yy deviation from the tabulated
      leg form, a reported adjudication kept out of max_dev
    """

    def __init__(self, d: float, states: np.ndarray, t: np.ndarray, names=()):
        super().__init__()
        self.d, self.states, self.t, self.names = d, states, t, names

    def __missing__(self, name: str) -> np.ndarray:
        value = self[name] = self._compute(name)
        return value

    def structured(self) -> np.recarray:
        """The columns in names as one structured array of float64 fields."""
        return np.rec.fromarrays([self[name] for name in self.names], names=self.names)

    def _compute(self, name: str) -> np.ndarray:
        d, states, t = self.d, self.states, self.t
        if name == "d":
            return np.full(t.size, d)
        if name == "t":
            return t
        if name == "max_dev":
            devs = [np.abs(self["c_" + n[len("c_an_"):]] - self[n])
                    for n in self.names if n.startswith("c_an_")]
            for cls in (analytic.PairClass.FIRST_RUNG, analytic.PairClass.LAST_RUNG):
                for aa in _EQUAL_AXES:
                    devs.append(np.abs(self[f"chi_{aa}_{CLASS_COLUMN[cls]}"]
                                       - analytic.correlation_formula(cls, aa, t, d)))
            devs.append(np.abs(self["chi_zz_leg"]))
            return np.max(devs, axis=0)
        if name == "leg_xx_table_dev":
            leg_table = analytic.correlation_formula(analytic.PairClass.LEG, "xx", t, d)
            return np.maximum(np.abs(self["chi_xx_leg"] - leg_table),
                              np.abs(self["chi_yy_leg"] - leg_table))
        kind, _, key = name.rpartition("_")
        if kind == "s_tot":
            return measures.total_spin_series(states, key)
        if key in _PAIR_OF_CLASS_COLUMN:
            p, q = _PAIR_OF_CLASS_COLUMN[key]
            if kind == "c":
                return self[f"c_{p}{q}"]
            if kind.startswith("chi_") and kind[len("chi_"):] in _EQUAL_AXES:
                return measures.correlation_series(states, p, q, kind[-2], kind[-1])
        elif kind == "c":
            return measures.concurrence_series(states, int(key[0]), int(key[1]))
        elif kind == "c_an":
            pair_class = analytic.classify_pair(int(key[0]), int(key[1]))
            return analytic.concurrence_formula(pair_class, t, d)
        raise KeyError(f"no table column {name!r}")


def _table(names, ds, ts: np.ndarray) -> BlockTable:
    """The columns names at every (d, t) of ds x ts, d-major, a block of ts at a time."""
    names = tuple(names)

    def blocks():
        for d in ds:
            for rows, states in dynamics.evolved_blocks(model.propagator(d), ts):
                yield BlockColumns(d, states, ts[rows], names).structured()

    return BlockTable(names, len(ds) * ts.size, blocks)


def sweep(d_grid, t_grid) -> BlockTable:
    """Observables over the Cartesian product of grids, ordered d-major then t.

    Returns a BlockTable of structured arrays with the float64 fields d, t,
    c_first, c_last, c_leg, chi_{xx,yy,zz}_{first,leg,last} and s_tot_z, in
    d order and, within each d, in blocks of at most dynamics.BLOCK_ROWS
    times (dynamics.evolved_blocks); each block is computed when the table
    is iterated.  The grids are checked, and duplicate d values are dropped
    with a warning, at the call.
    """
    ds = [float(x) for x in np.atleast_1d(np.asarray(d_grid, dtype=float))]
    # a copy: the blocks are computed later, from the grid as it is now
    ts = np.array(t_grid, dtype=float, ndmin=1)
    if len(ds) == 0 or ts.size == 0:
        raise ValidationError("sweep grids must be non-empty")
    if any(not dv > 0.0 for dv in ds):
        raise ValidationError("all sweep d values must be > 0")
    unique = list(dict.fromkeys(ds))
    if len(unique) != len(ds):
        warnings.warn("duplicate d values in sweep grid were dropped", stacklevel=2)
    return _table(_SWEEP_NAMES, unique, ts)


def evolve_table(d: float, ts: np.ndarray, pairs) -> BlockTable:
    """The evolve table of d at the times ts, computed a block at a time as it is read.

    Columns: t; c_{pq} for each (p, q) of pairs, in their order; for d > 0
    c_an_{pq}; chi_{xx,yy,zz}_{first,leg,last}; s_tot_{x,y,z}; and for
    d > 0 max_dev and leg_xx_table_dev.  d = 0 has no closed forms.
    """
    model.ModelParams(d=d)  # refuses a d that is negative or not finite
    names = ["t", *(f"c_{p}{q}" for p, q in pairs)]
    if d > 0.0:
        analytic.spectral_params(d)  # refuses a d outside the closed forms' domain
        names += [f"c_an_{p}{q}" for p, q in pairs]
    names += [*_CHI_NAMES, *(f"s_tot_{a}" for a in model.AXES)]
    if d > 0.0:
        names += ["max_dev", "leg_xx_table_dev"]
    return _table(names, [d], ts)
