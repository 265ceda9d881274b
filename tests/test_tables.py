import numpy as np
import pytest

from laddyn import cli, dynamics, measures, model, tables


def _count_calls(monkeypatch, *names):
    """Count the calls of each measures.<name>; return the counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(measures, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(measures, name, counting)
    return counts


SERIES = ("concurrence_series", "correlation_series", "total_spin_series")


class TestKernelComputesOnlyWhatIsAsked:
    def test_sweep_block(self, monkeypatch):
        # 601 times in two blocks
        ts = dynamics.time_grid(6.0, 0.01)
        counts = _count_calls(monkeypatch, *SERIES)
        blocks = list(tables.sweep([1.0], ts))
        assert len(blocks) == 2
        # c_first, c_leg and c_last; three axes for each of the three classes; s_tot_z
        assert counts == {"concurrence_series": 3 * 2, "correlation_series": 9 * 2,
                          "total_spin_series": 1 * 2}

    def test_evolve_with_one_pair(self, monkeypatch, tmp_path):
        cfg = tmp_path / "one_pair.cfg"
        cfg.write_text("pairs = 1-2\n")
        counts = _count_calls(monkeypatch, *SERIES)
        # 601 times in two blocks
        assert cli.main(["evolve", "--config", str(cfg), "--d", "0.6", "--t-max", "6",
                         "--output", str(tmp_path / "e.csv")]) == cli.EXIT_OK
        assert counts == {"concurrence_series": 1 * 2, "correlation_series": 9 * 2,
                          "total_spin_series": 3 * 2}

    def test_columns_are_computed_at_first_lookup(self, monkeypatch):
        states = dynamics.evolve_states(model.propagator(1.0), [0.0, 0.5])
        counts = _count_calls(monkeypatch, *SERIES)
        cols = tables.BlockColumns(1.0, states, np.array([0.0, 0.5]))
        assert counts == dict.fromkeys(SERIES, 0)
        # c_last is c_34, and both lookups share one computation
        assert cols["c_last"] is cols["c_34"]
        assert counts["concurrence_series"] == 1

    def test_unknown_column(self):
        states = dynamics.evolve_states(model.propagator(1.0), [0.0, 0.5])
        with pytest.raises(KeyError, match="chi_xy_leg"):
            tables.BlockColumns(1.0, states, np.array([0.0, 0.5]))["chi_xy_leg"]


@pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
def test_shared_columns_have_the_same_bits(d):
    # 1,201 times in three blocks
    ts = dynamics.time_grid(12.0, 0.01)
    sweep = np.concatenate(list(tables.sweep([d], ts)))
    evolve = np.concatenate(list(tables.evolve_table(d, ts, tables.ALL_PAIRS)))
    shared = {"t": "t", "c_first": "c_12", "c_leg": "c_13", "c_last": "c_34",
              "s_tot_z": "s_tot_z"}
    shared.update((name, name) for name in sweep.dtype.names if name.startswith("chi_"))
    assert len(shared) == 14
    for sweep_name, evolve_name in shared.items():
        assert sweep[sweep_name].tobytes() == evolve[evolve_name].tobytes(), sweep_name
