"""Report renderers and the command-line interface."""

import pytest

from repro.experiments import report
from repro.experiments.cli import main
from repro.experiments.tables import table1


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = report.render_table(
            ["A", "Long header"], [["1", "2"], ["333", "4"]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith("---")
        # columns padded to widest cell
        assert "Long header" in lines[1]

    def test_no_title(self):
        text = report.render_table(["X"], [["1"]])
        assert text.splitlines()[0].startswith("X")


def test_render_table1_contains_all_points():
    text = report.render_table1(table1())
    for token in ("1.4GHz", "0.6GHz", "1.484V", "0.956V"):
        assert token in text


def test_render_sweep_and_comparison_shapes():
    from repro.experiments.runner import SweepResult
    from repro.core.framework import Measurement

    def fake(elapsed, energy):
        return Measurement(
            workload="X", strategy="s", elapsed_s=elapsed, energy_j=energy,
            per_node_energy_j={}, dvs_transitions=0, time_at_mhz={},
        )

    sweep = SweepResult(
        workload="X.T.2",
        raw={600.0: fake(1.2, 70.0), 1400.0: fake(1.0, 100.0)},
        baseline_mhz=1400.0,
    )
    text = report.render_sweep(sweep)
    assert "600 MHz" in text and "1.200" in text and "0.700" in text

    from repro.experiments.figures import StrategyComparison

    comp = StrategyComparison("s", {"A": (1.1, 0.8), "B": (1.0, 1.0)})
    text = report.render_comparison(comp)
    rows = text.splitlines()[3:]
    assert rows[0].startswith("B")  # sorted by delay


class TestCli:
    def test_table1_target(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_fig2_target(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out
        assert "600 MHz" in out

    def test_table2_restricted_tiny(self, capsys):
        assert main(["table2", "--codes", "EP", "--class", "T"]) == 0
        out = capsys.readouterr().out
        assert "EP.T.8" in out

    def test_fig6_reuses_sweeps(self, capsys):
        assert main(["table2", "fig6", "--codes", "EP", "--class", "T"]) == 0
        out = capsys.readouterr().out
        assert "ED3P" in out

    @pytest.mark.parametrize(
        "targets, swept", [(["fig5"], None), (["table2", "fig5"], ["EP"])]
    )
    def test_fig5_reuses_sweeps_only_when_built(
        self, capsys, monkeypatch, targets, swept
    ):
        from repro.experiments import figures

        seen = []
        real = figures.figure5_cpuspeed

        def spy(**kwargs):
            seen.append(kwargs["sweeps"])
            return real(**kwargs)

        monkeypatch.setattr(figures, "figure5_cpuspeed", spy)
        argv = targets + ["--codes", "EP", "--class", "T", "--no-cache"]
        assert main(argv) == 0
        assert "CPUSPEED" in capsys.readouterr().out
        assert [None if s is None else sorted(s) for s in seen] == [swept]

    def test_advise_target(self, capsys):
        assert main(["advise", "--codes", "EP", "--class", "T"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["figNaN"])

    def test_serve_is_not_a_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err


class TestOptimizeCli:
    def test_optimize_target(self, capsys):
        assert main(
            ["optimize", "--codes", "FT", "--class", "T", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "Computed frontier vs shipped schedules: FT" in out
        assert "<- optimal" in out
        assert "optimizer:" in out  # CacheStats telemetry line

    def test_optimize_respects_delta(self, capsys):
        assert main(
            ["optimize", "--codes", "FT", "--class", "T", "--no-cache",
             "--delta", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "delay cap 1.200" in out
