"""Tests for the experiment harness, bounds and report rendering."""

import pytest

from repro.adversaries import MaxDegreeAdversary, RandomAdversary
from repro.baselines import ForgivingTreeHealer, LineHealer
from repro.graphs import generators
from repro.harness import bounds, duel, report, run_campaign


class TestRunCampaign:
    def test_records_every_round(self):
        healer = ForgivingTreeHealer(generators.star(10))
        result = run_campaign(healer, RandomAdversary(1), rounds=5)
        assert len(result.rounds) == 5
        assert result.healer_name == "forgiving-tree"
        assert result.adversary_name == "random"
        assert result.n0 == 11

    def test_runs_to_one_survivor_by_default(self):
        healer = ForgivingTreeHealer(generators.path(6))
        result = run_campaign(healer, RandomAdversary(2))
        assert result.rounds[-1].alive == 1

    def test_stop_fraction(self):
        healer = ForgivingTreeHealer(generators.path(10))
        result = run_campaign(healer, RandomAdversary(3), stop_fraction=0.5)
        assert result.rounds[-1].alive >= 5

    def test_series_extraction(self):
        healer = ForgivingTreeHealer(generators.star(6))
        result = run_campaign(healer, MaxDegreeAdversary(), rounds=3)
        assert len(result.series("max_degree_increase")) == 3

    def test_observer_called(self):
        seen = []
        healer = ForgivingTreeHealer(generators.star(5))
        run_campaign(
            healer,
            RandomAdversary(0),
            rounds=2,
            on_round=lambda rec, h: seen.append(rec.round),
        )
        assert seen == [1, 2]

    def test_exact_diameter_mode(self):
        healer = ForgivingTreeHealer(generators.path(8))
        result = run_campaign(healer, RandomAdversary(5), rounds=3, metrics="exact")
        assert all(r.diameter is not None for r in result.rounds if r.connected)

    def test_duel(self):
        tree = generators.star(12)
        results = duel(
            tree,
            [ForgivingTreeHealer, LineHealer],
            lambda: MaxDegreeAdversary(),
            rounds=6,
        )
        assert set(results) == {"forgiving-tree", "line"}


class TestBounds:
    def test_degree_bound(self):
        assert bounds.thm1_degree_bound() == 3
        assert bounds.thm1_degree_bound(4) == 5

    def test_diameter_bound_monotone(self):
        assert bounds.thm1_diameter_bound(4, 64) >= bounds.thm1_diameter_bound(4, 8)
        assert bounds.thm1_diameter_bound(1, 1) >= 1

    def test_thm2_predicate(self):
        assert bounds.thm2_lower_bound_holds(3, 3, 100)
        assert not bounds.thm2_lower_bound_holds(3, 0.5, 10_000)

    def test_section42_needs_alpha3(self):
        with pytest.raises(ValueError):
            bounds.section42_stretch_bound(2, 100)

    def test_setup_bound(self):
        assert bounds.setup_messages_bound(1024) == pytest.approx(40.0)


class TestReport:
    def test_table(self):
        text = report.format_table(
            ["name", "value"], [["a", 1], ["bb", 2.5]]
        )
        assert "name" in text and "bb" in text and "2.50" in text
        assert len(text.splitlines()) == 4

    def test_series(self):
        text = report.format_series("diam", list(range(40)))
        assert text.startswith("diam: 0 1 2")

    def test_sparkline(self):
        assert len(report.sparkline([1, 2, 3])) == 3
        assert report.sparkline([5, 5]) == "▁▁"
        assert report.sparkline([]) == ""

    def test_banner(self):
        assert "EXP" in report.banner("EXP")
