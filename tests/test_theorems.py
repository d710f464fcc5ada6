"""Empirical validation of Theorems 1 and 2 and the Section 4.2 remark."""

import math
import random

import pytest

from repro import ForgivingTree
from repro.adversaries import (
    CenterAdversary,
    MaxDegreeAdversary,
    MinDegreeAdversary,
    RandomAdversary,
)
from repro.baselines import (
    BinaryTreeHealer,
    ForgivingTreeHealer,
    LineHealer,
    SurrogateHealer,
)
from repro.extensions import AlphaForgivingTree, tradeoff_point
from repro.graphs import generators, metrics
from repro.harness import bounds, run_campaign


class TestTheorem1Degree:
    @pytest.mark.parametrize("family", ["star", "random", "broom", "binary"])
    @pytest.mark.parametrize(
        "adversary",
        [RandomAdversary(3), MaxDegreeAdversary(), MinDegreeAdversary()],
        ids=["random", "max-degree", "min-degree"],
    )
    def test_degree_increase_at_most_three(self, family, adversary):
        tree = generators.TREE_FAMILIES[family](50, 2)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        result = run_campaign(healer, adversary, metrics="none")
        assert result.peak_degree_increase <= bounds.thm1_degree_bound()

    def test_bound_is_tight(self):
        """Some instance actually reaches +3 (the bound is not slack)."""
        tree = generators.star(16)
        ft = ForgivingTree(tree, strict=True)
        ft.delete(0)
        assert ft.max_degree_increase() == 3


class TestTheorem1Diameter:
    @pytest.mark.parametrize("family", ["star", "random", "broom", "caterpillar"])
    def test_diameter_within_envelope(self, family):
        tree = generators.TREE_FAMILIES[family](60, 4)
        d0 = metrics.diameter_exact(tree)
        delta = max(len(v) for v in tree.values())
        envelope = bounds.thm1_diameter_bound(d0, delta)
        healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
        result = run_campaign(healer, CenterAdversary())
        assert result.peak_diameter <= envelope
        assert result.stayed_connected

    def test_star_diameter_is_logarithmic(self):
        """Deleting a star's center leaves diameter ~ 2 log2(∆)."""
        tree = generators.star(256)
        ft = ForgivingTree(tree, strict=True)
        ft.delete(0)
        healed = metrics.diameter_exact(ft.adjacency())
        assert healed <= 2 * (math.log2(256) + 1) + 2


class TestTheorem1Messages:
    def test_messages_constant_in_n(self):
        """Synthesized per-node message counts do not grow with n."""
        worst = {}
        for n in (20, 80, 200):
            tree = generators.random_tree(n, seed=4)
            ft = ForgivingTree(tree)
            order = sorted(tree)
            random.Random(2).shuffle(order)
            worst[n] = max(ft.delete(v).max_messages_per_node for v in order)
        assert worst[200] <= worst[20] + 4  # flat, not growing with n


class TestTheorem2:
    def test_lower_bound_on_star_for_forgiving_tree(self):
        """α^(2β+1) ≥ ∆ holds for the Forgiving Tree on the star."""
        delta = 128
        tree = generators.star(delta)
        ft = ForgivingTree(tree, strict=True)
        ft.delete(0)
        healed = metrics.diameter_exact(ft.adjacency())
        alpha = max(3, ft.max_degree_increase())
        beta = healed / 2  # the star's diameter is 2
        assert bounds.thm2_lower_bound_holds(alpha, beta, delta)

    @pytest.mark.parametrize("delta", [8, 32, 128])
    def test_lower_bound_for_every_healer(self, delta):
        tree = generators.star(delta)
        for make in (ForgivingTreeHealer, SurrogateHealer, LineHealer, BinaryTreeHealer):
            healer = make({k: set(v) for k, v in tree.items()})
            healer.delete(0)  # kill the center
            g = healer.graph()
            if not g:
                continue
            from repro.graphs.adjacency import is_connected

            assert is_connected(g)
            alpha = max(3, healer.max_degree_increase())
            beta = metrics.diameter_exact(g) / 2
            assert bounds.thm2_lower_bound_holds(alpha, beta, delta), make.name

    def test_min_stretch_formula(self):
        assert bounds.thm2_min_stretch(3, 3 ** 5) == pytest.approx(2.0)
        assert bounds.thm2_min_stretch(3, 1) == 0.0


class TestSection42Tradeoff:
    @pytest.mark.parametrize("alpha", [3, 4, 5, 7])
    def test_alpha_tree_degree_bound(self, alpha):
        tree = generators.star(40)
        ft = AlphaForgivingTree(tree, alpha=alpha, strict=True)
        ft.delete(0)
        assert ft.max_degree_increase() <= alpha

    def test_larger_alpha_gives_smaller_diameter(self):
        tree = generators.star(256)
        healed = {}
        for alpha in (3, 5, 9):
            ft = AlphaForgivingTree(tree, alpha=alpha, strict=True)
            ft.delete(0)
            healed[alpha] = metrics.diameter_exact(ft.adjacency())
        assert healed[9] <= healed[5] <= healed[3]

    def test_beta_promise_met_on_star(self):
        delta = 256
        tree = generators.star(delta)
        for alpha in (3, 5):
            ft = AlphaForgivingTree(tree, alpha=alpha, strict=True)
            ft.delete(0)
            beta = metrics.diameter_exact(ft.adjacency()) / 2
            assert beta <= bounds.section42_stretch_bound(alpha, delta) + 1

    def test_tradeoff_point_fields(self):
        point = tradeoff_point(5, 1024)
        assert point["branching"] == 4
        assert point["beta_floor_thm2"] < point["beta_promise"]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            AlphaForgivingTree({0: [1]}, alpha=2)
