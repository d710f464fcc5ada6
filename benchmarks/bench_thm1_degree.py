"""EXP-T1-DEG — Theorem 1.1: degree increase never exceeds 3.

Sweeps graph families × adversaries, full campaigns; reports the peak
degree increase per cell against the bound (3), plus the surrogate
baseline's blow-up on the same attack for contrast.
"""

from repro.adversaries import (
    MaxDegreeAdversary,
    MinDegreeAdversary,
    RandomAdversary,
    SurrogateKillerAdversary,
)
from repro.baselines import ForgivingTreeHealer, SurrogateHealer
from repro.graphs import generators
from repro.harness import bounds, report, run_campaign

from benchmarks.conftest import dump_bench, emit, table

FAMILIES = ["star", "path", "random", "binary", "broom", "caterpillar"]
ADVERSARIES = {
    "random": lambda: RandomAdversary(1),
    "max-degree": MaxDegreeAdversary,
    "min-degree": MinDegreeAdversary,
    "surrogate-killer": SurrogateKillerAdversary,
}
N = 120


def run_sweep():
    rows = []
    for family in FAMILIES:
        tree = generators.TREE_FAMILIES[family](N, 7)
        for adv_name, make_adv in ADVERSARIES.items():
            healer = ForgivingTreeHealer({k: set(v) for k, v in tree.items()})
            result = run_campaign(healer, make_adv(), metrics="none")
            rows.append(
                [
                    family,
                    adv_name,
                    result.n0,
                    result.peak_degree_increase,
                    bounds.thm1_degree_bound(),
                    "OK" if result.peak_degree_increase <= 3 else "VIOLATION",
                ]
            )
    return rows


def test_thm1_degree_bound(benchmark, capsys):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    assert all(r[5] == "OK" for r in rows)

    # Contrast: surrogate healing under the same killer attack.
    tree = generators.star(N)
    surrogate = run_campaign(
        SurrogateHealer({k: set(v) for k, v in tree.items()}),
        SurrogateKillerAdversary(),
        rounds=N // 2,
        metrics="none",
    )
    dump_bench(
        "thm1_degree",
        {"sweep": table(
            ["family", "adversary", "n", "peak_ddeg", "bound", "verdict"], rows
        )},
        surrogate_peak_ddeg=surrogate.peak_degree_increase,
    )
    emit(capsys, report.banner("EXP-T1-DEG  Theorem 1.1: max degree increase <= 3"))
    emit(
        capsys,
        report.format_table(
            ["family", "adversary", "n", "peak ∆deg", "bound", "verdict"], rows
        ),
    )
    emit(
        capsys,
        f"\ncontrast (same attack, surrogate healing on star-{N}): "
        f"peak ∆deg = {surrogate.peak_degree_increase}  [Θ(n) as the intro claims]",
    )
