"""Workload definitions: generator parameters, CLI flags and corpus sizes.

Why each workload exists is recorded in BENCHMARK.json and README.md.

Every workload draws its corpus from ``gmk.generators.gen_random``; the
instance with index k of seed s uses generator seed ``s * 1_000_003 + k``,
so the same seed gives the same files. All use eps 0.2 and phi 1.

Two flags exist only because of open ROADMAP items:

* ``--budget 10**15``: the default ``enum_budget`` of 10**6 bounds the
  product of group sizes, so it refuses every exact solve with T >= 7
  (ROADMAP item 4 replaces it with a node budget).
* ``--mu-inv 4 --horizon-cap 8`` on ``cut_multibin``: every valid eps gives
  mu_inv >= 17, so without the override the cutting loop only runs past
  T = 34, where windows exceed the default horizon cap (ROADMAP item 3).
"""

from __future__ import annotations

from dataclasses import dataclass

BUDGET = str(10**15)
SCHEME = ["--eps", "0.2", "--phi", "1"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "solve"
    flags: tuple[str, ...]
    gen: dict
    instances: int  # corpus size; one untraced pass takes 15 to 20 s on 2 CPUs
    optimal: bool  # the emitted value must equal the oracle optimum


CRITERION5_RANGES = dict(
    weight_range=(1, 4), capacity_range=(3, 7), profit_range=(1, 5),
    gain_range=(0, 2), cost_range=(1, 1), target_phi=1,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact_bypass",
            command="compare",
            flags=("--sub-solver", "exact", "--budget", BUDGET),
            gen=dict(items=3, horizon=10, dimension=1, bins_per_mkc=1, **CRITERION5_RANGES),
            instances=260,
            optimal=True,
        ),
        Workload(
            name="cut_multibin",
            command="solve",
            flags=("--mu-inv", "4", "--horizon-cap", "8", "--sub-solver", "exact",
                   "--budget", BUDGET),
            gen=dict(items=3, horizon=40, dimension=2, bins_per_mkc=2,
                     capacity_range=(3, 8), target_phi=1),
            instances=70,
            optimal=False,
        ),
        Workload(
            name="greedy_oracle",
            command="compare",
            flags=("--sub-solver", "greedy", "--budget", BUDGET),
            gen=dict(items=6, horizon=10, dimension=2, bins_per_mkc=2,
                     capacity_range=(4, 12), target_phi=1),
            instances=80,
            optimal=False,
        ),
        Workload(
            name="submod_exact",
            command="compare",
            flags=("--sub-solver", "exact", "--budget", BUDGET),
            gen=dict(items=3, horizon=4, dimension=1, bins_per_mkc=1, variant="submodular"),
            instances=260,
            optimal=True,
        ),
    )
}


def cli_argv(w: Workload, instance: str, out: str) -> list[str]:
    """Arguments of one ``gmk.cli.main`` call; ``out`` receives the emitted JSON."""
    dest = "--report" if w.command == "compare" else "--out"
    return [w.command, "--in", instance, *SCHEME, *w.flags, dest, out]
