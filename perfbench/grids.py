"""The benchmark's workloads: `repro sweep` grid specs built from the workload seed.

The seed shifts every grid's market seeds (``MARKET_SEED_BASE + seed``
onwards), so two seeds replay different synthetic price histories
through the same grid shape.  The program only ever sees the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Market seeds start here, so default runs do not replay the seed-0
#: markets the repository's own tests and figures use everywhere.
MARKET_SEED_BASE = 100
DEFAULT_SEED = 0

WORKLOAD_NAMES = ("LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet")
INSTANCES = ("r4.large", "r4.xlarge", "r3.xlarge", "m4.2xlarge", "r4.2xlarge", "m4.4xlarge")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Builds the grid spec from the workload's market seeds.
    make_spec: Callable[[list[int]], dict]
    #: Number of market seeds the grid spans.
    market_seeds: int
    #: Local worker processes the sweep keeps busy.
    jobs: int
    distributed: bool
    #: Whether the traced run adds the RevPred cells of :func:`bank_spec`,
    #: which train a bank.  Bank training is one 45-95 s step that
    #: cannot be repeated within a run, so no untraced run times it.
    traced_bank: bool

    def seeds(self, seed: int) -> list[int]:
        first = MARKET_SEED_BASE + seed * self.market_seeds
        return list(range(first, first + self.market_seeds))

    def spec(self, seed: int) -> dict:
        return self.make_spec(self.seeds(seed))

    @property
    def flags(self) -> list[str]:
        """``repro sweep`` flags besides the spec, cache and output paths."""
        return (["--distributed"] if self.distributed else []) + ["--jobs", str(self.jobs)]


def _sim_spec(seeds: list[int]) -> dict:
    # Workload i runs on market seed i (and i + 3): a cell's work moves
    # with its market's revocations, and six markets average that out
    # better than two would.
    half = len(seeds) // 2
    grids = []
    for index, name in enumerate(WORKLOAD_NAMES):
        own, other = seeds[index], seeds[(index + half) % len(seeds)]
        grids += [
            {"approach": "spottune", "workload": name, "theta": 0.7, "predictor": "oracle", "seed": own},
            {"approach": "spottune", "workload": name, "theta": 1.0, "predictor": "constant", "seed": other},
            {"approach": "single_spot", "workload": name, "instance": "r4.large", "seed": [own, other]},
        ]
    # The other checkpoint policies, so the frozen-core check covers
    # each of them.
    grids.append({"approach": "spottune", "workload": "SVM", "theta": 0.7, "predictor": "oracle",
                  "checkpoint_policy": ["periodic:1800", "prediction:0.5:300"], "seed": seeds[0]})
    return {"grids": grids}


def bank_spec(seeds: list[int]) -> dict:
    """The RevPred cells a traced ``sim_grid`` run adds: one per workload
    on the first market seed, so the sweep trains one RevPred bank."""
    return {"seed": seeds[0], "approach": "spottune", "theta": 0.7,
            "workload": list(WORKLOAD_NAMES), "predictor": "revpred"}


def _fleet_spec(seeds: list[int]) -> dict:
    return {
        "seed": seeds,
        "approach": "single_spot",
        "workload": list(WORKLOAD_NAMES),
        "instance": list(INSTANCES),
        "mcnt": [1, 3, 5],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet_grid",
            "432 baseline cells of ~3 ms through --distributed --jobs 2: task files, claims, "
            "fsynced stores and worker start-up set the time",
            _fleet_spec,
            market_seeds=4,
            jobs=2,
            distributed=True,
            traced_bank=False,
        ),
        Workload(
            "sim_grid",
            "14 SpotTune cells (oracle, constant p=0, three checkpoint policies) plus 12 baselines "
            "on the pool, --jobs 2: poll loop, curve fits and provisioning set the time",
            _sim_spec,
            market_seeds=6,
            jobs=2,
            distributed=False,
            traced_bank=True,
        ),
    )
}

#: The workload whose SpotTune cells the frozen scalar core re-simulates
#: as a check: SVM's RevPred cell is the cheapest to re-simulate.
SAMPLE_WORKLOAD = "SVM"
