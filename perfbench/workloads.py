"""The benchmark's workloads: inputs, CLI arguments and checks per call.

Each workload is a closed loop of ``gmmaug.cli.main`` calls made by one
client. Call ``j`` uses input slot ``j % slots``; the calls from
``slots`` on replay an earlier call's arguments, and their outputs must
be byte-identical to it. A run makes at least ``min_calls`` calls.
"""

from __future__ import annotations

from pathlib import Path

import checks
import inputs


class StatsWorkload:
    """``gmmaug stats`` over a corpus split into two directories.

    Consecutive calls alternate between the directories, so a run fits
    eight phantoms; from the third call on, each call replays an earlier one.
    """

    slots = 2
    min_calls = 3
    unit = "volumes"

    def __init__(self, name: str, quantised: bool, dims=(64, 64, 64), per_slot=4):
        self.name, self.quantised = name, quantised
        self.dims, self.per_slot = dims, per_slot
        self.work = per_slot  # volumes fitted per call
        self.seen: dict = {}

    def setup(self, gm, root: Path, seed: int) -> None:
        self.root = root
        self.corpora = inputs.make_corpora(
            gm, root, seed, self.slots, self.per_slot, self.dims, self.quantised)

    def _out(self, j: int) -> Path:
        return self.root / f"stats_{j}.json"

    def argv(self, j: int) -> list[str]:
        corpus = self.root / f"corpus{j % self.slots}"
        return ["stats", str(corpus), "--out", str(self._out(j))]

    def check(self, gm, j: int, code) -> tuple[list[str], float]:
        out = self._out(j)
        failures = checks.check_exit(code)
        found, err = checks.check_stats(gm, out, self.corpora[j % self.slots])
        failures += found + checks.check_replay(self.seen, j % self.slots, [out])
        out.unlink(missing_ok=True)
        return failures, err


class AugmentWorkload:
    """``gmmaug augment --n draws`` on one subject; every call replays the first.

    Its fits stream arrays larger than L2, so their speed swings with the
    memory traffic of whatever else shares the machine; three calls per
    run give the median something to hold on to.
    """

    slots = 1
    min_calls = 3
    unit = "draws"

    def __init__(self, name: str, dims=(96, 96, 96), draws=2):
        self.name, self.dims, self.draws = name, dims, draws
        self.work = draws  # volumes written per call
        self.seen: dict = {}

    def setup(self, gm, root: Path, seed: int) -> None:
        self.root, self.seed = root, seed
        self.subject, self.stats_path = inputs.make_augment_inputs(gm, root, seed, self.dims)

    def _prefix(self, j: int) -> str:
        return str(self.root / f"aug_{j}")

    def _outputs(self, j: int) -> list[str]:
        prefix = self._prefix(j)
        return [f"{prefix}_{i}.{ext}" for i in range(self.draws) for ext in ("nii", "json")]

    def argv(self, j: int) -> list[str]:
        return ["augment", str(self.subject.path), "--stats", str(self.stats_path),
                "--seed", str(self.seed), "--n", str(self.draws),
                "--out-prefix", self._prefix(j)]

    def check(self, gm, j: int, code) -> tuple[list[str], float]:
        failures = checks.check_exit(code)
        found, err = checks.check_augment(gm, self._prefix(j), self.draws, self.seed, self.subject)
        failures += found + checks.check_replay(self.seen, j % self.slots, self._outputs(j))
        for path in self._outputs(j):
            Path(path).unlink(missing_ok=True)
        return failures, err


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads by name; ``tiny`` shrinks every input for smoke runs."""
    corpus = {"dims": (20, 20, 20)} if tiny else {}
    subject = {"dims": (24, 24, 24)} if tiny else {}
    workloads = [
        # EM is more than 95% of each call and I/O is read-only. Integer
        # intensities (~340 distinct values per volume) are where an exact
        # EM on distinct values and their counts does almost all its work.
        StatsWorkload("stats-quantised", quantised=True, **corpus),
        # The same phantoms stored as floats: grouping by distinct value
        # collapses nothing, so the exact grouped path should not move this
        # workload and any extra sort cost shows. Only a binned path can
        # gain, and mean_err_max guards the error binning introduces.
        StatsWorkload("stats-continuous", quantised=False, **corpus),
        # One larger subject whose (k, n) EM arrays (~8.6 MB) overflow a
        # 4 MiB L2 where the corpus volumes' (~2.5 MB) fit. The command
        # writes n volumes and n sidecars and refits once per draw today,
        # so fitting once amortises the fit and then remap and write_volume
        # are the bottleneck. Streaming stats should not move it.
        AugmentWorkload("augment-batch", **subject),
    ]
    return {w.name: w for w in workloads}
