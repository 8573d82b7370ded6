"""Monte Carlo harness comparing the digraph and geometric efficiency tests.

Each trial draws a matrix from a class generator and a random exact simplex
weight vector, then evaluates strong connectivity of the BCC digraph against
membership in one of the three cycle regions.  The two verdicts must agree on
every exact instance; any disagreement is recorded verbatim.
"""

from __future__ import annotations

import random
import time

from .efficiency import float_equality_band, is_efficient
from .errors import BadTrialCountError
from .generators import generate_with_rng, random_exact_weights
from .geometry import PerturbTag, is_efficient_geometric
from .pcm import Record


class EquivalenceReport(Record):
    trials: int
    agreements: int
    disagreements: tuple[dict, ...]
    seed: int
    class_tag: str
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_tag,
            "seed": self.seed,
            "trials": self.trials,
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "elapsed": self.elapsed,
        }


def run_equivalence_trials(seed: int, trials: int, class_tag: PerturbTag | str) -> EquivalenceReport:
    """Run the harness; deterministic verdict stream for a fixed seed."""
    if trials < 1:
        raise BadTrialCountError(f"BadTrialCount: trials must be >= 1, got {trials}")
    tag = PerturbTag(class_tag)
    band = float_equality_band()
    rng = random.Random(seed)
    start = time.perf_counter()
    disagreements = []
    agreements = 0
    for index in range(trials):
        pcm = generate_with_rng(rng, tag)
        w = random_exact_weights(rng)
        scc_verdict = is_efficient(pcm, w, band)
        geometric_verdict = is_efficient_geometric(pcm, w, band)
        if scc_verdict == geometric_verdict:
            agreements += 1
        else:
            disagreements.append({
                "trial": index,
                "matrix": pcm.rows_as_strings(),
                "w": w.as_strings(),
                "scc_verdict": scc_verdict,
                "geometric_verdict": geometric_verdict,
            })
    elapsed = time.perf_counter() - start
    return EquivalenceReport(
        trials=trials,
        agreements=agreements,
        disagreements=tuple(disagreements),
        seed=seed,
        class_tag=tag.value,
        elapsed=elapsed,
    )
