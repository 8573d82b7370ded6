"""Monte Carlo harness comparing the digraph and geometric efficiency tests.

Each trial draws a matrix from a class generator and a random exact simplex
weight vector, then reads two verdicts off their BCC digraph: strong
connectivity, by two mask closures from vertex 1, and holding a canonical cycle
in its admissible orientation (a cycle region), by testing its arc mask against
the arc masks that the orientations keep.  A trial builds one matrix, one weight
vector and one digraph; the orientations are built at import.  The verdicts
must agree on every exact instance; any disagreement is recorded verbatim.
"""

from __future__ import annotations

import random
import time

from .efficiency import bcc_digraph, strongly_connected
from .errors import BadTrialCountError
from .generators import generate_with_rng, random_exact_weights
from .geometry import PerturbTag, canonical_orientations, contains_cycle_region
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


def trial_settings(trials: int, class_tag: PerturbTag | str) -> PerturbTag:
    """The class a run reads, once its trial count is checked: every input error
    a run raises, raised before any trial.  A run reads no process setting."""
    if trials < 1:
        raise BadTrialCountError(f"trials must be >= 1, got {trials}")
    return PerturbTag(class_tag)


def run_equivalence_trials(seed: int, trials: int, class_tag: PerturbTag | str) -> EquivalenceReport:
    """Run the harness; deterministic verdict stream for a fixed seed."""
    tag = trial_settings(trials, class_tag)
    rng = random.Random(seed)
    start = time.perf_counter()
    disagreements = []
    agreements = 0
    for index in range(trials):
        pcm = generate_with_rng(rng, tag)
        w = random_exact_weights(rng)
        digraph = bcc_digraph(pcm, w)
        scc_verdict = strongly_connected(digraph)
        geometric_verdict = any(contains_cycle_region(digraph, o) for o in canonical_orientations(pcm))
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
    return EquivalenceReport(trials, agreements, tuple(disagreements), seed, tag.value, elapsed)
