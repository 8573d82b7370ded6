"""Exact Pareto-efficiency analysis for pairwise comparison matrices.

Decides efficiency of weight vectors through strong connectivity of the
BCC digraph, constructs the full efficient set of a 4x4 matrix as a union
of three tetrahedra of path-tree weight vectors, classifies matrices by
their consistent-cycle structure, and exports the 3-simplex geometry.
"""

from .efficiency import bcc_digraph, is_efficient, strongly_connected
from .errors import InputError
from .export import (
    dump_json,
    geometry_document,
    load_matrix,
    load_weights,
    matrix_document,
    obj_mesh,
)
from .generators import generate_pcm
from .geometry import (
    PerturbTag,
    barycentric,
    canonical_rearrangement,
    classify,
    contains_cycle_region,
    cycle_orientation,
    efficient_set,
    embed,
    tetrahedron_for_cycle,
    triad_rearrangement,
)
from .pcm import (
    CANONICAL_CYCLES,
    cycle_product,
    format_rational,
    parse_pcm,
    pcm_from_upper,
    triad_product,
    weight_vector,
)
from .sampling import run_equivalence_trials

__version__ = "0.1.0"
