"""Exact Pareto-efficiency analysis for pairwise comparison matrices.

Decides efficiency of weight vectors through strong connectivity of the
BCC digraph, constructs the full efficient set of a 4x4 matrix as a union
of three tetrahedra of path-tree weight vectors, classifies matrices by
their consistent-cycle structure, and exports the 3-simplex geometry.

The names below load their module on first access (PEP 562), so importing
the package, or one module of it, loads no module it does not use.
"""

import importlib

_EXPORTS = {
    "efficiency": ("bcc_digraph", "is_efficient", "strongly_connected"),
    "errors": ("InputError",),
    "export": ("dump_json", "geometry_document", "load_matrix", "load_weights",
               "matrix_document", "obj_mesh"),
    "generators": ("generate_pcm",),
    "geometry": ("PerturbTag", "barycentric", "canonical_rearrangement", "classify",
                 "contains_cycle_region", "efficient_set", "embed", "tetrahedron_for_cycle",
                 "triad_rearrangement"),
    "pcm": ("CANONICAL_CYCLES", "cycle_product", "format_rational", "parse_pcm",
            "pcm_from_upper", "triad_product", "weight_vector"),
    "sampling": ("run_equivalence_trials",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
