"""In-memory span recorder and the layer wrappers of the traced run.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1.  The recorder wraps effpcm's
public names from outside the package, so the library source stays
untouched.  A name imported with ``from .x import f`` is a separate binding
in every importing module; ``install`` rebinds each of them.

Per-layer metrics derive from the spans after the run: a span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent label")

# (module, attribute, span name, kind).  "span" records a span per call;
# "count" only counts calls, so hot one-liners do not distort the timings of
# the layers that call them.
PLAN = (
    ("effpcm.pcm", "Pcm.__post_init__", "pcm.validate", "span"),
    ("effpcm.pcm", "parse_pcm", "pcm.parse", "span"),
    ("effpcm.pcm", "cycle_product", "pcm.cycle_product", "count"),
    ("effpcm.pcm", "triad_product", "pcm.triad_product", "count"),
    ("effpcm.efficiency", "is_efficient", "efficiency.is_efficient", "span"),
    ("effpcm.efficiency", "bcc_digraph", "efficiency.bcc_digraph", "span"),
    ("effpcm.efficiency", "strongly_connected", "efficiency.strongly_connected", "span"),
    ("effpcm.trees", "tree_weight_vector", "trees.tree_weight_vector", "span"),
    ("effpcm.geometry", "classify", "geometry.classify", "span"),
    ("effpcm.geometry", "is_efficient_geometric", "geometry.is_efficient_geometric", "span"),
    ("effpcm.geometry", "canonical_rearrangement", "geometry.canonical_rearrangement", "span"),
    ("effpcm.geometry", "triad_rearrangement", "geometry.triad_rearrangement", "span"),
    ("effpcm.geometry", "efficient_set", "geometry.efficient_set", "span"),
    ("effpcm.geometry", "affine_rank", "geometry.affine_rank", "span"),
    ("effpcm.generators", "generate_with_rng", "generators.generate", "span"),
    ("effpcm.sampling", "run_equivalence_trials", "sampling.run", "span"),
    ("effpcm.export", "load_matrix", "export.load", "span"),
    ("effpcm.export", "load_weights", "export.load", "span"),
    ("effpcm.export", "geometry_document", "export.geometry_document", "span"),
    ("effpcm.export", "obj_mesh", "export.obj_mesh", "span"),
    ("effpcm.cli", "main", "cli.main", "span"),
)


def _sampling_label(args, kwargs):
    """(class, trials) of a run_equivalence_trials call."""
    bound = dict(zip(("seed", "trials", "class_tag"), args), **kwargs)
    tag = bound["class_tag"]
    return (str(getattr(tag, "value", tag)), bound["trials"])


def _vertex_bits(w) -> int:
    """Largest numerator or denominator bit length of an exact weight vector."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in w.components)


class SpanRecorder:
    """Keeps spans and call counts in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.vertex_bits_max = 0
        self._open: list[int] = []

    def wrap(self, name, fn, label=None, on_result=None):
        spans, open_spans, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so parents precede children
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = Span(name, start, end, parent,
                                    label(args, kwargs) if label else None)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_vertex(self, w) -> None:
        self.vertex_bits_max = max(self.vertex_bits_max, _vertex_bits(w))


def install(recorder: SpanRecorder) -> list:
    """Rebind every PLAN name in every loaded effpcm module; returns an undo list."""
    undo = []
    packages = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "effpcm" or key.startswith("effpcm."))]
    for module_name, attribute, name, kind in PLAN:
        module = importlib.import_module(module_name)
        if "." in attribute:  # a method: patch the class once
            cls_name, method = attribute.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, recorder.wrap(name, original))
            continue
        original = getattr(module, attribute)
        if kind == "count":
            replacement = recorder.count(name, original)
        elif attribute == "run_equivalence_trials":
            replacement = recorder.wrap(name, original, label=_sampling_label)
        elif attribute == "tree_weight_vector":
            replacement = recorder.wrap(name, original, on_result=recorder._note_vertex)
        else:
            replacement = recorder.wrap(name, original)
        for package in packages:
            for key, value in list(vars(package).items()):
                if value is original:
                    undo.append((package, key, original))
                    setattr(package, key, replacement)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def self_time(duration_start: float, duration_end: float, children) -> float:
    """Span duration minus the union of its children's intervals (clipped to it)."""
    covered = 0.0
    cursor = duration_start
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, duration_end)
        if end > start:
            covered += end - start
            cursor = end
    return (duration_end - duration_start) - covered


def summarize(recorder: SpanRecorder) -> dict:
    """Additive per-name sums of a recorder's spans; merge with ``merge``."""
    spans = recorder.spans
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    names: dict[str, list] = {}
    trials: dict[str, list] = {}
    generate_classify = 0
    for index, span in enumerate(spans):
        total = span.end - span.start
        own = self_time(span.start, span.end, children.get(index, ()))
        entry = names.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += total
        entry[2] += own
        if span.label is not None:
            cls, count = span.label
            per_class = trials.setdefault(cls, [0, 0.0])
            per_class[0] += count
            per_class[1] += total
        if (span.name == "geometry.classify" and span.parent >= 0
                and spans[span.parent].name == "generators.generate"):
            generate_classify += 1
    return {
        "names": names,
        "counts": dict(recorder.counts),
        "trials": trials,
        "generate_classify": generate_classify,
        "vertex_bits_max": recorder.vertex_bits_max,
    }


def merge(a: dict, b: dict) -> dict:
    """Combine two summaries (from separate processes)."""
    out = {"names": {}, "counts": dict(a["counts"]), "trials": {},
           "generate_classify": a["generate_classify"] + b["generate_classify"],
           "vertex_bits_max": max(a["vertex_bits_max"], b["vertex_bits_max"])}
    for key in ("names", "trials"):
        for source in (a[key], b[key]):
            for name, values in source.items():
                target = out[key].setdefault(name, [0] * len(values))
                out[key][name] = [x + y for x, y in zip(target, values)]
    for name, count in b["counts"].items():
        out["counts"][name] = out["counts"].get(name, 0) + count
    return out


EMPTY_SUMMARY = {"names": {}, "counts": {}, "trials": {}, "generate_classify": 0,
                 "vertex_bits_max": 0}

CLASSES = ("triple", "double-triad", "double-one-cycle", "double-two-cycles",
           "simple", "consistent")


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-op layer metrics from a summary: name -> (value, unit)."""
    names, counts = summary["names"], summary["counts"]

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0] / ops

    def total_us(name):
        return names.get(name, [0, 0.0, 0.0])[1] / ops * 1e6

    def self_us(name):
        return names.get(name, [0, 0.0, 0.0])[2] / ops * 1e6

    generated = names.get("generators.generate", [0, 0.0, 0.0])
    sampled = names.get("sampling.run", [0, 0.0, 0.0])
    metrics = {
        "pcm.validate_calls": (calls("pcm.validate"), "count"),
        "pcm.validate_us": (self_us("pcm.validate"), "us"),
        "pcm.parse_us": (self_us("pcm.parse"), "us"),
        "pcm.cycle_product_calls": (counts.get("pcm.cycle_product", 0) / ops, "count"),
        "pcm.triad_product_calls": (counts.get("pcm.triad_product", 0) / ops, "count"),
        "efficiency.is_efficient_calls": (calls("efficiency.is_efficient"), "count"),
        "efficiency.bcc_digraph_us": (self_us("efficiency.bcc_digraph"), "us"),
        "efficiency.strongly_connected_us": (self_us("efficiency.strongly_connected"), "us"),
        "trees.tree_weight_vector_calls": (calls("trees.tree_weight_vector"), "count"),
        "trees.tree_weight_vector_us": (self_us("trees.tree_weight_vector"), "us"),
        "geometry.classify_calls": (calls("geometry.classify"), "count"),
        "geometry.classify_us": (self_us("geometry.classify"), "us"),
        "geometry.is_efficient_geometric_us": (self_us("geometry.is_efficient_geometric"), "us"),
        "geometry.canonical_rearrangement_us": (self_us("geometry.canonical_rearrangement"), "us"),
        "geometry.triad_rearrangement_us": (self_us("geometry.triad_rearrangement"), "us"),
        "geometry.efficient_set_calls": (calls("geometry.efficient_set"), "count"),
        "geometry.efficient_set_us": (total_us("geometry.efficient_set"), "us"),
        "geometry.affine_rank_calls": (calls("geometry.affine_rank"), "count"),
        "geometry.affine_rank_us": (self_us("geometry.affine_rank"), "us"),
        "geometry.coincidence_us": (self_us("geometry.efficient_set"), "us"),
        "geometry.vertex_bits_max": (summary["vertex_bits_max"], "bits"),
        "generators.generate_us": (self_us("generators.generate"), "us"),
        "generators.accept_ratio": (
            generated[0] / summary["generate_classify"] if summary["generate_classify"] else 0.0,
            "ratio"),
        "sampling.generate_share": (generated[1] / sampled[1] if sampled[1] else 0.0, "ratio"),
        "export.load_us": (self_us("export.load"), "us"),
        "export.geometry_document_us": (self_us("export.geometry_document"), "us"),
        "export.obj_mesh_us": (self_us("export.obj_mesh"), "us"),
        "cli.main_ms": (total_us("cli.main") / 1e3, "ms"),
    }
    for cls in CLASSES:
        count, seconds = summary["trials"].get(cls, (0, 0.0))
        metrics[f"sampling.trials_per_s.{cls}"] = (count / seconds if seconds else 0.0, "1/s")
    return metrics
