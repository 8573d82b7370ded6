"""The package's value records: equality, hashing, repr, immutability and
validation behave as the frozen dataclasses they replace did, the one
record constructor rejects a missing, extra, unknown or doubled field with
``TypeError``, and importing the command line does not load ``dataclasses``
or ``inspect``."""

import dataclasses
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import effpcm
from effpcm.efficiency import BccDigraph, bcc_digraph
from effpcm.errors import (
    ImpossibleCombinationError,
    IndexOutOfRangeError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    ReciprocityViolationError,
)
from effpcm.geometry import (
    CoincidenceReport,
    CuttingPlane,
    CycleOrientation,
    EfficientSet,
    PerturbClass,
    PerturbTag,
    Tetrahedron,
    classify,
    canonical_orientations,
    cutting_planes,
    efficient_set,
    tetrahedron_for_cycle,
)
from effpcm.pcm import Pcm, Permutation, Record, WeightVector, parse_pcm, pcm_from_upper, weight_vector
from effpcm.sampling import EquivalenceReport
from effpcm.trees import LabeledPath, SpanningTree
from conftest import RUNNING_ROWS, RUNNING_UPPER

RUNNING = parse_pcm(RUNNING_ROWS)
# two consistent triads and one consistent 4-cycle: a nonempty coincidence report
SIMPLE = pcm_from_upper(4, {**RUNNING_UPPER, (1, 2): Fraction(5, 2), (2, 4): Fraction(14, 5)})
W = weight_vector([1, 2, 3, 4])

# class: (its fields in declaration order, one instance, an unequal instance)
SAMPLES = {
    Pcm: (("entries",), RUNNING, SIMPLE),
    WeightVector: (("components",), W, weight_vector([1, 2, 3, 5])),
    Permutation: (("mapping",), Permutation((2, 1, 3, 4)), Permutation((1, 2, 3, 4))),
    BccDigraph: (("n", "arcs", "equality_pairs"), bcc_digraph(RUNNING, W),
                 bcc_digraph(RUNNING, weight_vector([4, 3, 2, 1]))),
    SpanningTree: (("n", "edges"), LabeledPath((1, 2, 3, 4)).tree(),
                   LabeledPath((1, 3, 2, 4)).tree()),
    LabeledPath: (("sequence",), LabeledPath((1, 2, 3, 4)), LabeledPath((4, 3, 2, 1))),
    CycleOrientation: (("cycle", "direction", "directed"),
                       canonical_orientations(RUNNING)[0],
                       canonical_orientations(RUNNING)[2]),
    Tetrahedron: (("cycle", "orientation", "vertices", "degenerate_rank"),
                  tetrahedron_for_cycle(RUNNING, (1, 2, 3, 4)),
                  tetrahedron_for_cycle(SIMPLE, (1, 2, 3, 4))),
    PerturbClass: (("tag", "consistent_triad_count", "consistent_cycle_count"),
                   classify(RUNNING), classify(SIMPLE)),
    CoincidenceReport: (("shared_vertices", "collinear_edge_pairs", "coplanar_face_pairs",
                         "point_tetrahedra"),
                        efficient_set(SIMPLE).coincidences, efficient_set(RUNNING).coincidences),
    EfficientSet: (("tetrahedra", "classification", "coincidences"),
                   efficient_set(RUNNING), efficient_set(SIMPLE)),
    CuttingPlane: (("pair", "value"), cutting_planes(RUNNING)[0], cutting_planes(RUNNING)[1]),
    EquivalenceReport: (("trials", "agreements", "disagreements", "seed", "class_tag", "elapsed"),
                        EquivalenceReport(3, 3, (), 7, "triple", 0.5),
                        EquivalenceReport(3, 3, (), 8, "triple", 0.5)),
}


# (fields, values) -> (positional, keyword) arguments that no record accepts
BAD_ARGUMENTS = [
    pytest.param(lambda fields, values: (values + (values[-1],), {}), id="one-too-many"),
    pytest.param(lambda fields, values: (values[:-1], {}), id="one-missing"),
    pytest.param(lambda fields, values: ((), dict(zip(fields[:-1], values))),
                 id="one-missing-by-name"),
    pytest.param(lambda fields, values: (values, {"extra": values[0]}), id="unknown-keyword"),
    pytest.param(lambda fields, values: (values[:-1], {"extra": values[-1]}),
                 id="unknown-keyword-for-a-field"),
    pytest.param(lambda fields, values: (values, {fields[0]: values[0]}),
                 id="by-position-and-by-name"),
]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def _twin(cls, fields):
    """A different record class with the same fields, and no validation."""

    class Twin(Record):
        __annotations__ = {name: object for name in fields}

    Twin.__qualname__ = cls.__qualname__
    return Twin


def _dataclass_twin(cls, fields):
    """The frozen dataclass these records replaced, for repr and hash."""
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def sample(request):
    cls = request.param
    fields, record, other = SAMPLES[cls]
    return cls, fields, record, other


def test_every_record_is_covered():
    assert len(SAMPLES) == 13
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("effpcm.")}
    assert set(SAMPLES) == package


class TestRecords:
    def test_fields_follow_the_annotations(self, sample):
        cls, fields, record, _ = sample
        assert type(record) is cls
        assert tuple(cls.__annotations__) == fields

    def test_equality_and_hash_by_value(self, sample):
        cls, fields, record, other = sample
        copy = cls(*_values(record, fields))
        assert copy is not record
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)
        assert copy != other and not copy == other
        assert len({record, copy, other}) == 2
        keyword = cls(**dict(zip(fields, _values(record, fields))))
        assert keyword == record

    @pytest.mark.parametrize("arguments", BAD_ARGUMENTS)
    def test_bad_arguments_raise_type_error_naming_the_class(self, sample, arguments):
        cls, fields, record, _ = sample
        args, kwargs = arguments(fields, _values(record, fields))
        with pytest.raises(TypeError, match=rf"\b{cls.__qualname__}\b"):
            cls(*args, **kwargs)

    def test_unequal_to_another_class_with_the_same_values(self, sample):
        cls, fields, record, _ = sample
        values = _values(record, fields)
        twin = _twin(cls, fields)(*values)
        assert record != twin and twin != record
        assert not record == twin
        assert record != values

    def test_repr_and_hash_match_the_dataclass(self, sample):
        cls, fields, record, _ = sample
        reference = _dataclass_twin(cls, fields)(*_values(record, fields))
        assert repr(record) == repr(reference)
        assert hash(record) == hash(reference)

    def test_assignment_and_deletion_raise(self, sample):
        cls, fields, record, _ = sample
        before = _values(record, fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert _values(record, fields) == before
        assert not hasattr(record, "extra")


@pytest.mark.parametrize("build,error", [
    (lambda: Pcm(()), NonSquareError),
    (lambda: Pcm(((Fraction(1), Fraction(2)),)), NonSquareError),
    (lambda: Pcm(((Fraction(1), Fraction(-2)), (Fraction(-1, 2), Fraction(1)))),
     NonPositiveEntryError),
    (lambda: Pcm(((Fraction(1), Fraction(2)), (Fraction(1, 3), Fraction(1)))),
     ReciprocityViolationError),
    (lambda: WeightVector(()), NonPositiveWeightError),
    (lambda: WeightVector((Fraction(1), 0.5)), NonPositiveWeightError),
    (lambda: Permutation((1, 1, 3)), IndexOutOfRangeError),
    (lambda: SpanningTree(3, frozenset({(1, 2)})), ValueError),
    (lambda: SpanningTree(3, frozenset({(1, 2), (2, 1)})), ValueError),
    (lambda: LabeledPath((1, 3)), ValueError),
    (lambda: PerturbClass(PerturbTag.TRIPLE, 1, 0), ImpossibleCombinationError),
    (lambda: PerturbClass(None, 3, 3), ImpossibleCombinationError),
    (lambda: PerturbClass(None, 1, 1), ImpossibleCombinationError),
], ids=["pcm-empty", "pcm-ragged", "pcm-negative", "pcm-reciprocity", "weights-empty",
        "weights-mixed", "permutation", "tree-short", "tree-cycle", "path", "class",
        "class-untagged-3-3", "class-untagged-1-1"])
def test_validation_still_raises(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("tag,counts,message", [
    (PerturbTag.TRIPLE, (1, 0), "(1,0): these counts make class double-triad, not triple"),
    (None, (2, 1), "(2,1): these counts make class simple, not None"),
    (PerturbTag.SIMPLE, (3, 3), "no admissible class has 3 consistent triads and 3 consistent"),
], ids=["wrong-tag", "untagged", "no-class"])
def test_impossible_class_message_names_the_class_of_the_counts(tag, counts, message):
    with pytest.raises(ImpossibleCombinationError, match=re.escape(message)):
        PerturbClass(tag, *counts)


def test_pcm_validation_is_an_own_method_called_through_the_instance(monkeypatch):
    """A wrapper installed on ``Pcm.__post_init__`` sees every construction."""
    original = Pcm.__dict__["__post_init__"]
    calls = []

    def wrapped(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Pcm, "__post_init__", wrapped)
    pcm = parse_pcm(RUNNING_ROWS)
    assert calls == [pcm]


def test_records_built_from_lists_equal_their_tuple_twins_and_stay_unchanged():
    rows = [list(row) for row in RUNNING.entries]
    components = list(W.components)
    mapping = [2, 1, 3, 4]
    twins = [(Pcm(rows), RUNNING), (WeightVector(components), W),
             (Permutation(mapping), Permutation((2, 1, 3, 4)))]
    rows[0][1] = Fraction(-5)
    rows.pop()
    components[0] = Fraction(9)
    mapping[0] = 7
    for built, twin in twins:
        assert built == twin
        assert hash(built) == hash(twin)
        assert repr(built) == repr(twin)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(effpcm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import effpcm.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
