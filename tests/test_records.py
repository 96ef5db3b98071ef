"""The record classes: construction in field order, fresh mutable defaults
per instance, and the checks the four input types run when built."""

import re

import pytest

from momang import bundles, charpair, classify, cohomology, intlat, moment_angle
from momang import combinatorics as comb
from momang.errors import ShapeError, ValidationError

CERT = classify.EquivalenceCertificate([[1]], (2, 1), (1, -1))
GROUP = intlat.AbelianGroupInvariants(1, [])

# each record type with one value per field, in the positional order
RECORDS = [
    (comb.SimplicialComplexData,
     {"vertex_count": 2, "maximal_faces": frozenset({frozenset({1}), frozenset({2})})}),
    (comb.SimplePolytopeData,
     {"facet_count": 2, "dim": 1, "vertices": (frozenset({1}), frozenset({2}))}),
    (intlat.SmithDecomposition, {"u": [[1]], "d": [[2]], "v": None}),
    (intlat.AbelianGroupInvariants, {"free_rank": 1, "torsion": [2, 4]}),
    (charpair.CharacteristicMatrix, {"n": 1, "m": 2, "entries": ((1, -1),)}),
    (charpair.PairReport,
     {"valid": False, "column_primitivity": {1: True}, "vertex_determinants": {(1,): 2},
      "face_minor_gcds": {}, "failures": ["vertex [1] has determinant 2, expected +-1"]}),
    (charpair.QuaternionicIsotropyFunctor,
     {"n_act": 2, "facet_labels": (frozenset({1}), frozenset({2}))}),
    (charpair.FunctorReport,
     {"valid": True, "disjoint_at_faces": True, "injective_on_faces": True,
      "failures": []}),
    (moment_angle.DimensionReport,
     {"flavor": "quaternionic", "value": 7, "m_plus_n": 3, "differs_from_m_plus_n": True}),
    (moment_angle.HomologyProfile, {"groups": {0: GROUP}, "euler_characteristic": 1}),
    (cohomology.GradedRingPresentation,
     {"m": 2, "generator_degree": 2, "non_faces": [(1, 2)], "linear_relations": [[1, -1]],
      "kept": [2], "eliminated": {1: {(1,): 1}}, "ideal": [{(2,): 1}], "base_dim": 2}),
    (cohomology.CohomologyClass, {"degree": 2, "coordinates": (1,)}),
    (cohomology.GradedComponent,
     {"degree": 2, "monomials": [(1,)], "invariants": GROUP, "basis_monomials": [(1,)],
      "table": [[1]]}),
    (bundles.ChernTuple,
     {"classes": [cohomology.CohomologyClass(2, (1,))], "basis_flag": True,
      "contracted_classes": []}),
    (bundles.H4Presentation, {"free_rank": 1, "torsion": [3], "facet_class_coords": [[1]]}),
    (bundles.QuaternionicPrimaryTuple, {"classes": [[1]], "base_dim": 4, "source": None}),
    (classify.EquivalenceCertificate, {"delta": [[1]], "sigma": (1,), "signs": (-1,)}),
    (classify.RigidityVerdict,
     {"level": classify.LEVEL_EQUIVALENT, "certificate": CERT,
      "bundle_report": {"equal_sublattice": True}}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_build_by_position_and_by_keyword(cls, fields):
    for record in (cls(*fields.values()), cls(**fields)):
        for name, value in fields.items():
            assert getattr(record, name) is value
        assert not hasattr(record, "__dict__")


def test_mutable_defaults_are_fresh_per_instance():
    def pairs(make, *names):
        """Build two records; each named default is empty and their own."""
        a, b = make(), make()
        for name in names:
            assert not getattr(a, name) and not getattr(b, name)
            assert getattr(a, name) is not getattr(b, name)
        return a

    pairs(lambda: charpair.PairReport(True, {}, {}, {}), "failures")
    pairs(lambda: charpair.FunctorReport(True, True, True), "failures")
    pairs(lambda: intlat.AbelianGroupInvariants(0), "torsion")
    verdict = pairs(lambda: classify.RigidityVerdict(classify.LEVEL_INEQUIVALENT),
                    "bundle_report")
    assert verdict.certificate is None
    pres = pairs(lambda: cohomology.GradedRingPresentation(1, 2, []),
                 "linear_relations", "kept", "eliminated", "ideal")
    assert pres.base_dim == 0
    assert isinstance(pres.linear_relations, list) and isinstance(pres.eliminated, dict)
    assert bundles.ChernTuple([], True).contracted_classes is None


def test_presentation_components_are_cached_per_instance():
    k = comb.simplicial_complex(2, [[1], [2]])
    a, b = cohomology.sr_presentation(k), cohomology.sr_presentation(k)
    assert a.component(2) is a.component(2)
    assert a.component(2) is not b.component(2)


def raises(error, message, make):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def fs(*faces):
    return tuple(frozenset(f) for f in faces)


def test_complex_construction_checks():
    cases = [
        (0, [[1]], "vertex_count must be positive"),
        (2, [], "empty complex rejected: no maximal faces"),
        (2, [[1, 2], []], "empty maximal face rejected"),
        (2, [[1, 3]], "face [1, 3] has a vertex outside 1..2"),
        (3, [[1, 2]], "vertices [3] appear in no face"),
        (3, [[1, 2], [1], [3]], "maximal face [1] is contained in [1, 2]"),
    ]
    for m, faces, message in cases:
        raises(ValidationError, message,
               lambda: comb.SimplicialComplexData(m, frozenset(fs(*faces))))


def test_polytope_construction_checks():
    two_squares = [[1, 2], [2, 3], [3, 4], [1, 4], [5, 6], [6, 7], [7, 8], [5, 8]]
    cases = [
        (2, 0, [], "facet_count and dim must be positive"),
        (0, 1, [], "facet_count and dim must be positive"),
        (2, 1, [[1, 2]], "vertex [1, 2] lies on 2 facets, expected 1"),
        (2, 1, [[1], [3]], "vertex [3] uses a facet outside 1..2"),
        (2, 1, [[1], [1], [2]], "vertex [1] is repeated"),
        (2, 1, [], "a polytope needs at least one vertex"),
        (3, 1, [[1], [2]], "facets [3] contain no vertex"),
        (3, 1, [[1], [2], [3]], "ridge [] lies in 3 maximal faces, expected 2"),
        (8, 2, two_squares, "dual complex is not connected"),
    ]
    for m, n, vertices, message in cases:
        raises(ValidationError, message,
               lambda: comb.SimplePolytopeData(m, n, fs(*vertices)))


def test_matrix_and_functor_construction_checks():
    raises(ShapeError, "expected 2x2 entries",
           lambda: charpair.CharacteristicMatrix(2, 2, ((1, 0),)))
    raises(ShapeError, "expected 1x3 entries",
           lambda: charpair.CharacteristicMatrix(1, 3, ((1, 0),)))
    raises(ValidationError, "n_act must be positive",
           lambda: charpair.QuaternionicIsotropyFunctor(0, fs([1])))
    raises(ValidationError, "facet 2 has an empty label set",
           lambda: charpair.QuaternionicIsotropyFunctor(2, fs([1], [])))
    raises(ValidationError, "facet 1 label [1, 3] leaves the universe 1..2",
           lambda: charpair.QuaternionicIsotropyFunctor(2, fs([1, 3], [2])))
