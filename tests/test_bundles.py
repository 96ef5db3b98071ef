import random

import pytest

import pairgen
from momang import bundles, classify, cli, cohomology, intlat
from momang.charpair import from_columns, isotropy_functor
from momang.combinatorics import simple_polytope
from momang.errors import ShapeError, UnsupportedBaseError, ValidationError


def segment():
    return simple_polytope(2, 1, [[1], [2]])


def square():
    return simple_polytope(4, 2, [[1, 2], [2, 3], [3, 4], [1, 4]])


def simplex(n):
    m = n + 1
    verts = [[j for j in range(1, m + 1) if j != i] for i in range(1, m + 1)]
    return simple_polytope(m, n, verts)


def projective_matrix(n):
    cols = [[1 if r == i else 0 for r in range(n)] for i in range(n)]
    cols.append([-1] * n)
    return from_columns(cols)


def hirzebruch(a):
    return from_columns([[1, 0], [0, 1], [-1, a], [0, -1]])


def test_hopf_datum():
    p = segment()
    lam = projective_matrix(1)
    tup = bundles.kernel_chern_classes(p, lam, diagnostics=True)
    assert [list(c.coordinates) for c in tup.classes] == [[1]]
    assert tup.basis_flag
    # the contraction gives twice a generator, never the Hopf class
    assert [list(c.coordinates) for c in tup.contracted_classes] == [[2]]


def test_diagnostics_off_by_default():
    tup = bundles.kernel_chern_classes(segment(), projective_matrix(1))
    assert tup.contracted_classes is None


def test_projective_family_classes():
    for n in range(1, 4):
        tup = bundles.kernel_chern_classes(simplex(n), projective_matrix(n))
        assert [list(c.coordinates) for c in tup.classes] == [[1]]
        assert tup.basis_flag


def test_hirzebruch_classes_form_basis():
    for a in range(4):
        p = square()
        tup = bundles.kernel_chern_classes(p, hirzebruch(a))
        assert tup.basis_flag
        assert abs(intlat.det(tup.coordinate_matrix())) == 1


def test_expansion_identity():
    # the facet classes must expand over the tuple through the kernel basis
    p = square()
    lam = hirzebruch(1)
    tup = bundles.kernel_chern_classes(p, lam)
    kernel = intlat.kernel_basis(lam.rows())
    pres = cohomology.quasitoric_presentation(p, lam)
    c = tup.coordinate_matrix()
    for i in range(1, lam.m + 1):
        want = list(cohomology.facet_class(pres, i).coordinates)
        got = [sum(kernel[k][i - 1] * c[k][j] for k in range(len(c)))
               for j in range(len(want))]
        assert got == want, i


@pytest.mark.parametrize("family", ["tower", "polygon"])
def test_classes_expand_every_facet_class(family):
    # the defining relation x_i = sum_k a_ki c_k, facet by facet, with the
    # facet classes read off the graded ring
    rng = random.Random(family)
    for trial in range(12):
        if family == "tower":
            dims = rng.choice([[1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 2], [2, 1], [1, 1, 2]])
            p, cols = pairgen.simplex_product(dims), pairgen.staged_columns(rng, dims)
        else:
            m = rng.randint(4, 8)
            p, cols = pairgen.polygon(m), pairgen.polygon_columns(rng, m)
        lam = from_columns(cols)
        pres = cohomology.quasitoric_presentation(p, lam)
        a = intlat.kernel_basis(lam.rows())
        c = bundles.kernel_chern_classes(p, lam).coordinate_matrix()
        for i in range(1, lam.m + 1):
            x = list(cohomology.facet_class(pres, i).coordinates)
            assert [sum(a[k][i - 1] * c[k][j] for k in range(len(a)))
                    for j in range(len(x))] == x, (cols, i)


def test_solved_form_classes_match_the_graded_ring():
    # the ring's degree-2 component stays the oracle for the classes read
    # off the solved form, and for the flag without its rank and torsion terms
    for p, lam in pairgen.seeded_pairs():
        pres = cohomology.quasitoric_presentation(p, lam)
        ring = [list(cohomology.facet_class(pres, i).coordinates)
                for i in range(1, lam.m + 1)]
        tup = bundles.kernel_chern_classes(p, lam, diagnostics=True)
        a = intlat.kernel_basis(lam.rows())
        c = tup.coordinate_matrix()
        r = len(a)
        # x_i = sum_k a_ki c_k holds exactly, so the tuple gives back x_i
        assert intlat.mat_mul(intlat.transpose(a), c) == ring, lam
        assert [list(x.coordinates) for x in tup.contracted_classes] == (
            intlat.mat_mul(a, ring)), lam
        comp = pres.component(2)
        assert tup.basis_flag == (
            comp.invariants.free_rank == r and not comp.invariants.torsion
            and (r == 0 or abs(intlat.det(c)) == 1)), lam


def test_chern_builds_no_graded_component(monkeypatch, capsys):
    def refuse(pres, degree):
        raise AssertionError(f"degree-{degree} component built")

    monkeypatch.setattr(cohomology, "_build_component", refuse)
    pairs = [e["name"] for e in cli.load_corpus() if "characteristic" in e]
    assert pairs
    for name in pairs:
        assert cli.main(["chern", f"corpus:{name}", "--diagnostics"]) == 0, name
    capsys.readouterr()


def test_an_invalid_pair_gives_one_message_everywhere():
    p, bad = square(), from_columns([[1, 0], [1, 2], [-1, 0], [0, -1]])
    raised = []
    for call in (lambda: cohomology.quasitoric_presentation(p, bad),
                 lambda: bundles.kernel_chern_classes(p, bad),
                 lambda: classify.rigidity_verdict_complex(p, bad, p, hirzebruch(1)),
                 lambda: classify.rigidity_verdict_complex(p, hirzebruch(1), p, bad)):
        with pytest.raises(ValidationError) as exc:
            call()
        raised.append(str(exc.value))
    assert raised[0].startswith("invalid pair: vertex [1, 2] has determinant 2")
    assert raised == [raised[0]] * len(raised)


def test_the_first_invalid_pair_is_reported():
    p = square()
    first = from_columns([[1, 0], [1, 2], [-1, 0], [0, -1]])
    second = from_columns([[2, 1], [0, 1], [-1, 0], [0, -1]])
    messages = []
    for lam in (first, second):
        with pytest.raises(ValidationError) as exc:
            bundles.kernel_chern_classes(p, lam)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    with pytest.raises(ValidationError) as exc:
        classify.rigidity_verdict_complex(p, first, p, second)
    assert str(exc.value) == messages[0]
    with pytest.raises(ValidationError) as exc:
        classify.rigidity_verdict_complex(p, second, p, first)
    assert str(exc.value) == messages[1]


def test_simplex_h4_presentation():
    h4 = bundles.simplex_h4_presentation(3)
    assert h4.free_rank == 1 and not h4.torsion
    assert h4.facet_class_coords == [[1], [1], [1]]


def test_quaternionic_hopf_tuple():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[1, 0]])
    assert tup.classes == [[1]] and tup.base_dim == 4
    doubled = bundles.quaternionic_primary_tuple(p, f, [[2, 0]])
    assert doubled.classes == [[2]]


def test_quaternionic_tuple_shape_guard():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    with pytest.raises(ShapeError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0], [0, 1]])


def test_quaternionic_tuple_rejects_bad_functor():
    p = segment()
    f = isotropy_functor(2, [[1], [1]])
    with pytest.raises(ValidationError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0]])


def test_unsupported_base_needs_explicit_presentation():
    p = square()
    f = isotropy_functor(4, [[1], [2], [3], [4]])
    with pytest.raises(UnsupportedBaseError):
        bundles.quaternionic_primary_tuple(p, f, [[1, 0, 0, 0], [0, 1, 0, 0]])
    h4 = bundles.H4Presentation(free_rank=2, torsion=[],
                                facet_class_coords=[[1, 0], [0, 1], [1, 0], [0, 1]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[1, 0, 0, 0], [0, 1, 0, 0]], h4=h4)
    assert tup.classes == [[1, 0], [0, 1]] and tup.base_dim == 8


def test_torsion_reduction_in_supplied_presentation():
    p = segment()
    f = isotropy_functor(2, [[1], [2]])
    h4 = bundles.H4Presentation(free_rank=1, torsion=[3],
                                facet_class_coords=[[1, 2], [0, 1]])
    tup = bundles.quaternionic_primary_tuple(p, f, [[2, 1]], h4=h4)
    assert tup.classes == [[2, (2 * 2 + 1) % 3]]
