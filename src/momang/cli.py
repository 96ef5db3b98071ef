"""Command-line entry point.

JSON in, JSON or aligned text out, one command per `main` call.  `main`
may be called again in the same process; every call reuses the one
parser that the first call builds.  Inputs are file paths or named
entries of the bundled example corpus.  Exit codes:
0 success/equivalent, 1 input error, 2 validation failure,
3 inequivalent, 4 incomparable, 5 budget exceeded.
"""

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from importlib import resources
from itertools import chain

from . import bundles, classify, cohomology, moment_angle
from .charpair import (from_columns, isotropy_functor,
                       validate_characteristic_pair,
                       validate_quaternionic_functor, validate_global)
from .combinatorics import (DEFAULT_SEARCH_BOUND, dual_complex, simple_polytope,
                            simplicial_complex)
from .errors import (BudgetError, IncomparableError, MomangError, ShapeError,
                     UnsupportedBaseError, ValidationError)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_INEQUIVALENT = 3
EXIT_INCOMPARABLE = 4
EXIT_BUDGET = 5


class InputError(Exception):
    pass


def load_corpus():
    text = resources.files("momang.data").joinpath("corpus.json").read_text()
    return json.loads(text)["entries"]


def _corpus_entry(name):
    for entry in load_corpus():
        if entry["name"] == name:
            return entry
    raise InputError(f"no corpus entry named {name!r}; see the examples command")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def load_input(source):
    """Resolve an input argument: a JSON file path, or corpus:NAME."""
    if source.startswith("corpus:"):
        return _corpus_entry(source[len("corpus:"):])
    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise InputError(f"{source} must hold a JSON object, not {type(obj).__name__}")
    return obj


@contextmanager
def _reading(kind):
    """Report a missing key or a malformed value of a `kind` object as an input error."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{kind} object is missing key {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed {kind} object: {exc}") from exc


def _require_integers(values, what):
    if not all(type(x) is int for x in values):
        raise InputError(f"{what} must be integers")


def parse_polytope(obj):
    with _reading("polytope"):
        _require_integers([obj["m"], obj["n"], *chain.from_iterable(obj["vertices"])],
                          "polytope m, n and vertex facets")
        return simple_polytope(obj["m"], obj["n"], obj["vertices"])


def parse_complex(obj):
    with _reading("complex"):
        _require_integers([obj["m"], *chain.from_iterable(obj["maximal_faces"])],
                          "complex m and face vertices")
        return simplicial_complex(obj["m"], obj["maximal_faces"])


def parse_characteristic(obj):
    with _reading("characteristic"):
        lam = from_columns(obj["columns"])
        _require_integers(chain.from_iterable(lam.entries), "characteristic matrix entries")
        for key in ("n", "m"):
            if type(obj.get(key, 0)) is not int:
                raise InputError(f"declared {key} must be an integer, "
                                 f"not {type(obj[key]).__name__}")
        if lam.n != obj.get("n", lam.n) or lam.m != obj.get("m", lam.m):
            raise ShapeError(
                f"declared shape {obj.get('n')}x{obj.get('m')} does not match "
                f"{lam.n}x{lam.m} columns")
    return lam


def parse_functor(obj):
    with _reading("functor"):
        f = isotropy_functor(obj["n_act"], obj["labels"])
        _require_integers([f.n_act, *chain.from_iterable(obj["labels"])],
                          "functor n_act and labels")
    return f


def emit(data, fmt):
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _emit_text(data)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent)
            else:
                print(f"{pad}{value}")
    else:
        print(f"{pad}{data}")


def cmd_validate(args):
    obj = load_input(args.input)
    report = {"input": args.input}
    valid = True
    if "polytope" in obj:
        p = parse_polytope(obj["polytope"])
        report["polytope"] = "ok"
        if "characteristic" in obj:
            pr = validate_characteristic_pair(p, parse_characteristic(obj["characteristic"]))
            report["pair"] = {
                "valid": pr.valid,
                "column_primitivity": {str(k): v for k, v in pr.column_primitivity.items()},
                "vertex_determinants": {
                    ",".join(map(str, k)): v for k, v in pr.vertex_determinants.items()},
                "face_minor_gcds": {
                    ",".join(map(str, k)): v for k, v in pr.face_minor_gcds.items()},
                "failures": pr.failures,
            }
            valid = pr.valid
        elif "functor" in obj:
            functor = parse_functor(obj["functor"])
            fr = validate_quaternionic_functor(p, functor)
            k = dual_complex(p)
            dim = moment_angle.dimension_report(k, moment_angle.QUATERNIONIC, p.dim)
            report["functor"] = {
                "valid": fr.valid,
                "disjoint_at_faces": fr.disjoint_at_faces,
                "injective_on_faces": fr.injective_on_faces,
                "global": validate_global(functor),
                "failures": fr.failures,
            }
            report["dimension"] = {
                "value": dim.value,
                "m_plus_n": dim.m_plus_n,
                "differs_from_m_plus_n": dim.differs_from_m_plus_n,
            }
            valid = fr.valid
    elif "maximal_faces" in obj:
        parse_complex(obj)
        report["complex"] = "ok"
    else:
        raise InputError("input must contain a polytope or a complex")
    report["valid"] = valid
    emit(report, args.format)
    return EXIT_OK if valid else EXIT_INVALID


def _input_complex(obj):
    if "maximal_faces" in obj:
        return parse_complex(obj), None
    if "polytope" in obj:
        p = parse_polytope(obj["polytope"])
        return dual_complex(p), p
    if "m" in obj and "vertices" in obj:
        p = parse_polytope(obj)
        return dual_complex(p), p
    raise InputError("input must contain a polytope or a complex")


def cmd_homology(args):
    obj = load_input(args.input)
    k, _p = _input_complex(obj)
    flavor = args.flavor or obj.get("flavor", moment_angle.COMPLEX)
    if flavor not in (moment_angle.COMPLEX, moment_angle.QUATERNIONIC):
        raise InputError(f"unknown flavor {flavor!r}; expected "
                         f"{moment_angle.COMPLEX!r} or {moment_angle.QUATERNIONIC!r}")
    profile = moment_angle.homology(k, flavor, budget=args.budget)
    data = {
        "flavor": flavor,
        "euler_characteristic": profile.euler_characteristic,
        "degrees": [
            {"k": deg, "rank": g.free_rank, "torsion": list(g.torsion)}
            for deg, g in sorted(profile.groups.items())
        ],
    }
    emit(data, args.format)
    return EXIT_OK


def _require_pair(obj, key="characteristic"):
    """The polytope and the characteristic matrix, or the functor, of an input."""
    what, parse = {"characteristic": ("a characteristic matrix", parse_characteristic),
                   "functor": ("a functor", parse_functor)}[key]
    if "polytope" not in obj or key not in obj:
        raise InputError(f"input must contain a polytope and {what}")
    return parse_polytope(obj["polytope"]), parse(obj[key])


def cmd_cohomology(args):
    obj = load_input(args.input)
    p, lam = _require_pair(obj)
    pres = cohomology.quasitoric_presentation(p, lam)
    degrees = []
    for deg in range(0, pres.base_dim + 1, 2):
        basis, inv = cohomology.graded_component(pres, deg)
        degrees.append({
            "degree": deg,
            "rank": inv.free_rank,
            "torsion": list(inv.torsion),
            "basis_monomials": [list(mono) for mono in basis],
        })
    facets = {str(i): list(cohomology.facet_class(pres, i).coordinates)
              for i in range(1, p.facet_count + 1)}
    total = {str(c.degree): list(c.coordinates)
             for c in cohomology.total_chern_class(pres)}
    data = {
        "kept_generators": pres.kept,
        "degrees": degrees,
        "facet_classes": facets,
        "total_class": total,
    }
    emit(data, args.format)
    return EXIT_OK


def cmd_chern(args):
    obj = load_input(args.input)
    p, lam = _require_pair(obj)
    tup = bundles.kernel_chern_classes(p, lam, diagnostics=args.diagnostics)
    data = {
        "classes": [list(c.coordinates) for c in tup.classes],
        "basis": tup.basis_flag,
    }
    if args.diagnostics:
        data["contracted_classes"] = [
            list(c.coordinates) for c in tup.contracted_classes]
    emit(data, args.format)
    return EXIT_OK


def _parse_coeffs(text, r, m):
    if text is None:
        return [[1 if i == k else 0 for i in range(m)] for k in range(r)]
    try:
        b = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed coefficient matrix: {exc.msg}") from exc
    if not isinstance(b, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in b):
        raise InputError("coefficient matrix must be a list of lists of integers")
    return b


def cmd_qprimary(args):
    p, f = _require_pair(load_input(args.input), "functor")
    b = _parse_coeffs(args.coeffs, p.facet_count - p.dim, p.facet_count)
    tup = bundles.quaternionic_primary_tuple(p, f, b)
    emit({"classes": tup.classes, "base_dim": tup.base_dim}, args.format)
    return EXIT_OK


def cmd_compare(args):
    obj1 = load_input(args.first)
    obj2 = load_input(args.second)
    kinds = {("characteristic" in o, "functor" in o) for o in (obj1, obj2)}
    if kinds == {(True, False)}:
        p1, l1 = _require_pair(obj1)
        p2, l2 = _require_pair(obj2)
        verdict = classify.rigidity_verdict_complex(p1, l1, p2, l2, bound=args.budget)
    elif kinds == {(False, True)}:
        p1, f1 = _require_pair(obj1, "functor")
        p2, f2 = _require_pair(obj2, "functor")
        b1 = _parse_coeffs(args.coeffs, p1.facet_count - p1.dim, p1.facet_count)
        b2 = _parse_coeffs(args.coeffs2 or args.coeffs, p2.facet_count - p2.dim,
                           p2.facet_count)
        t1 = bundles.quaternionic_primary_tuple(p1, f1, b1)
        t2 = bundles.quaternionic_primary_tuple(p2, f2, b2)
        verdict = classify.rigidity_verdict_quaternionic(
            p1, f1, t1, p2, f2, t2, bound=args.budget)
    else:
        raise IncomparableError("inputs mix complex and quaternionic data")
    cert = None
    if verdict.certificate is not None:
        cert = {
            "delta": verdict.certificate.delta,
            "sigma": list(verdict.certificate.sigma),
            "signs": list(verdict.certificate.signs),
        }
    emit({"level": verdict.level, "certificate": cert,
          "bundle": verdict.bundle_report}, args.format)
    if verdict.level in (classify.LEVEL_EQUIVALENT, classify.LEVEL_PRIMARY_EQUIVALENT):
        return EXIT_OK
    if verdict.level == classify.LEVEL_INCOMPARABLE:
        return EXIT_INCOMPARABLE
    return EXIT_INEQUIVALENT


def cmd_examples(args):
    data = [{"name": e["name"], "flavor": e["flavor"],
             "description": e["description"]} for e in load_corpus()]
    emit(data, args.format)
    return EXIT_OK


@functools.cache  # parse_args leaves no state in the parser
def build_parser():
    parser = argparse.ArgumentParser(
        prog="momang",
        description="moment-angle manifold toolkit: validation, homology, "
                    "characteristic classes, and equivalence decisions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate combinatorial input",
                           parents=[common])
    p_val.add_argument("input", help="JSON file or corpus:NAME")
    p_val.set_defaults(func=cmd_validate)

    p_hom = sub.add_parser("homology", help="homology of the disk-sphere model",
                          parents=[common])
    p_hom.add_argument("input")
    p_hom.add_argument("--flavor", choices=[moment_angle.COMPLEX,
                                            moment_angle.QUATERNIONIC])
    p_hom.add_argument("--budget", type=int, default=None)
    p_hom.set_defaults(func=cmd_homology)

    p_coh = sub.add_parser("cohomology", help="graded components of the base",
                          parents=[common])
    p_coh.add_argument("input")
    p_coh.set_defaults(func=cmd_cohomology)

    p_chern = sub.add_parser("chern", help="kernel bundle class tuple",
                          parents=[common])
    p_chern.add_argument("input")
    p_chern.add_argument("--diagnostics", action="store_true")
    p_chern.set_defaults(func=cmd_chern)

    p_qp = sub.add_parser("qprimary", help="quaternionic primary class tuple",
                          parents=[common])
    p_qp.add_argument("input")
    p_qp.add_argument("--coeffs", default=None,
                      help="JSON r x m matrix over the facet classes")
    p_qp.set_defaults(func=cmd_qprimary)

    p_cmp = sub.add_parser("compare", help="equivalence verdict for two inputs",
                          parents=[common])
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.add_argument("--coeffs", default=None)
    p_cmp.add_argument("--coeffs2", default=None)
    p_cmp.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BOUND)
    p_cmp.set_defaults(func=cmd_compare)

    p_ex = sub.add_parser("examples", help="list the bundled corpus",
                          parents=[common])
    p_ex.set_defaults(func=cmd_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InputError, ShapeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IncomparableError as exc:
        print(f"incomparable: {exc}", file=sys.stderr)
        return EXIT_INCOMPARABLE
    except (ValidationError, UnsupportedBaseError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MomangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
