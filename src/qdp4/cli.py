"""Command-line front end: JSON in, JSON out, documented exit codes.

Exit codes: 0 success (iso: isomorphic), 1 negative verdict / failed suite /
closed stdout, 2 parse error, 3 not smooth, 4 unsupported field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from . import kgroups, selftest
from .fields import (QQ, FieldMismatchError, UnsupportedFieldError, _exact_int,
                     described_field, field_from_descriptor, scalar_from_json,
                     scalar_to_json)
from .groupoids import (FiniteGroupoid, GroupoidFunctor, build_psi, check_functor,
                        check_groupoid, find_splitting, injective_on_iso_classes,
                        standard_choice, verify_heavy_separability)
from .hyperoct import CycleSignature, fiber_product_order
from .pencil import (NotSmoothError, QuadricPencil, ResourceLimitError,
                     canonical_invariant, count_points, degenerate_orbits,
                     discriminant_quintic, galois_signature, is_smooth,
                     isomorphic, point_configuration, predicted_count,
                     reconstruct, splitting_field)
from .wpline import PointConfiguration, aut_group, defined_over

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_NOT_SMOOTH = 3
EXIT_UNSUPPORTED = 4


def _emit(obj) -> None:
    # flushed here, so that a closed stdout raises inside main, not at exit
    print(_dumps(obj), flush=True)


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) byte for byte, without its pure-Python encoder;
    keys must be strings, and scalars other than str, int, bool, None go to it."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        ends, items = "[]", [_dumps(v, inner) for v in obj]
    elif isinstance(obj, dict):
        ends, items = "{}", [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                             for k, v in obj.items()]
    elif obj is None or obj is True or obj is False:
        return "null" if obj is None else str(obj).lower()
    else:
        return int.__repr__(obj) if isinstance(obj, int) else json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deep to decode
        raise ParseFailure(str(exc)) from exc


class ParseFailure(Exception):
    pass


@contextmanager
def _parsing(what: str):
    """Malformed JSON content becomes a ParseFailure naming `what`; an
    unsupported field keeps its own exit code."""
    try:
        yield
    except UnsupportedFieldError:
        raise
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise ParseFailure(f"bad {what}: {exc}") from exc


def _load_pencil(path: str) -> QuadricPencil:
    obj = _load_json(path)
    with _parsing(f"pencil file {path}"):
        return QuadricPencil.from_json(obj)


def parse_field_spec(spec: str):
    if spec in ("Q", "q", "QQ", "rationals"):
        return QQ
    if "^" in spec:
        p, k = spec.split("^", 1)
        return field_from_descriptor({"kind": "extension-field", "p": p, "degree": k})
    return field_from_descriptor({"kind": "prime-field", "p": spec})


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def analysis_report(P: QuadricPencil) -> dict:
    field = P.field
    quintic = [scalar_to_json(c) for c in discriminant_quintic(P)]
    smooth = is_smooth(P)
    report = {"field": field.descriptor(), "quintic": quintic, "smooth": smooth}
    if not smooth:
        return report
    # a smooth pencil's quintic is squarefree: every multiplicity is 1
    includes_infinity, orbits = degenerate_orbits(P)
    if field.is_rational:
        factors = [{"root": scalar_to_json(-f.coeffs[0]), "degree": 1,
                    "multiplicity": 1} for f in orbits]
    else:
        factors = [{"coeffs": [scalar_to_json(c) for c in f.coeffs],
                    "degree": f.degree, "multiplicity": 1} for f in orbits]
    report["degenerate_points"] = {
        "affine_factors": factors,
        "includes_infinity": includes_infinity,
    }
    invariant = canonical_invariant(P, scalar_to_json)
    report["splitting_field"] = splitting_field(P).descriptor()
    report["canonical_invariant"] = [list(pair) for pair in invariant]
    full_aut = aut_group(point_configuration(P))
    report.update(_aut_orders(full_aut, defined_over(full_aut, field)))
    try:
        sig = galois_signature(P)
    except UnsupportedFieldError:
        sig = None
    if sig is None:
        report["signature"] = None
        report["minimal"] = None
        report["ranks"] = None
    else:
        report["signature"] = sig.to_json()
        report["minimal"] = kgroups.is_minimal(sig)
        report["ranks"] = _ranks(sig)
    return report


def _aut_orders(full, base) -> dict:
    """The orders of Aut(P^1, points) over the base field and over its
    closure, and of the surface's automorphisms over the base field."""
    return {"aut_p_order": len(base), "aut_p_geometric_order": len(full),
            "aut_x_order": fiber_product_order(base)}


def _ranks(sig: CycleSignature) -> dict:
    """The G-invariant ranks; the surface K0 is defined for five points only."""
    return {"picard": kgroups.g_invariant_rank(sig, "picard"),
            "wpl_k0": kgroups.g_invariant_rank(sig, "wpl"),
            "torsion": kgroups.g_invariant_rank(sig, "torsion"),
            "surface_k0": kgroups.g_invariant_rank(sig, "surface-k0")
            if sig.total() == 5 else None}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    P = _load_pencil(args.pencil)
    report = analysis_report(P)
    _emit(report)
    if not report["smooth"]:
        degenerate_orbits(P)  # raises NotSmoothError naming the repeated point
    return EXIT_OK


def cmd_iso(args) -> int:
    P1 = _load_pencil(args.a)
    P2 = _load_pencil(args.b)
    cert = isomorphic(P1, P2)
    if cert is None:
        _emit({"isomorphic": False, "certificate": None})
        return EXIT_NEGATIVE
    _emit({"isomorphic": True,
           "certificate": {"moebius": cert.moebius.to_json(),
                           "base_rational": cert.base_rational}})
    return EXIT_OK


def cmd_aut(args) -> int:
    obj = _load_json(args.file)
    if isinstance(obj, dict) and "A" in obj and "B" in obj:
        with _parsing(f"pencil file {args.file}"):
            P = QuadricPencil.from_json(obj)
        config = point_configuration(P)
        field = P.field
    elif isinstance(obj, dict) and "points" in obj:
        with _parsing(f"configuration file {args.file}"):
            field = field_from_descriptor(obj["field"])
            config = PointConfiguration.from_json(field, obj["points"])
    else:
        raise ParseFailure("expected a pencil {field,A,B} or a configuration "
                           "{field,points}")
    full = aut_group(config)
    base = defined_over(full, field)
    elements = [{"moebius": m.to_json(), "permutation": [i + 1 for i in perm],
                 "base_rational": (m, perm) in base} for m, perm in full]
    _emit({**_aut_orders(full, base),
           "fiber_product_order": fiber_product_order(full),
           "elements": elements})
    return EXIT_OK


def cmd_minimal(args) -> int:
    P = _load_pencil(args.pencil)
    sig = galois_signature(P)
    _emit({"signature": sig.to_json(),
           "picard_invariant_rank": kgroups.g_invariant_rank(sig, "picard"),
           "minimal": kgroups.is_minimal(sig)})
    return EXIT_OK


def cmd_count_points(args) -> int:
    k = _exact_int(args.ext)
    P = _load_pencil(args.pencil)
    n = count_points(P, k)
    sig = galois_signature(P)
    predicted = predicted_count(sig, P.field.p, k)
    _emit({"p": P.field.p, "k": k, "count": n, "predicted": predicted,
           "signature": sig.to_json(), "consistent": n == predicted})
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    field = parse_field_spec(args.field)
    lam = scalar_from_json(field, args.lam)
    mu = scalar_from_json(field, args.mu)
    P = reconstruct((lam, mu), field)
    _emit(P.to_json())
    return EXIT_OK


def cmd_kgroups_ranks(args) -> int:
    with _parsing("signature"):
        sig = CycleSignature.from_json(json.loads(args.signature))
    _emit({"signature": sig.to_json(), "points": sig.total(), **_ranks(sig),
           "minimal": kgroups.is_minimal(sig),
           "conic_bundle": kgroups.conic_bundle_ranks(sig)})
    return EXIT_OK


def cmd_kgroups_gram(args) -> int:
    points = _exact_int(args.points)
    if args.space == "wpl":
        gram = kgroups.wpl_gram(points)
        basis = ["O", "O_pt"] + [f"S{i + 1}" for i in range(points)]
    elif args.space == "surface":
        gram = kgroups.full_k0_gram()
        basis = ["rank"] + ["H", "E1", "E2", "E3", "E4", "E5"] + ["s2"]
    else:
        gram = kgroups.atom_gram()
        basis = ["b0"] + ["H", "E1", "E2", "E3", "E4", "E5"]
    _emit({"space": args.space, "basis": basis,
           "gram": [[str(x) for x in row] for row in gram]})
    return EXIT_OK


def cmd_groupoid_verify(args) -> int:
    obj = _load_json(args.file)
    with _parsing("groupoid file"):
        G = FiniteGroupoid.from_json(obj)
    witness = check_groupoid(G)
    report = {"valid": witness is None, "witness": witness}
    ok = witness is None
    if ok and args.functor:
        ok = _functor_report(G, args.functor, report)
    _emit(report)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _functor_report(G: FiniteGroupoid, path: str, report: dict) -> bool:
    """Adds the functor verdicts to report; True iff the functor is heavily
    separable.  The splitting search stops at the first class without one."""
    fobj = _load_json(path)
    with _parsing("functor file"):
        phi = GroupoidFunctor.from_json(G, fobj)
    witness = check_groupoid(phi.target)
    witness = check_functor(phi) if witness is None else f"target: {witness}"
    report["functor_valid"] = witness is None
    report["functor_witness"] = witness
    if witness is not None:
        return False
    injective = report["injective_on_iso_classes"] = injective_on_iso_classes(phi)
    report["splitting_found"] = None
    heavy = False
    if injective:
        base_objects, isos = standard_choice(G)
        psi_by_base = {}
        for x0 in dict.fromkeys(base_objects.values()):
            psi_by_base[x0] = find_splitting(phi, x0)
            if psi_by_base[x0] is None:
                break
        report["splitting_found"] = None not in psi_by_base.values()
        if report["splitting_found"]:
            Psi = build_psi(phi, psi_by_base, base_objects, isos)
            heavy, report["heavy_separability_witness"] = verify_heavy_separability(phi, Psi)
    report["heavily_separable"] = heavy
    return heavy


def cmd_selftest(args) -> int:
    failures = selftest.run_all()
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


@lru_cache(maxsize=None)  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdp4",
        description="Exact invariants of quartic del Pezzo surfaces given as "
                    "pencils of quadrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a pencil")
    p.add_argument("pencil")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("iso", help="decide isomorphism of two pencils")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("aut", help="automorphisms of the five degenerate points")
    p.add_argument("file", help="pencil or configuration JSON")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("minimal", help="Galois minimality verdict (prime fields)")
    p.add_argument("pencil")
    p.set_defaults(fn=cmd_minimal)

    p = sub.add_parser("count-points", help="exact point count over F_{p^k}")
    p.add_argument("pencil")
    p.add_argument("--ext", default=1, metavar="K")
    p.set_defaults(fn=cmd_count_points)

    p = sub.add_parser("reconstruct", help="diagonal pencil from (lambda, mu)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", dest="mu", required=True)
    p.add_argument("--field", default="Q", help="Q, p, or p^k")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("kgroups", help="K-theory rank certificates")
    ksub = p.add_subparsers(dest="kcommand", required=True)
    kr = ksub.add_parser("ranks", help="invariant ranks for a cycle signature")
    kr.add_argument("--signature", required=True,
                    help='JSON cycle list, e.g. "[[5,-1]]"')
    kr.set_defaults(fn=cmd_kgroups_ranks)
    kg = ksub.add_parser("gram", help="Euler-form Gram matrices as JSON")
    kg.add_argument("--space", choices=("wpl", "surface", "atom"), default="wpl")
    kg.add_argument("--points", default=5,
                    help="number of weight-2 points (wpl space only)")
    kg.set_defaults(fn=cmd_kgroups_gram)

    p = sub.add_parser("groupoid", help="finite groupoid utilities")
    gsub = p.add_subparsers(dest="gcommand", required=True)
    gv = gsub.add_parser("verify", help="verify axioms and heavy separability")
    gv.add_argument("file")
    gv.add_argument("--functor", default=None)
    gv.set_defaults(fn=cmd_groupoid_verify)

    p = sub.add_parser("selftest", help="run the exhaustive invariant suites")
    p.set_defaults(fn=cmd_selftest)

    return parser


# the exit code of each error that main reports, first match wins
_EXIT_CODES = ((ParseFailure, EXIT_PARSE), (NotSmoothError, EXIT_NOT_SMOOTH),
               (UnsupportedFieldError, EXIT_UNSUPPORTED), (FieldMismatchError, EXIT_UNSUPPORTED),
               (ResourceLimitError, EXIT_NEGATIVE),
               (ValueError, EXIT_PARSE))  # invalid scalars, normal forms, matrices


def _attach_values(argv):
    """'--lambda -1/2' as '--lambda=-1/2': argparse takes a separate argument
    that starts with '-' for an option unless it reads as a plain number."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] in ("--lambda", "--mu"):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader closed stdout; keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NEGATIVE
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
