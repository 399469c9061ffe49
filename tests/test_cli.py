import itertools
import json
import os
import random
import re
import subprocess
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdp4 import cli, fields, kgroups, pencil
from qdp4.fields import GF, QQ, Poly, _canonical_modulus, embed_poly, factor
from qdp4.groupoids import group_groupoid
from qdp4.pencil import (MAX_IMPLIED_DEGREE, QuadricPencil, discriminant_quintic,
                         reconstruct, splitting_field)
from qdp4.linalg import congruence, mat_mul, transpose
from qdp4.sampling import random_invertible, random_smooth_pencil
from test_pencil import _mixed_denominator_pair


@pytest.fixture
def p23(tmp_path):
    path = tmp_path / "p23.json"
    path.write_text(json.dumps(reconstruct((2, 3), QQ).to_json()))
    return str(path)


@pytest.fixture
def p25(tmp_path):
    path = tmp_path / "p25.json"
    path.write_text(json.dumps(reconstruct((2, 5), QQ).to_json()))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_eq_pencil(capsys, p23):
    code, out, _ = run_cli(capsys, "analyze", p23)
    assert code == 0
    report = json.loads(out)
    assert report["smooth"] is True
    assert report["quintic"] == ["0", "-6", "11", "-6", "1", "0"]
    assert ["2", "3"] in report["canonical_invariant"]
    assert report["aut_p_order"] == 2
    assert report["aut_x_order"] == 32
    assert report["minimal"] is False
    assert report["ranks"]["picard"] == 6


def test_analyze_takes_the_gcd_of_the_quintic_once(capsys, tmp_path, monkeypatch):
    # is_smooth reads the base-field root finder's verdict, and a singular
    # pencil's error names the gcd that finder took, so gcd(g, g') is taken
    # once over F_q; over Q an integer resultant certifies a smooth pencil
    # and the gcd is taken only for a singular one, which still exits 3
    # naming its repeated point
    calls = []
    real = fields.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    for module in (fields, pencil):
        monkeypatch.setattr(module, "poly_gcd", counted)
    rng = random.Random(11)

    def singular(field):
        return QuadricPencil(field, *([[d[i] if i == j else 0 for j in range(5)]
                                       for i in range(5)]
                                      for d in ((1, 0, 1, 1, 3), (0, 1, 1, 1, 1))))

    path = tmp_path / "p.json"
    for P, gcds, smooth in ((reconstruct((2, 3), QQ), 0, True),
                            (random_smooth_pencil(GF(7), rng), 1, True),
                            (random_smooth_pencil(GF(3, 2), rng), 1, True),
                            (singular(GF(7)), 1, False), (singular(QQ), 1, False)):
        path.write_text(json.dumps(P.to_json()))
        calls.clear()
        code, out, err = run_cli(capsys, "analyze", str(path))
        g = Poly(P.field, discriminant_quintic(P))
        assert calls.count((g, g.derivative())) == gcds
        if not smooth:
            assert code == 3 and "repeated degenerate point z = 1" in err
        else:
            assert code == 0 and json.loads(out)["smooth"] is True


def test_proportional_and_oversized_q_entries_exit_2(capsys, tmp_path):
    A, B = _mixed_denominator_pair()  # B = (-7/3) A
    obj = {"field": QQ.descriptor(), "A": [[str(x) for x in row] for row in A],
           "B": [[str(x) for x in row] for row in B]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == "" and "proportional" in err
    obj["A"][0][0] = "1" * 5000  # past CPython's int/str limit of 4300 digits
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == "" and "4300 digits" in err


def test_analyze_byte_stable(capsys, p23):
    _, out1, _ = run_cli(capsys, "analyze", p23)
    _, out2, _ = run_cli(capsys, "analyze", p23)
    assert out1 == out2


def test_analyze_not_smooth_exit_3(capsys, tmp_path):
    P = reconstruct((2, 3), QQ)
    obj = P.to_json()
    obj["A"][3][3] = "1"  # lambda = 1: repeated degenerate point
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert json.loads(out)["smooth"] is False
    assert "repeated degenerate point z = 1" in err


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_inexact_entry_exit_2(capsys, tmp_path):
    obj = reconstruct((2, 3), GF(7)).to_json()
    obj["A"][0][0] = 2.9
    path = tmp_path / "float.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == "" and "2.9" in err


def test_analyze_nonsplit_rational_exit_4(capsys, tmp_path):
    A = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
         [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]]
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    P = QuadricPencil(QQ, A, eye)
    path = tmp_path / "nonsplit.json"
    path.write_text(json.dumps(P.to_json()))
    # every command that needs the points says the quintic does not split,
    # with its witness: the rational roots found and the degree of the rest
    for argv in (("analyze", str(path)), ("iso", str(path), str(path)),
                 ("aut", str(path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert "mod" in err  # points the user to reduction mod p
        assert "0 rational root(s) and a factor of degree 5" in err
    # points 0, 1 and infinity, and the roots of 2 z^2 - 1
    A = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    B = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, 1, 0], [0, 0, 0, 0, 2]]
    path.write_text(json.dumps(QuadricPencil(QQ, A, B).to_json()))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 4
    assert "2 rational root(s) and a factor of degree 2" in err


# each pencil is block-diagonal: 1x1 blocks (a, b) give the points a / b, and
# a 2x2 block ([[0, 1], [1, 0]], diag(1, 1/c)) the pair z^2 = c
_EXIT_4_WITNESSES = (
    # the tridiagonal pencil of the test above: no rational point
    ([[0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
     ["1", "1", "1", "1", "1"], 0, 5),
    # the point 0 and the pairs z^2 = 2 and z^2 = 3
    ([[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]],
     ["1", "1", "1/2", "1", "1/3"], 1, 4),
    # the points 0, 1 and 2 and the pair z^2 = 2
    ([[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 1, 0]],
     ["1", "1", "1", "1", "1/2"], 3, 2),
)


@pytest.mark.parametrize("A,B_diagonal,roots,rest", _EXIT_4_WITNESSES)
def test_nonsplit_rational_witness_is_pinned(capsys, tmp_path, A, B_diagonal, roots, rest):
    # the stderr text, byte for byte, as the divisor enumeration printed it
    B = [[B_diagonal[i] if i == j else "0" for j in range(5)] for i in range(5)]
    path = tmp_path / "nonsplit.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"},
                                "A": [[str(x) for x in row] for row in A], "B": B}))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (4, "")
    assert err == (f"error: quintic does not split over Q: it has {roots} rational "
                   f"root(s) and a factor of degree {rest} with no rational root; "
                   "reduce the pencil modulo an odd prime to compute over a finite field\n")


def _hidden_rational_pencil(P, rng, basis_change):
    """P under the unimodular congruence by L L^T, L unitriangular with small
    integer entries, and the pencil basis change (A, B) -> (aA + bB, cA + dB)."""
    lower = [[Fraction(rng.randint(-2, 2) if j < i else int(i == j)) for j in range(5)]
             for i in range(5)]
    M = mat_mul(lower, transpose(lower))
    A, B = congruence(M, P.A), congruence(M, P.B)
    a, b, c, d = basis_change
    return QuadricPencil(QQ, [[a * x + b * y for x, y in zip(r, s)] for r, s in zip(A, B)],
                         [[c * x + d * y for x, y in zip(r, s)] for r, s in zip(A, B)])


def test_large_height_rational_pencil_end_to_end(capsys, tmp_path):
    # the divisor enumeration did not finish `analyze` on the hidden copy in 120 s
    lam, mu = Fraction(10 ** 9 + 7), Fraction(1234567, 7654321)
    P = reconstruct((lam, mu), QQ)
    rng = random.Random(4)
    paths = []
    for basis_change in ((2, 1, 1, 1), (1, -1, 1, 0)):
        hidden = _hidden_rational_pencil(P, rng, basis_change)
        assert hidden.A != P.A
        paths.append(tmp_path / f"hidden{len(paths)}.json")
        paths[-1].write_text(json.dumps(hidden.to_json()))
    code, out, _ = run_cli(capsys, "analyze", str(paths[0]))
    assert code == 0
    report = json.loads(out)
    assert report["degenerate_points"]["includes_infinity"] is False
    assert [str(lam), str(mu)] in report["canonical_invariant"]
    code, out, _ = run_cli(capsys, "iso", str(paths[0]), str(paths[1]))
    assert code == 0 and json.loads(out)["isomorphic"] is True


_big = st.integers(-10 ** 40, 10 ** 40)
# exponent notation, which no scalar grammar allows; Fraction would expand it
_exponents = st.one_of(
    st.builds(lambda m, e, c: f"{m}{c}{e}", st.integers(-9, 9), st.integers(-400, 400),
              st.sampled_from("eE")),
    st.sampled_from(["1e400", "2.5e-1", "1E3", "1/1e3"]))
_normal_form_args = st.one_of(
    _big.map(str), _exponents,
    st.builds(lambda a, b: f"{a}/{b}", _big, st.integers(1, 10 ** 40)),
    st.lists(st.integers(-5, 10 ** 6), min_size=1, max_size=5).map(str),  # F_{p^k}
    st.sampled_from(["1/0", "2.7", "", "0", "1", "-1", "1/2", "-3/4", " 5 ", "[1, 2]", "x",
                     "+3", "1_000", "1/-2", "007/003"]))
# the documented grammars of an integer and of a rational, an integer or "a/b"
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_field_args = st.one_of(
    st.just("Q"),
    st.sampled_from(["q", "QQ", "rationals", "3", "5", "13", "1009", "1000000007",
                     "1099511627689", "3^2", "5^3", "7^2", "3^5", "1009^2",
                     "1099511627609^3"]),
    st.sampled_from(["1", "2", "4", "0", "-3", "9", "3^0", "3^-1", "3^17", "3^100",
                     str(2 ** 40 + 15), "", "x", "3^", "^2", "7^1", "3^1"]))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lam=_normal_form_args, mu=_normal_form_args, equal=st.integers(0, 4).map(lambda n: n == 0),
       field=_field_args)
@example(lam="10000000000000000000000000000000000000007/3", mu="-5/2", equal=False, field="Q")
@example(lam="2", mu="-1", equal=False, field="1009")
@example(lam="[0, 1]", mu="[1, 1]", equal=False, field="3^2")
@example(lam="1e400", mu="3", equal=False, field="Q")
@example(lam="2.7", mu="3", equal=False, field="Q")
@example(lam="2", mu="3", equal=False, field="7^1")
@example(lam="1_000", mu="3", equal=False, field="7")
@example(lam=" 5 ", mu="3", equal=False, field="7")
@example(lam="+3", mu="3", equal=False, field="1009")
@example(lam="2", mu="3", equal=False, field="1_009")
@example(lam="[1_0, 1]", mu="[1, 1]", equal=False, field="3^2")
@example(lam="[1,,2]", mu="[1, 1]", equal=False, field="3^2")
def test_reconstruct_arguments_get_a_documented_exit_code(capsys, tmp_path, lam, mu,
                                                          equal, field):
    mu = lam if equal else mu
    # the attached "--lambda=VALUE" form, which main makes of "--lambda VALUE"
    code, out, err = run_cli(capsys, "reconstruct", f"--lambda={lam}",
                             f"--mu={mu}", f"--field={field}")
    assert code in {0, 2, 4}, err
    assert code or "e" not in (lam + mu).lower(), "exponent notation accepted"
    assert code or not field.endswith("^1"), "an extension of degree 1 accepted"
    rational = field in ("Q", "q", "QQ", "rationals")
    assert code or not rational or all(
        _RATIONAL.fullmatch(x) for x in (lam, mu)), "a rational outside the grammar accepted"
    assert code or rational or all(_INTEGER.fullmatch(x) for x in field.split("^")), \
        "a field outside the integer grammar accepted"
    assert code or not field.isdigit() or all(
        _INTEGER.fullmatch(x) for x in (lam, mu)), "an integer outside the grammar accepted"
    assert code or "^" not in field or all(
        _INTEGER.fullmatch(c.strip()) for x in (lam, mu) for c in x.strip()[1:-1].split(",")), \
        "a coefficient outside the integer grammar accepted"
    if code:
        assert err.startswith("error: ") and out == "", err
        return
    pencil_json = json.loads(out)
    if pencil_json["field"] == {"kind": "rationals"}:
        path = tmp_path / "pencil.json"
        path.write_text(out)
        assert run_cli(capsys, "analyze", str(path))[0] == 0


_Q_PENCIL = reconstruct((2, 3), QQ).to_json()
_Q_CONFIG = {"field": {"kind": "rationals"},
             "points": [[1, 0], ["0", "1"], ["1", "1"], ["2", "1"], ["3", "1"]]}
_ONE_OVER_ZERO = json.loads(json.dumps(_Q_PENCIL))
_ONE_OVER_ZERO["A"][3][3] = "1/0"
_MALFORMED = {
    "pencil-field-not-object": dict(_Q_PENCIL, field=7),
    "pencil-one-over-zero": _ONE_OVER_ZERO,
    "pencil-A-not-matrix": dict(_Q_PENCIL, A=5),
    "pencil-rows-are-strings": dict(
        _Q_PENCIL, A=["10000", "00000", "00100", "00020", "00003"]),
    "config-field-not-object": dict(_Q_CONFIG, field=7),
    "config-no-field": {"points": _Q_CONFIG["points"]},
    "config-points-not-list": dict(_Q_CONFIG, points=5),
    "config-point-not-pair": dict(_Q_CONFIG, points=_Q_CONFIG["points"][:4] + [3]),
    "config-point-one-over-zero": dict(
        _Q_CONFIG, points=_Q_CONFIG["points"][:4] + [["1/0", "1"]]),
}
# every command reads pencil files; only aut reads configuration files
_MALFORMED_RUNS = [(name, command) for name in _MALFORMED
                   for command in ("analyze", "iso", "aut", "minimal", "count-points")
                   if name.startswith("pencil") or command == "aut"]


@pytest.mark.parametrize("name,command", _MALFORMED_RUNS)
def test_malformed_input_exits_2(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_MALFORMED[name]))
    files = [str(path)] * (2 if command == "iso" else 1)
    code, out, err = run_cli(capsys, command, *files)
    assert code == 2, err
    assert out == "" and err.startswith("error: ")


_DEEP = "[" * 100_000 + "]" * 100_000  # too deep for the JSON decoder


@pytest.mark.parametrize("command", ["analyze", "iso", "aut", "minimal", "count-points",
                                     "groupoid", "functor", "signature"])
def test_json_nested_too_deep_exits_2(capsys, tmp_path, command):
    deep, good = tmp_path / "deep.json", tmp_path / "groupoid.json"
    deep.write_text(_DEEP if command != "groupoid" else '{"objects": ' + _DEEP + "}")
    good.write_text(json.dumps(group_groupoid("C", ["X"], (0,), lambda a, b: 0)[0].to_json()))
    argv = {"iso": ["iso", str(deep), str(deep)],
            "groupoid": ["groupoid", "verify", str(deep)],
            "functor": ["groupoid", "verify", str(good), "--functor", str(deep)],
            "signature": ["kgroups", "ranks", "--signature", _DEEP]}.get(
                command, [command, str(deep)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


# descriptors beyond the field limits: without them, trial division of p and
# the degree-100 modulus search would not finish
_OVER_LIMIT = {
    "prime-field": ({"kind": "prime-field", "p": 10 ** 30 + 57}, "characteristic 2^40"),
    "extension-field": ({"kind": "extension-field", "p": 3, "degree": 100},
                        "supported degree 16"),
}


@pytest.mark.parametrize("kind,command", [
    (kind, command) for kind in _OVER_LIMIT
    for command in ("analyze", "iso", "aut", "minimal", "count-points", "reconstruct")])
def test_over_limit_fields_exit_4(capsys, tmp_path, kind, command):
    desc, limit = _OVER_LIMIT[kind]
    if command == "reconstruct":
        spec = str(desc["p"]) + (f"^{desc['degree']}" if "degree" in desc else "")
        argv = ["reconstruct", "--lambda", "2", "--mu", "3", "--field", spec]
    else:
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(dict(_Q_PENCIL, field=desc)))
        argv = [command] + [str(path)] * (2 if command == "iso" else 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert limit in err


def test_reconstruct_over_a_large_cubic_extension_is_fast(capsys):
    # 1099511627609 < 2^40 is 2 mod 3: no x^3 + c is irreducible over it
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "reconstruct", "--lambda", "[2, 0, 0]",
                           "--mu", "[3, 0, 0]", "--field", "1099511627609^3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["field"]["degree"] == 3


def test_reconstruct_one_over_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--lambda", "1/0", "--mu", "3")
    assert code == 2 and "1/0" in err


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-20, 20),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(["1/0", "3/4", "-2", "[1, 2]", "[0,1]", "x", ""]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
_descriptors = st.one_of(
    _json_values,
    st.just({"kind": "rationals"}),
    st.fixed_dictionaries({"kind": st.just("prime-field"),
                           "p": st.sampled_from([1, 2, 3, 5, 7, 9, 11, 13, "5", 5.0])}),
    # small degrees only: the canonical-modulus search is exponential in the degree
    st.fixed_dictionaries({"kind": st.just("extension-field"),
                           "p": st.sampled_from([3, 5, 7, 4]),
                           "degree": st.integers(-1, 3)},
                          optional={"modulus": st.lists(st.integers(0, 6), max_size=4)}),
)
_coords = st.one_of(st.integers(-6, 6), _json_scalars, st.lists(st.integers(-3, 3), max_size=3))
_points = st.one_of(
    _json_values,
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=5, max_size=5),
    st.lists(st.one_of(st.lists(_coords, min_size=2, max_size=2), _json_values),
             min_size=3, max_size=7),
)
_configuration_files = st.one_of(
    st.fixed_dictionaries({"field": _descriptors, "points": _points}),
    _json_values)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_configuration_files)
@example(obj={"field": {"kind": "extension-field", "p": 7, "degree": 1},
              "points": [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]]})
@example(obj={"field": {"kind": "extension-field", "p": 7, "degree": 1, "modulus": [0, 1]},
              "points": [[1, 0], [0, 1], [1, 1], [2, 1], [3, 1]]})
def test_aut_configuration_files_get_a_documented_exit_code(capsys, tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "aut", str(path))
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err
    if _low_degree_extension(obj):
        assert code == 2 and "degree >= 2" in err, err


def _low_degree_extension(obj) -> bool:
    """True when a file's field descriptor names an extension of integer degree below 2."""
    desc = obj.get("field") if isinstance(obj, dict) else None
    return (isinstance(desc, dict) and desc.get("kind") == "extension-field"
            and type(desc.get("degree")) is int and desc["degree"] < 2)


def _symmetric(upper):
    """The 5x5 symmetric matrix with the 15 given entries on and above the diagonal."""
    it = iter(upper)
    M = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            M[i][j] = M[j][i] = next(it)
    return M


def _diagonal(d):
    return [[d[i] if i == j else 0 for j in range(5)] for i in range(5)]


_small = st.integers(-3, 3)
# strings outside the rational grammar, which Fraction reads
_off_grammar = _exponents | st.sampled_from(["2.7", "+3", "1_000", " 5 ", "-.5"])
_entries = st.one_of(_small, st.floats(allow_nan=False, allow_infinity=False),
                     st.booleans(), _off_grammar,
                     st.sampled_from(["1/2", "x", "[1, 2]", "[0,1]", "1/0"]))
_symmetric_ints = st.lists(_small, min_size=15, max_size=15).map(_symmetric)
_good_matrices = st.one_of(
    _symmetric_ints,
    st.lists(st.integers(0, 6), min_size=5, max_size=5).map(_diagonal),  # often singular
)
_bad_matrices = st.one_of(
    st.lists(_entries, min_size=15, max_size=15).map(_symmetric),  # floats, bools, strings
    st.lists(st.lists(_small, min_size=5, max_size=5), min_size=5, max_size=5),  # asymmetric
    st.lists(st.one_of(st.text(max_size=6), st.lists(_small, max_size=6)),
             min_size=3, max_size=6),  # string or short rows
    _json_values,
)
# small fields only: the splitting field of a pencil over F_{p^k} has degree
# up to 6k, and every example runs five commands
_GOOD_FIELDS = [
    {"kind": "rationals"}, {"kind": "prime-field", "p": 3},
    {"kind": "prime-field", "p": 5}, {"kind": "prime-field", "p": 13},
    {"kind": "extension-field", "p": 3, "degree": 2}]
_good_fields = st.sampled_from(_GOOD_FIELDS)
_bad_fields = st.one_of(_json_values, st.sampled_from([
    {"kind": "prime-field", "p": 9}, {"kind": "prime-field", "p": 5.0},
    {"kind": "prime-field", "p": True}, {"kind": "prime-field"},
    {"kind": "extension-field", "p": 3, "degree": 0},
    {"kind": "extension-field", "p": 7, "degree": 1},
    {"kind": "extension-field", "p": 7, "degree": 1, "modulus": [0, 1]},
    {"kind": "extension-field", "p": 4, "degree": 2},
    {"kind": "extension-field", "p": 3, "degree": 2, "modulus": [2, 0, 1]}]))


def _with_entry(field, A, B, entry):
    """An integer pencil file with A[3][3] replaced by entry."""
    obj = _encoded(field, A, B)
    obj["A"][3][3] = entry
    return obj


def _refused_entry(obj) -> bool:
    """True when a pencil file over a supported field has a string matrix
    entry in exponent notation (no string with an e is a scalar), over Q
    one outside the rational grammar, or over F_p one outside the integer
    grammar."""
    if not isinstance(obj, dict) or obj.get("field") not in _GOOD_FIELDS:
        return False
    grammar = {"rationals": _RATIONAL, "prime-field": _INTEGER}.get(obj["field"]["kind"])
    rows = [r for M in (obj.get("A"), obj.get("B")) if isinstance(M, list)
            for r in M if isinstance(r, list)]
    return any(isinstance(x, str) and ("e" in x.lower() or
                                       grammar and not grammar.fullmatch(x))
               for r in rows for x in r)


def _encoded(field, *mats):
    """A pencil file with integer matrices written as F_{p^k} scalars: over
    an extension, as coefficient-vector strings of the base field."""
    if field["kind"] == "extension-field":
        mats = [[[f"[{x}, 0]" for x in row] for row in M] for M in mats]
    return dict(zip(("field", "A", "B"), (field, *mats)))


_malformed_pencil_files = st.one_of(
    st.fixed_dictionaries({"field": _good_fields, "A": _good_matrices | _bad_matrices,
                           "B": _bad_matrices}),
    st.fixed_dictionaries({"field": _bad_fields, "A": _good_matrices, "B": _good_matrices}),
    st.builds(lambda field, A, c: _encoded(field, A, [[c * x for x in row] for row in A]),
              _good_fields, _symmetric_ints, _small),  # proportional
    st.builds(_with_entry, _good_fields, _symmetric_ints, _symmetric_ints, _off_grammar),
    _json_values)
# half well-formed (smooth, singular, non-split over Q), half malformed
_pencil_files = st.booleans().flatmap(lambda well_formed: st.builds(
    _encoded, _good_fields, _good_matrices, _good_matrices)
    if well_formed else _malformed_pencil_files)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_pencil_files, ext=st.integers(-2, 3))
@example(obj=reconstruct((2, 3), GF(7)).to_json(), ext=0)
@example(obj=reconstruct((2, 3), GF(7)).to_json(), ext=-1)
@example(obj=_with_entry({"kind": "rationals"}, _diagonal([1, 0, 1, 2, 3]),
                         _diagonal([0, 1, 1, 1, 1]), "1e400"), ext=1)
@example(obj=_with_entry({"kind": "rationals"}, _diagonal([1, 0, 1, 2, 3]),
                         _diagonal([0, 1, 1, 1, 1]), "2.7"), ext=1)
@example(obj=dict(reconstruct((2, 3), GF(7)).to_json(),
                  field={"kind": "extension-field", "p": 7, "degree": 1}), ext=1)
@example(obj=_with_entry({"kind": "prime-field", "p": 5}, _diagonal([1, 0, 1, 2, 3]),
                         _diagonal([0, 1, 1, 1, 1]), "1_000"), ext=1)
@example(obj=_with_entry({"kind": "prime-field", "p": 5}, _diagonal([1, 0, 1, 2, 3]),
                         _diagonal([0, 1, 1, 1, 1]), " 5 "), ext=1)
@example(obj=_with_entry({"kind": "extension-field", "p": 3, "degree": 2},
                         _diagonal([1, 0, 1, 2, 3]), _diagonal([0, 1, 1, 1, 1]), "[1_0, 0]"),
         ext=1)
@example(obj=dict(reconstruct((2, 3), GF(7)).to_json(),
                  field={"kind": "prime-field", "p": "1_009"}), ext=1)
def test_pencil_files_get_a_documented_exit_code(capsys, tmp_path, obj, ext):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(obj))
    refused = _refused_entry(obj) or _low_degree_extension(obj)
    for command in ("analyze", "iso", "aut", "minimal", "count-points"):
        files = [str(path)] * (2 if command == "iso" else 1)
        if command == "count-points":
            files.append(f"--ext={ext}")
        code, out, err = run_cli(capsys, command, *files)
        assert code in {0, 1, 2, 3, 4}, (command, err)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)
        if code in {2, 3, 4}:
            assert err.startswith("error: "), (command, err)
        if refused:
            assert code == 2, (command, err)


def _exit_code(capsys, *argv):
    """(exit code, stdout, stderr) of main, counting argparse's usage errors."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cyclic_groupoid(tag, objects, n):
    return group_groupoid(tag, objects, tuple(range(n)), lambda a, b: (a + b) % n)[0].to_json()


_valid_groupoids = st.builds(_cyclic_groupoid, st.sampled_from("GH"),
                             st.sampled_from([["X"], ["X", "Y"]]), st.integers(1, 3))
_groupoid_names = st.one_of(st.sampled_from(["X", "Y", "a", "G:X>X:0"]), _json_scalars,
                            st.lists(st.integers(0, 2), max_size=2))
_groupoid_files = st.one_of(
    _valid_groupoids,
    st.builds(lambda obj, key, value: dict(obj, **{key: value}), _valid_groupoids,
              st.sampled_from(["objects", "morphisms", "compose", "identities"]),
              _json_values | st.lists(_groupoid_names, max_size=4)),
    st.fixed_dictionaries({
        "objects": st.lists(_groupoid_names, max_size=3),
        "morphisms": st.lists(st.fixed_dictionaries(
            {"name": _groupoid_names, "src": _groupoid_names, "tgt": _groupoid_names})
            | _json_values, max_size=4),
        "compose": st.lists(st.lists(_groupoid_names, min_size=3, max_size=3)
                            | _json_values, max_size=4),
        "identities": st.dictionaries(st.sampled_from(["X", "Y", ""]), _groupoid_names,
                                      max_size=3) | _json_values}),
    _json_values)


def _breaks_groupoid_shape(obj):
    """Whether obj leaves README's groupoid grammar: objects, morphisms and
    compose lists, morphisms {"name", "src", "tgt"}, compose entries
    [g, f, "g o f"], identities an object, and every name a string."""
    keys = ("objects", "morphisms", "compose", "identities")
    if not (isinstance(obj, dict) and all(key in obj for key in keys)):
        return True
    objects, morphisms, compose, identities = (obj[key] for key in keys)
    if not (all(isinstance(x, list) for x in (objects, morphisms, compose))
            and isinstance(identities, dict)
            and all(isinstance(m, dict) and {"name", "src", "tgt"} <= m.keys() for m in morphisms)
            and all(isinstance(c, list) and len(c) == 3 for c in compose)):
        return True
    names = [*objects, *(m[key] for m in morphisms for key in ("name", "src", "tgt")),
             *(n for c in compose for n in c), *identities.values()]
    return not all(isinstance(n, str) for n in names)


def _breaks_functor_shape(obj):
    """Whether obj leaves README's functor grammar: a groupoid target and
    object and morphism maps from names to names."""
    keys = ("target", "objects", "morphisms")
    if not (isinstance(obj, dict) and all(key in obj for key in keys)):
        return True
    maps = obj["objects"], obj["morphisms"]
    return (not all(isinstance(m, dict) and all(isinstance(n, str) for n in m.values())
                    for m in maps) or _breaks_groupoid_shape(obj["target"]))


# two trivial groups with one-letter names, and files of other shapes that
# read as that groupoid until the shape was checked
_TWO_POINTS = {"objects": ["X", "Y"], "morphisms": [{"name": "e", "src": "X", "tgt": "X"},
                                                    {"name": "f", "src": "Y", "tgt": "Y"}],
               "compose": [["e", "e", "e"], ["f", "f", "f"]], "identities": {"X": "e", "Y": "f"}}
_MISSHAPEN = [dict(_TWO_POINTS, **{key: value}) for key, value in
              (("objects", "XY"), ("objects", {"X": 0, "Y": 0}), ("compose", ["eee", "fff"]),
               ("compose", {"eee": 0, "fff": 0}), ("identities", ["Xe", "Yf"]))]


def _strings(obj):
    """Every string in a JSON value."""
    if isinstance(obj, str):
        return [obj]
    items = obj.items() if isinstance(obj, dict) else obj if isinstance(obj, list) else []
    return [t for item in items for t in _strings(item)]


@st.composite
def _functor_files(draw):
    """(source, functor): a valid groupoid file and a functor file from it.
    The target is the source, a valid groupoid or any groupoid file; the maps
    are the identity or send each name to a string of the target or to junk.
    One entry, or the whole file, may be junk instead."""
    source = draw(_valid_groupoids)
    target = draw(st.just(source) | _valid_groupoids | _groupoid_files)
    mode = draw(st.sampled_from(["identity", "target", "any"]))
    images = st.sampled_from(_strings(target) or ["X"]) if mode == "target" else _groupoid_names

    def image(names):
        if mode == "identity":
            return {n: n for n in names}
        return draw(st.fixed_dictionaries({n: images for n in names}))

    functor = {"target": target, "objects": image(source["objects"]),
               "morphisms": image([m["name"] for m in source["morphisms"]])}
    junk = draw(st.sampled_from(["none", "none", "entry", "file"]))
    if junk == "entry":
        functor[draw(st.sampled_from(sorted(functor)))] = draw(_json_values)
    return source, draw(_json_values) if junk == "file" else functor


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_groupoid_files)
@example(obj={"objects": [[1]], "morphisms": [], "compose": [], "identities": {}})
@example(obj=_MISSHAPEN[0])
@example(obj=_MISSHAPEN[1])
@example(obj=_MISSHAPEN[2])
@example(obj=_MISSHAPEN[3])
@example(obj=_MISSHAPEN[4])
def test_groupoid_files_get_a_documented_exit_code(capsys, tmp_path, obj):
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "groupoid", "verify", str(path))
    assert code in {0, 1, 2}, err
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    assert (code == 2) == _breaks_groupoid_shape(obj), err  # exit 2 exactly off the grammar


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_functor_files())
@example(files=(_TWO_POINTS, {"target": _MISSHAPEN[0], "objects": {"X": "X", "Y": "Y"},
                              "morphisms": {"e": "e", "f": "f"}}))
@example(files=(_TWO_POINTS, {"target": _MISSHAPEN[3], "objects": {"X": "X", "Y": "Y"},
                              "morphisms": {"e": "e", "f": "f"}}))
@example(files=(_TWO_POINTS, {"target": _MISSHAPEN[4], "objects": {"X": "X", "Y": "Y"},
                              "morphisms": {"e": "e", "f": "f"}}))
def test_functor_files_get_a_documented_exit_code(capsys, tmp_path, files):
    paths = [tmp_path / "groupoid.json", tmp_path / "functor.json"]
    for path, obj in zip(paths, files):
        path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "groupoid", "verify", str(paths[0]),
                             "--functor", str(paths[1]))
    assert code in {0, 1, 2}, err
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    assert (code == 2) == _breaks_functor_shape(files[1]), err  # exit 2 exactly off the grammar


def test_misshapen_groupoid_files_exit_2(capsys, tmp_path):
    path, functor = tmp_path / "groupoid.json", tmp_path / "functor.json"
    for obj in (_TWO_POINTS, _cyclic_groupoid("G", ["X", "Y"], 3)):
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "groupoid", "verify", str(path))
        assert code == 0 and json.loads(out)["valid"] is True
    for obj in _MISSHAPEN:
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "groupoid", "verify", str(path))
        assert code == 2 and out == "", obj
        assert err.startswith("error: bad groupoid file") and "Traceback" not in err, err
        # the same file as a functor's target
        path.write_text(json.dumps(_TWO_POINTS))
        functor.write_text(json.dumps({"target": obj, "objects": {"X": "X", "Y": "Y"},
                                       "morphisms": {"e": "e", "f": "f"}}))
        code, out, err = run_cli(capsys, "groupoid", "verify", str(path),
                                 "--functor", str(functor))
        assert code == 2 and out == "", obj
        assert err.startswith("error: bad functor file") and "Traceback" not in err, err


def test_groupoid_verify_refuses_names_that_are_not_strings(capsys, tmp_path):
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps({"objects": [[1]], "morphisms": [], "compose": [],
                                "identities": {}}))
    code, out, err = run_cli(capsys, "groupoid", "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad groupoid file") and "not [1]" in err


def test_functor_into_a_non_groupoid_is_a_negative_verdict(capsys, tmp_path):
    source = _cyclic_groupoid("G", ["X"], 1)
    target = dict(_cyclic_groupoid("H", ["Y"], 2), compose=[])
    paths = [tmp_path / "groupoid.json", tmp_path / "functor.json"]
    paths[0].write_text(json.dumps(source))
    paths[1].write_text(json.dumps({"target": target, "objects": {"X": "Y"},
                                    "morphisms": {"G:X>X:0": "H:Y>Y:0"}}))
    code, out, err = run_cli(capsys, "groupoid", "verify", str(paths[0]),
                             "--functor", str(paths[1]))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["functor_valid"] is False
    assert report["functor_witness"].startswith("target: composition table wrong")


_signature_args = st.one_of(
    st.lists(st.lists(st.one_of(st.integers(-3, 6), _json_scalars), max_size=3),
             max_size=6).map(json.dumps),
    # cycles given as an object's keys or as strings
    st.dictionaries(st.sampled_from(["51", "11", "5", "2-"]), st.integers(-1, 1),
                    max_size=3).map(json.dumps),
    st.lists(st.sampled_from(["11", "51", "2-", "5"]), max_size=6).map(json.dumps),
    _json_values.map(json.dumps), st.text(max_size=8))


# small --points only: wpl_gram(n) builds an (n + 2)^2 matrix
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(signature=_signature_args, space=st.sampled_from(["wpl", "surface", "atom", "x"]),
       points=st.integers(-3, 12).map(str) | st.sampled_from(["", "x", "2.5", " 3", "1_0",
                                                              "+3", "\uff13"]))
@example(signature="[[2.5,-1],[3,-1]]", space="wpl", points="5")
@example(signature="[[true,1]]", space="wpl", points="5")
@example(signature='{"51": 0}', space="wpl", points="5")
@example(signature='["11","11","11","11","11"]', space="wpl", points="5")
@example(signature="[]", space="wpl", points="5")
@example(signature='[["1_0",-1]]', space="wpl", points="5")
@example(signature='[[" 5 ","-1"]]', space="wpl", points="5")
def test_kgroups_arguments_get_a_documented_exit_code(capsys, signature, space, points):
    for argv in (["ranks", f"--signature={signature}"],
                 ["gram", f"--space={space}", f"--points={points}"]):
        code, out, err = _exit_code(capsys, "kgroups", *argv)
        assert code in {0, 1, 2}, (argv, err)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)
        if code == 0 and argv[0] == "gram":
            assert _INTEGER.fullmatch(points)
        if code == 0 and argv[0] == "ranks":  # only non-empty lists of [length, sign] pairs pass
            cycles = json.loads(signature)
            assert isinstance(cycles, list) and cycles
            assert all(isinstance(c, list) and len(c) == 2 for c in cycles)
            assert all(_INTEGER.fullmatch(x) for c in cycles for x in c if isinstance(x, str))


@pytest.mark.parametrize("signature", ["[[2.5,-1],[3,-1]]", "[[true,1]]", "[[5,-1.0]]",
                                       '{"51": 0}', '["11","11","11","11","11"]', "[]"])
def test_kgroups_ranks_refuses_inexact_cycle_data(capsys, signature):
    code, out, err = run_cli(capsys, "kgroups", "ranks", "--signature", signature)
    assert code == 2 and out == ""
    pairs = signature.startswith("[[")  # a list of pairs, with an inexact entry
    assert ("not an exact integer" if pairs else "list of [length, sign] pairs") in err


@pytest.mark.parametrize("points", [kgroups.GRAM_POINTS_GUARD + 1, 10 ** 12])
def test_kgroups_gram_points_beyond_the_guard_exit_1(capsys, points):
    # checked before the (points + 2)^2 matrix is allocated
    code, out, err = _exit_code(capsys, "kgroups", "gram", "--space", "wpl",
                                "--points", str(points))
    assert code == 1 and out == ""
    assert f"guard {kgroups.GRAM_POINTS_GUARD}" in err and "Traceback" not in err


def test_kgroups_gram_at_the_guard_succeeds(capsys):
    n = kgroups.GRAM_POINTS_GUARD
    code, out, _ = run_cli(capsys, "kgroups", "gram", "--space", "wpl", "--points", str(n))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == len(payload["gram"]) == n + 2


def test_analysis_report_finds_the_degenerate_points_once(monkeypatch):
    sampled = random_smooth_pencil(GF(7), random.Random(12))
    # a fresh copy: the sampler's is_smooth has already factored its quintic
    P7 = QuadricPencil(sampled.field, sampled.A, sampled.B)
    g = Poly(P7.field, discriminant_quintic(P7))
    assert g.degree == 5 and [f.degree for f in factor(g)] == [2, 3]
    calls = {"factor": 0, "rational_roots": 0}

    def counted(name):
        fn = getattr(pencil, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pencil, name, counted(name))
    report = cli.analysis_report(P7)
    assert report["splitting_field"] == GF(7, 6).descriptor()
    assert calls == {"factor": 1, "rational_roots": 0}
    cli.analysis_report(reconstruct((2, 3), QQ))
    assert calls == {"factor": 1, "rational_roots": 1}


def test_aut_and_analyze_agree_on_base_automorphisms(capsys, tmp_path):
    # both commands keep the automorphisms whose entries lie in the base
    # field; the first two pencils have automorphisms outside it
    for field, seed in ((GF(3), 6), (GF(7), 2), (GF(3, 2), 0)):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            random_smooth_pencil(field, random.Random(seed)).to_json()))
        _, out, _ = run_cli(capsys, "analyze", str(path))
        report = json.loads(out)
        _, out, _ = run_cli(capsys, "aut", str(path))
        aut = json.loads(out)
        assert aut["aut_p_order"] == report["aut_p_order"]
        assert aut["aut_p_geometric_order"] == report["aut_p_geometric_order"]
        assert aut["aut_p_order"] == sum(e["base_rational"] for e in aut["elements"])
        assert (aut["aut_p_order"] < aut["aut_p_geometric_order"]) == (field.k == 1)


def test_iso_exit_codes(capsys, p23, p25):
    code, out, _ = run_cli(capsys, "iso", p23, p23)
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["certificate"]["base_rational"] is True
    code, out, _ = run_cli(capsys, "iso", p23, p25)
    assert code == 1
    assert json.loads(out)["isomorphic"] is False


def test_iso_judges_base_rational_over_the_common_base_field(capsys, tmp_path):
    # F_9 points oo, 0, t, -t, 1 - t (t^2 = -1) and F_27 points oo, 0, 1 and the
    # roots of z^2 + 1: z -> z + t carries one set onto the other, and t lies in
    # F_9 but not in F_3 = F_9 ∩ F_27, so no certificate is base-rational
    F9, F27 = GF(3, 2), GF(3, 3)
    t = F9.gen()
    assert t * t == F9(-1)  # an int equals only its residue in [0, p)
    diag = [[F9.zero] * 5 for _ in range(5)], [[F9.zero] * 5 for _ in range(5)]
    for i, (a, b) in enumerate(((1, 0), (0, 1), (t, 1), (-t, 1), (1 - t, 1))):
        diag[0][i][i], diag[1][i][i] = F9(a), F9(b)
    A = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, -1]]
    B = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    paths = [tmp_path / "f9.json", tmp_path / "f27.json"]
    paths[0].write_text(json.dumps(QuadricPencil(F9, *diag).to_json()))
    paths[1].write_text(json.dumps(QuadricPencil(F27, A, B).to_json()))
    code, out, _ = run_cli(capsys, "iso", *map(str, paths))
    assert code == 0
    assert json.loads(out)["certificate"]["base_rational"] is False
    for path in paths:
        code, out, _ = run_cli(capsys, "iso", str(path), str(path))
        assert code == 0 and json.loads(out)["certificate"]["base_rational"] is True


def test_one_parser_serves_every_call_of_a_process(capsys, tmp_path, p23, p25,
                                                    qdp4_process):
    # analyze, a malformed file (exit 2) and iso through main() in one
    # process give the exit codes and stdout bytes of fresh processes
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    calls = [["analyze", p23], ["analyze", str(broken)], ["iso", p23, p25],
             ["iso", p23, p23]]
    in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in in_process] == [0, 2, 1, 0]
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, out) in zip(calls, in_process):
        proc = qdp4_process(argv, capture_output=True)
        assert (code, out.encode()) == (proc.returncode, proc.stdout), argv


def test_pencils_over_a_large_prime_field_end_to_end(capsys, tmp_path):
    # p = 10^9+7 = 3 mod 4; the second pencil's degenerate points are
    # 3, 5, 7 and the pair z^2 = -1 from the block [[0, 1], [1, 0]] - z diag(1, -1)
    F = GF(10 ** 9 + 7)
    rng = random.Random(10)
    lam, mu = 123456789, 987654321
    z, one = F.zero, F.one
    A = [[z, one, z, z, z], [one, z, z, z, z], [z, z, F(3), z, z], [z, z, z, F(5), z],
         [z, z, z, z, F(7)]]
    B = [[one if i == j else z for j in range(5)] for i in range(5)]
    B[1][1] = -one
    for P, split_degree in ((reconstruct((lam, mu), F), 1), (QuadricPencil(F, A, B), 2)):
        M = random_invertible(F, rng)
        hidden = QuadricPencil(F, congruence(M, P.A), congruence(M, P.B))
        paths = []
        for name, Q in (("p", P), ("hidden", hidden)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(Q.to_json(), fh)
        code, out, _ = run_cli(capsys, "analyze", paths[1])
        assert code == 0
        report = json.loads(out)
        assert report["splitting_field"].get("degree", 1) == split_degree
        if split_degree == 1:
            assert [lam, mu] in report["canonical_invariant"]
        else:
            assert sorted(f["degree"] for f in report["degenerate_points"]["affine_factors"]) \
                == [1, 1, 1, 2]
        code, out, _ = run_cli(capsys, "iso", paths[0], paths[1])
        assert code == 0 and json.loads(out)["isomorphic"] is True


def _orbit_pencil(field, *degrees):
    """A smooth block-diagonal pencil over F_{p^k} whose affine degenerate
    points form Galois orbits of the given degrees d (summing to 5).  Orbit
    f is the first factor over the field of an irreducible of degree m over
    F_p with lcm(m, k) = dk.  Its block is the Hankel pencil
    (c_{i+j+1}) - z (c_{i+j}), c_n = Tr(t^n / f'(t)): c_n = 0 for n < d - 1,
    c_{d-1} = 1, then the recurrence of f, so the determinant is a unit
    times f(z)."""
    A = [[field.zero] * 5 for _ in range(5)]
    B = [[field.zero] * 5 for _ in range(5)]
    at = 0
    for d in degrees:
        m = min(m for m in range(1, d * field.k + 1)
                if lcm(m, field.k) == d * field.k)
        f = factor(embed_poly(Poly.from_ints(GF(field.p), _canonical_modulus(field.p, m)),
                              field))[0]
        c = [field.zero] * (d - 1) + [field.one]
        while len(c) < 2 * d:
            c.append(-sum((a * x for a, x in zip(f.coeffs, c[-d:])), field.zero))
        for i, j in itertools.product(range(d), repeat=2):
            A[at + i][at + j], B[at + i][at + j] = c[i + j + 1], c[i + j]
        at += d
    return QuadricPencil(field, A, B)


def test_implied_fields_beyond_the_bound_exit_4(capsys, tmp_path, monkeypatch):
    # orbits of degree 2 and 3 over F_{3^6}: the splitting field has degree 36
    path = _pencil_file(tmp_path, _orbit_pencil(GF(3, 6), 2, 3).to_json())
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 4 and out == ""
    assert f"GF(3^36) has degree 36 over F_3, beyond the bound {MAX_IMPLIED_DEGREE}" in err
    # over F_9 the splitting fields have degrees 10 and 12, the common field 60
    pencils = [_orbit_pencil(GF(3, 2), 5), _orbit_pencil(GF(3, 2), 2, 3)]
    assert [splitting_field(P).k for P in pencils] == [10, 12]
    paths = []
    for i, P in enumerate(pencils):
        paths.append(str(tmp_path / f"f9_{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(P.to_json(), fh)

    def no_search(p, k):
        raise AssertionError(f"modulus search for GF({p}^{k})")
    monkeypatch.setattr(fields, "_canonical_modulus", no_search)
    code, out, err = run_cli(capsys, "iso", *paths)
    assert code == 4 and out == ""
    assert f"GF(3^60) has degree 60 over F_3, beyond the bound {MAX_IMPLIED_DEGREE}" in err


def test_implied_field_at_the_bound_is_built(capsys, tmp_path):
    # the same orbit degrees over F_p imply F_{p^5}, F_{p^6} and, for iso,
    # F_{p^30}; at the largest prime input may name this is the worst case of
    # MAX_IMPLIED_DEGREE.  The wall-time budget is a stopgap until qdp4 counts
    # its field operations, which a noisy host cannot flake: then bound those.
    for p in (3, 1099511627689):
        start = time.perf_counter()
        paths = []
        for i, degrees in enumerate(((5,), (2, 3))):
            paths.append(str(tmp_path / f"f{p}_{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(_orbit_pencil(GF(p), *degrees).to_json(), fh)
            code, out, _ = run_cli(capsys, "analyze", paths[-1])
            assert code == 0 and json.loads(out)["splitting_field"]["degree"] == 5 + i
        code, out, _ = run_cli(capsys, "iso", *paths)
        assert code == 1 and json.loads(out)["isomorphic"] is False
        assert time.perf_counter() - start < 30


def test_iso_mismatched_characteristics_exit_4(capsys, tmp_path, p23):
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(reconstruct((3, 4), GF(7)).to_json()))
    code, _, err = run_cli(capsys, "iso", p23, str(path))
    assert code == 4


def test_aut_on_configuration(capsys, tmp_path):
    config = {"field": {"kind": "rationals"},
              "points": [[1, 0], ["0", "1"], ["1", "1"], ["2", "1"], ["3", "1"]]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "aut", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["aut_p_order"] == 2
    assert payload["aut_x_order"] == 32
    assert payload["fiber_product_order"] == 32


def test_aut_on_pencil(capsys, p23):
    code, out, _ = run_cli(capsys, "aut", p23)
    assert code == 0
    assert json.loads(out)["aut_p_order"] == 2


def test_minimal_command(capsys, tmp_path):
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(reconstruct((3, 4), GF(7)).to_json()))
    code, out, _ = run_cli(capsys, "minimal", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"] is False
    assert payload["picard_invariant_rank"] >= 1


def test_minimal_rational_nonsplit_exit_4(capsys, tmp_path):
    A = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
         [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]]
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    path = tmp_path / "nonsplit.json"
    path.write_text(json.dumps(QuadricPencil(QQ, A, eye).to_json()))
    code, _, _ = run_cli(capsys, "minimal", str(path))
    assert code == 4


def test_count_points_command(capsys, tmp_path):
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(reconstruct((2, 3), GF(5)).to_json()))
    code, out, _ = run_cli(capsys, "count-points", str(path), "--ext", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["count"] == payload["predicted"]
    code, _, err = run_cli(capsys, "count-points", str(path), "--ext", "4")  # 625 > 250
    assert code == 1
    assert "guard" in err
    start = time.perf_counter()  # refused before 5^k is built
    code, out, err = run_cli(capsys, "count-points", str(path), "--ext", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: p^k = 5^100000000 exceeds the enumeration guard 250\n"


@pytest.mark.parametrize("ext", ["0", "-1"])
def test_count_points_below_degree_1_exits_2(capsys, tmp_path, ext):
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(reconstruct((2, 3), GF(7)).to_json()))
    code, out, err = run_cli(capsys, "count-points", str(path), f"--ext={ext}")
    assert code == 2 and out == ""
    assert err == f"error: extension degree k = {ext} must be at least 1\n"


def test_exponent_notation_over_q_exits_2(capsys, tmp_path):
    # Fraction reads "1e1000000" as a million-digit integer
    obj = reconstruct((2, 3), QQ).to_json()
    obj["A"][3][3] = "1e400"
    path = tmp_path / "q.json"
    path.write_text(json.dumps(obj))
    for argv, entry in ((["analyze", str(path)], "1e400"),
                        (["reconstruct", "--lambda", "1e400", "--mu", "3"], "1e400"),
                        (["reconstruct", "--lambda", "2", "--mu", "3E2"], "3E2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"exponent notation in the rational '{entry}'" in err, err


@pytest.mark.parametrize("entry", ["2.7", "1_000", " 5 ", "+3"])
def test_rational_outside_the_grammar_exits_2(capsys, tmp_path, entry):
    # Fraction reads all of these; a rational is an integer or "a/b"
    obj = reconstruct((2, 3), QQ).to_json()
    obj["A"][3][3] = entry
    path = tmp_path / "q.json"
    path.write_text(json.dumps(obj))
    for argv in (["analyze", str(path)], ["reconstruct", f"--lambda={entry}", "--mu", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"bad syntax in the rational {entry!r}" in err, err


def _pencil_file(tmp_path, obj):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(obj))
    return str(path)


_F7_PENCIL = reconstruct((2, 3), GF(7)).to_json()
_Q_PENCIL = reconstruct((2, 3), QQ).to_json()


def _edited(obj, edit):
    obj = json.loads(json.dumps(obj))
    edit(obj)
    return obj


def _set(matrix, i, j, value):
    def edit(obj):
        obj[matrix][i][j] = value
    return edit


@pytest.mark.parametrize("pencil,edit,message", [
    (_Q_PENCIL, lambda obj: obj["A"][2].pop(), "pencil matrices must be 5x5"),
    (_Q_PENCIL, lambda obj: obj["A"].pop(), "pencil matrices must be 5x5"),
    (_Q_PENCIL, _set("A", 3, 3, True), "not an exact integer: True"),
    (_Q_PENCIL, _set("A", 3, 3, 2.7), "not an exact integer: 2.7"),
    (_Q_PENCIL, _set("A", 3, 3, "2.7"),
     "bad syntax in the rational '2.7'; write an integer or a/b"),
    (_Q_PENCIL, _set("A", 3, 3, "1e400"),
     "exponent notation in the rational '1e400'; write an integer or a/b"),
    (_Q_PENCIL, _set("A", 3, 3, "3/0"), "zero denominator in '3/0'"),
    (_Q_PENCIL, _set("A", 0, 1, "1/2"), "pencil matrices must be symmetric"),
    (_F7_PENCIL, lambda obj: obj["B"][4].append(0), "pencil matrices must be 5x5"),
    (_F7_PENCIL, lambda obj: obj["B"].pop(), "pencil matrices must be 5x5"),
    (_F7_PENCIL, _set("A", 3, 3, True), "not an exact integer: True"),
    (_F7_PENCIL, _set("A", 3, 3, 2.7), "not an exact integer: 2.7"),
    (_F7_PENCIL, _set("A", 3, 3, "1e400"), "bad syntax in the integer '1e400'"),
    (_F7_PENCIL, _set("A", 3, 3, "3/0"), "bad syntax in the integer '3/0'"),
    (_F7_PENCIL, _set("A", 0, 1, 8), "pencil matrices must be symmetric")],
    ids=["q-ragged", "q-4x5", "q-bool", "q-float", "q-decimal", "q-exponent",
         "q-zero-denominator", "q-asymmetric", "f7-ragged", "f7-4x5", "f7-bool",
         "f7-float", "f7-exponent", "f7-fraction", "f7-asymmetric"])
def test_malformed_pencil_entries_name_the_entry_and_exit_2(capsys, tmp_path, pencil,
                                                            edit, message):
    # the integer lift is checked only after every entry is read, so each
    # entry keeps the message of its own reader
    path = _pencil_file(tmp_path, _edited(pencil, edit))
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, out, err) == (2, "", f"error: bad pencil file {path}: {message}\n")


def test_proportional_pencil_with_other_denominators_exits_2(capsys, tmp_path):
    # B = A / 3, each entry of B written over its own denominator: 6, 9, 12, ...
    A = [[(i + 1) * (j + 1) + (i == j) for j in range(5)] for i in range(5)]
    obj = {"field": QQ.descriptor(), "A": A,
           "B": [[f"{x * (i + j + 2)}/{3 * (i + j + 2)}" for j, x in enumerate(row)]
                 for i, row in enumerate(A)]}
    code, out, err = run_cli(capsys, "analyze", _pencil_file(tmp_path, obj))
    assert code == 2 and out == "" and "matrices are proportional" in err, err
    obj["B"][4][4] = f"{A[4][4] + 1}/3"  # one entry off the line: a (singular) pencil
    code, out, err = run_cli(capsys, "analyze", _pencil_file(tmp_path, obj))
    assert code == 3 and json.loads(out)["smooth"] is False, err


@pytest.mark.parametrize("argv,entry", [
    (["reconstruct", "--lambda=1_000", "--mu", "3", "--field", "7"], "1_000"),
    (["reconstruct", "--lambda= 5 ", "--mu", "3", "--field", "7"], " 5 "),
    (["reconstruct", "--lambda=+3", "--mu", "3", "--field", "7"], "+3"),
    (["reconstruct", "--lambda", "2", "--mu", "3", "--field", "1_009"], "1_009"),
    (["reconstruct", "--lambda", "2", "--mu", "3", "--field", " 7 "], " 7 "),
    (["reconstruct", "--lambda", "[1_0, 1]", "--mu", "[1, 1]", "--field", "3^2"], "1_0"),
    (["reconstruct", "--lambda", "[1,,2]", "--mu", "[1, 1]", "--field", "3^2"], ""),
    (["analyze", dict(_F7_PENCIL, field={"kind": "prime-field", "p": "1_009"})], "1_009"),
    (["analyze", dict(_F7_PENCIL, field={"kind": "extension-field", "p": 7, "degree": " 2"})],
     " 2"),
    (["analyze", _with_entry({"kind": "prime-field", "p": 7}, _diagonal([1, 0, 1, 2, 3]),
                             _diagonal([0, 1, 1, 1, 1]), "1_000")], "1_000"),
    (["kgroups", "ranks", '--signature=[["1_0", -1]]'], "1_0"),
    (["kgroups", "ranks", '--signature=[[5, "+1"]]'], "+1"),
    (["count-points", _F7_PENCIL, "--ext", " 2"], " 2"),
    (["count-points", _F7_PENCIL, "--ext", "0_2"], "0_2"),
    (["count-points", _F7_PENCIL, "--ext", "+2"], "+2"),
    (["count-points", _F7_PENCIL, "--ext", "\uff12"], "\uff12"),  # a full-width 2
    (["kgroups", "gram", "--points", " 3"], " 3"),
    (["kgroups", "gram", "--points", "1_0"], "1_0")],
    ids=["lambda-underscore", "lambda-spaces", "lambda-plus", "field-p", "field-spaces",
         "coefficient", "empty-coefficient",
         "descriptor-p", "descriptor-degree", "matrix-entry", "cycle-length", "cycle-sign",
         "ext-space", "ext-underscore", "ext-plus", "ext-full-width",
         "points-space", "points-underscore"])
def test_integers_outside_the_grammar_exit_2(capsys, tmp_path, argv, entry):
    # int() reads all of these; an integer is -?[0-9]+ as in the rational grammar
    argv = [_pencil_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "", argv
    assert f"bad syntax in the integer {entry!r}" in err, err


@pytest.mark.parametrize("desc", [
    {"kind": "extension-field", "p": 7, "degree": 1},
    {"kind": "extension-field", "p": 7, "degree": 1, "modulus": [0, 1]}])
def test_extension_descriptor_of_degree_1_exits_2(capsys, tmp_path, desc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(reconstruct((2, 3), GF(7)).to_json(), field=desc)))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert "needs degree >= 2, not 1" in err


def test_reconstruct_command(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--lambda", "2", "--mu", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["A"][3][3] == "2" and payload["A"][4][4] == "3"
    code, out, _ = run_cli(capsys, "reconstruct", "--lambda", "4", "--mu", "6",
                           "--field", "11")
    assert code == 0
    assert json.loads(out)["field"] == {"kind": "prime-field", "p": 11}


def test_reconstruct_reads_a_separate_negative_fraction_as_the_value(capsys):
    # argparse alone takes "-1/2" for an option: it is not a plain number
    code, joined, _ = run_cli(capsys, "reconstruct", "--lambda=-1/2", "--mu", "3")
    assert code == 0
    assert run_cli(capsys, "reconstruct", "--lambda", "-1/2", "--mu", "3") == (0, joined, "")
    assert run_cli(capsys, "reconstruct", "--mu", "3", "--lambda", "-1/2")[1] == joined
    assert json.loads(joined)["A"][3][3] == "-1/2"


def test_reconstruct_invalid_normal_form_exit_2(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--lambda", "0", "--mu", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "reconstruct", "--lambda", "2", "--mu", "2")
    assert code == 2


def test_kgroups_ranks_command(capsys):
    code, out, _ = run_cli(capsys, "kgroups", "ranks", "--signature", "[[5,-1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["picard"] == 1
    assert payload["wpl_k0"] == 2
    assert payload["torsion"] == 1
    assert payload["surface_k0"] == 3
    assert payload["minimal"] is True
    assert payload["conic_bundle"] == {"k0x_rank": 4, "atom_rank": 2}
    code, out, _ = run_cli(capsys, "kgroups", "ranks", "--signature",
                           "[[4,-1]]")
    assert code == 0
    assert json.loads(out)["conic_bundle"] == {"k0x_rank": 4, "atom_rank": 2}
    code, _, _ = run_cli(capsys, "kgroups", "ranks", "--signature", "oops")
    assert code == 2


def test_groupoid_verify_command(capsys, tmp_path):
    def cyclic(n):
        return tuple(range(n)), (lambda a, b: (a + b) % n)

    c2, mul2 = cyclic(2)
    C, cname = group_groupoid("C", ["X", "Y"], c2, mul2)
    elems4 = tuple(itertools.product(range(2), range(2)))
    mul4 = (lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))
    D, dname = group_groupoid("D", ["Z"], elems4, mul4)
    gpath = tmp_path / "groupoid.json"
    gpath.write_text(json.dumps(C.to_json()))
    fpath = tmp_path / "functor.json"
    fpath.write_text(json.dumps({
        "target": D.to_json(),
        "objects": {"X": "Z", "Y": "Z"},
        "morphisms": {n: dname[("Z", "Z", (g, 0))]
                      for (x, y, g), n in cname.items()}}))
    code, out, _ = run_cli(capsys, "groupoid", "verify", str(gpath),
                           "--functor", str(fpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["heavily_separable"]
    # a functor without splittings is a negative verdict
    c4, mul4c = cyclic(4)
    C2_, cn = group_groupoid("A", ["P"], c2, mul2)
    D2, dn = group_groupoid("B", ["Q"], c4, mul4c)
    gpath2 = tmp_path / "g2.json"
    gpath2.write_text(json.dumps(C2_.to_json()))
    fpath2 = tmp_path / "f2.json"
    fpath2.write_text(json.dumps({
        "target": D2.to_json(),
        "objects": {"P": "Q"},
        "morphisms": {cn[("P", "P", g)]: dn[("Q", "Q", 2 * g)] for g in range(2)}}))
    code, out, _ = run_cli(capsys, "groupoid", "verify", str(gpath2),
                           "--functor", str(fpath2))
    assert code == 1
    payload = json.loads(out)
    assert payload["splitting_found"] is False


@pytest.mark.parametrize("order,code", [(256, 0), (257, 1)])
def test_groupoid_verify_past_the_splitting_search_bound_exits_1(capsys, tmp_path, order,
                                                                 code):
    # C_1 -> C_n: a valid functor; past |Aut_D| = 256 the search is refused
    paths = [tmp_path / "groupoid.json", tmp_path / "functor.json"]
    paths[0].write_text(json.dumps(_cyclic_groupoid("C", ["X"], 1)))
    paths[1].write_text(json.dumps({
        "target": _cyclic_groupoid("D", ["Y"], order), "objects": {"X": "Y"},
        "morphisms": {"C:X>X:0": "D:Y>Y:0"}}))
    got, out, err = run_cli(capsys, "groupoid", "verify", str(paths[0]),
                            "--functor", str(paths[1]))
    assert got == code
    if code == 0:
        assert json.loads(out)["heavily_separable"] is True
    else:
        assert out == "" and "257" in err and "256" in err


@pytest.mark.parametrize("target,image,split", [
    ((2,) * 6, lambda g: (0, 0, 0) + g, True),               # C2^3 -> C2^6
    ((4,) * 3, lambda g: tuple(2 * x for x in g), False)],   # C2^3 -> C4^3, doubling
    ids=["split", "not-split"])
def test_groupoid_verify_searches_splittings_of_vector_groups_quickly(tmp_path, target,
                                                                       image, split,
                                                                       qdp4_process):
    # |Aut_C|^(generators of Aut_D) candidate splittings would be 8^6 here;
    # with psi(phi(g)) = g forced, only the generators outside phi(Aut_C) vary
    def vectors(tag, orders):
        elements = tuple(itertools.product(*map(range, orders)))
        return group_groupoid(tag, ["*"], elements, lambda a, b: tuple(
            (x + y) % n for x, y, n in zip(a, b, orders)))

    C, cname = vectors("C", (2,) * 3)
    D, dname = vectors("D", target)
    paths = [tmp_path / "groupoid.json", tmp_path / "functor.json"]
    paths[0].write_text(json.dumps(C.to_json()))
    paths[1].write_text(json.dumps({
        "target": D.to_json(), "objects": {"*": "*"},
        "morphisms": {n: dname[("*", "*", image(g))] for (_, _, g), n in cname.items()}}))
    proc = qdp4_process(["groupoid", "verify", str(paths[0]), "--functor", str(paths[1])],
                        capture_output=True, text=True, timeout=10)
    assert proc.returncode == (0 if split else 1), proc.stderr
    report = json.loads(proc.stdout)
    assert report["functor_valid"] and report["injective_on_iso_classes"]
    assert report["splitting_found"] is split and report["heavily_separable"] is split


def test_console_script_runs(qdp4_process):
    proc = qdp4_process(["reconstruct", "--lambda", "2", "--mu", "3"],
                        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["field"] == {"kind": "rationals"}


@pytest.mark.parametrize("command", ["analyze", "selftest"])
def test_closed_stdout_exits_1_without_traceback(p23, command, qdp4_process):
    argv = [command, p23] if command == "analyze" else [command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = qdp4_process(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_kgroups_gram_command(capsys):
    code, out, _ = run_cli(capsys, "kgroups", "gram", "--space", "wpl",
                           "--points", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"][:2] == ["O", "O_pt"]
    assert payload["gram"][0] == ["1", "1", "1", "1", "1", "1", "1"]
    code, out, _ = run_cli(capsys, "kgroups", "gram", "--space", "atom")
    assert code == 0
    assert len(json.loads(out)["gram"]) == 7


_SELFTEST_LINES = """\
PASS field-arith: exact arithmetic over Q, F5, F9
PASS zero-class-census: 10 classes, 5 pairs with h + h' = -K
PASS weyl-order-1920: closure order 1920, image = even signed permutations
PASS retract-homomorphism: 14745600 composable pairs, 0 violations
PASS rank-formulas: 3840 elements x 4 spaces; minimal triple (1, 2, 1)
PASS lefschetz-consistency: 10 point counts match the trace prediction
PASS normal-form-eq-pencil: degenerate points {oo,0,1,2,3}; invariant contains (2,3)
PASS torelli-roundtrip: 12 reconstruct round trips
PASS fiber-product-order: 6 configurations satisfy |Aut(X)| = 16 |Aut(P)|
PASS serre-certificate: convention lock, pair swap with sign, Gram match
PASS heavy-separability: 10 random instances verified
"""


def test_selftest_command_lists_required_suites(capsys):
    # byte for byte: the benchmark keys its suite metrics on these names
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out == _SELFTEST_LINES


def test_analyze_extension_field_pencil(capsys, tmp_path):
    F9 = GF(3, 2)
    t = F9.gen()
    P = reconstruct((t, t + F9.one), F9)
    path = tmp_path / "f9.json"
    path.write_text(json.dumps(P.to_json()))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["smooth"] is True
    # Galois data is prime-field only; geometric invariants still present
    assert payload["signature"] is None
    assert payload["minimal"] is None
    assert payload["canonical_invariant"]


def test_every_report_prints_as_json_dumps_with_indent_2(capsys, tmp_path, monkeypatch,
                                                         p23, p25):
    # cli._dumps replaces json.dumps(obj, indent=2) and must print the same
    # bytes for each command's report shape
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj: emitted.append(obj) or emit(obj))
    F9 = GF(3, 2)
    singular = reconstruct((2, 3), QQ).to_json()
    singular["A"][3][3] = "1"
    files = {"fp": random_smooth_pencil(GF(7), random.Random(12)).to_json(),
             "f9": reconstruct((F9.gen(), F9.gen() + F9.one), F9).to_json(),
             "f5": reconstruct((2, 3), GF(5)).to_json(), "singular": singular,
             "groupoid": _cyclic_groupoid("C", ["X"], 1),
             "functor": {"target": _cyclic_groupoid("D", ["Y"], 2), "objects": {"X": "Y"},
                         "morphisms": {"C:X>X:0": "D:Y>Y:0"}},
             "not-groupoid": dict(_cyclic_groupoid("H", ["Y"], 2), compose=[])}
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    commands = [("analyze", p23), ("analyze", path["fp"]), ("analyze", path["f9"]),
                ("analyze", path["singular"]), ("iso", p23, p23), ("iso", p23, p25),
                ("iso", path["f9"], path["f9"]), ("aut", p23), ("aut", path["f9"]),
                ("minimal", path["fp"]), ("count-points", path["f5"], "--ext", "2"),
                ("reconstruct", "--lambda", "-1/2", "--mu", "3"),
                ("reconstruct", "--lambda", "[1,2]", "--mu", "[2,0]", "--field", "3^2"),
                ("kgroups", "ranks", "--signature", "[[2,-1],[3,1]]"),
                ("kgroups", "gram", "--space", "wpl", "--points", "2"),
                ("kgroups", "gram", "--space", "surface"),
                ("groupoid", "verify", path["groupoid"], "--functor", path["functor"]),
                ("groupoid", "verify", path["not-groupoid"])]
    for argv in commands:
        emitted.clear()
        _, out, _ = run_cli(capsys, *argv)
        assert len(emitted) == 1, argv
        assert out == json.dumps(emitted[0], indent=2) + "\n", argv
    assert json.loads(out)["valid"] is False  # the last report carries a witness


_json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 300, 2 ** 300),
              st.floats(), st.text(), st.text(st.characters(max_codepoint=0x7f)),
              st.sampled_from(["\x00\x1f\x7f\"\\/", "é ퟿￾",
                               "\U0001f600\U0010ffff", ""])),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(obj=_json_trees)
@example(obj={"": [[], {}, ()], "\U0001f600": {"\x00": [None, True, False, -0, -1]}})
@example(obj=[10 ** 1000, -10 ** 1000, float("nan"), float("-inf"), -0.0, 1e300])
def test_writer_matches_json_dumps_on_nested_values(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_writer_refuses_what_json_cannot_hold():
    for obj in ([object()], {"a": {1, 2}}, {1: "int key"}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            cli._dumps(obj)
