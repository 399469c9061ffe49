"""The Q path against the F_p path.  Over Q the degenerate points come from
`rational_roots` and the cross ratios from integers and Fractions; over F_p
from `factor` and packed field arithmetic.  A split Q pencil reduced mod a
prime p that divides no denominator, where the reduction is smooth, keeps
its five points distinct, and cross ratios commute with reduction: so the
F_p invariant of the reduced pencil is the Q invariant reduced mod p.
Reduction can add coincidences but not remove automorphisms, so |Aut| over
Q divides |Aut| over F_p; the reduced pencil is split, so Frobenius fixes
its five points, and where p is within the point-count guard its
brute-force count is the Lefschetz prediction."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdp4.fields import GF, QQ
from qdp4.pencil import (POINTCOUNT_GUARD, DegeneratePencilError, QuadricPencil,
                         canonical_invariant, count_points, galois_signature,
                         is_smooth, isomorphic, point_configuration,
                         predicted_count, reconstruct)
from qdp4.wpline import aut_group
from test_cli import _hidden_rational_pencil

PRIMES = (3, 5, 7, 11, 13, 101, 1009, 2 ** 31 - 1)


def _mod(x: Fraction, F):
    return F(x.numerator) / F(x.denominator)


def _reduce(P, p):
    """P's entries mod p, or None where p divides a denominator or the
    reduction is not smooth (proportional, or two points merged)."""
    entries = [x for M in (P.A, P.B) for row in M for x in row]
    if any(x.denominator % p == 0 for x in entries):
        return None
    F = GF(p)
    try:
        reduced = QuadricPencil(F, *([[_mod(x, F) for x in row] for row in M]
                                     for M in (P.A, P.B)))
    except DegeneratePencilError:
        return None
    return reduced if is_smooth(reduced) else None


@st.composite
def _pairs(draw):
    height = draw(st.sampled_from((8, 2 ** 16, 2 ** 64)))
    scalars = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
    return draw(st.tuples(scalars, scalars).filter(
        lambda pair: 0 not in pair and 1 not in pair and pair[0] != pair[1]))


_basis_changes = st.tuples(*[st.integers(-3, 3)] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2])


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(pair=_pairs(), basis_change=_basis_changes, seed=st.integers(0, 2 ** 32))
@example(pair=(Fraction(2), Fraction(5)), basis_change=(1, 0, 0, 1), seed=0)  # 5 = 2 mod 3
@example(pair=(Fraction(-1), Fraction(1, 2)), basis_change=(0, 1, 1, 0), seed=1)
@example(pair=(Fraction(4), Fraction(12)), basis_change=(2, 1, 1, 1), seed=2)  # 4 = 1 mod 3
def test_reduction_mod_p_commutes_with_the_invariant(pair, basis_change, seed):
    hidden = _hidden_rational_pencil(reconstruct(pair, QQ), random.Random(seed), basis_change)
    invariant = canonical_invariant(hidden)
    auts = len(aut_group(point_configuration(hidden)))
    checked = 0
    for p in PRIMES:
        reduced = _reduce(hidden, p)
        if reduced is None:
            continue
        F = GF(p)
        assert set(canonical_invariant(reduced)) == {(_mod(a, F), _mod(b, F))
                                                    for a, b in invariant}
        assert isomorphic(reduced, reconstruct([_mod(x, F) for x in pair], F)) is not None
        assert len(aut_group(point_configuration(reduced))) % auts == 0
        sig = galois_signature(reduced)
        assert [length for length, _ in sig.cycles] == [1] * 5
        if p <= POINTCOUNT_GUARD:
            assert count_points(reduced, 1) == predicted_count(sig, p, 1)
        checked += 1
    assert checked  # some prime keeps the points apart, or the test checks nothing
