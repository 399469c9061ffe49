import itertools
import random

import numpy as np
import pytest

from qdp4 import hyperoct
from qdp4.fields import QQ
from qdp4.hyperoct import (CycleSignature, InvalidGroupInputError, SignedPerm,
                           all_signed_perms, even_signed_perms, fiber_product_order,
                           index_tables, retract, retract_homomorphism_violations)
from qdp4.wpline import Moebius

E = SignedPerm.identity()
C = SignedPerm(tuple(range(5)), (-1,) * 5)  # the central flip


def doubled_permutation(a: SignedPerm):
    """The induced permutation of the 10 points (i, +1), (i, -1), as an image tuple.

    Point (i, s) is indexed 2*i for s = +1 and 2*i + 1 for s = -1.
    """
    images = []
    for i in range(len(a.perm)):
        for s in (1, -1):
            j = a.perm[i]  # (i, s) -> (perm[i], s * signs[perm[i]])
            images.append(2 * j + (0 if s * a.signs[j] == 1 else 1))
    return tuple(images)


def signed_perm_index(a: SignedPerm) -> int:
    """Element index 32 * perm_index + sign_mask, the encoding of index_tables."""
    perms, _, _ = index_tables()
    mask = sum(1 << j for j in range(5) if a.signs[j] == -1)
    return 32 * perms.index(a.perm) + mask


def signed_perm_from_index(e: int) -> SignedPerm:
    perms, _, _ = index_tables()
    pidx, mask = divmod(e, 32)
    signs = tuple(-1 if (mask >> j) & 1 else 1 for j in range(5))
    return SignedPerm(perms[pidx], signs)


def _parity_by_inversions(images):
    """Independent parity oracle: count inversions of the image list."""
    inv = sum(1 for i, j in itertools.combinations(range(len(images)), 2)
              if images[i] > images[j])
    return 1 if inv % 2 == 0 else -1


def test_identity_and_central_element():
    rng = random.Random(0)
    B5 = all_signed_perms()
    for _ in range(50):
        a = rng.choice(B5)
        assert E.compose(a) == a
        assert a.compose(E) == a
        assert a.compose(C) == C.compose(a)  # c is central
    assert C.compose(C) == E
    assert not C.is_even()


def test_inverse_property():
    rng = random.Random(1)
    B5 = all_signed_perms()
    for _ in range(100):
        a = rng.choice(B5)
        assert a.compose(a.inverse()) == E
        assert a.inverse().compose(a) == E


def test_group_sizes_by_exhaustive_generation():
    # closure from standard generators must reproduce the full enumeration
    gens = [SignedPerm((1, 0, 2, 3, 4), (1,) * 5),
            SignedPerm((1, 2, 3, 4, 0), (1,) * 5),
            SignedPerm((0, 1, 2, 3, 4), (-1, 1, 1, 1, 1))]
    seen = {E}
    frontier = [E]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = g.compose(a)
                if b not in seen:
                    seen.add(b)
                    new.append(b)
        frontier = new
    assert len(seen) == 3840
    assert seen == set(all_signed_perms())
    assert len(even_signed_perms()) == 1920


def test_is_even_matches_ten_point_parity():
    for a in all_signed_perms():
        images = doubled_permutation(a)
        assert a.is_even() == (_parity_by_inversions(images) == 1)


def test_is_even_examples():
    assert E.is_even()
    assert not SignedPerm((0, 1, 2, 3, 4), (-1, 1, 1, 1, 1)).is_even()
    for perm in itertools.permutations(range(5)):
        assert SignedPerm(perm, (1,) * 5).is_even()


def test_retract_examples_and_homomorphism():
    assert retract(C) == E
    rng = random.Random(2)
    evens = even_signed_perms()
    B5 = all_signed_perms()
    for _ in range(200):
        g = rng.choice(evens)
        assert retract(g) == g
        a, b = rng.choice(B5), rng.choice(B5)
        assert retract(a.compose(b)) == retract(a).compose(retract(b))
        assert retract(a).perm == a.perm  # commutes with projection to S5


def test_even_subgroup_maps_onto_s5_with_kernel_16():
    evens = even_signed_perms()
    by_perm = {}
    for a in evens:
        by_perm.setdefault(a.perm, []).append(a)
    assert len(by_perm) == 120          # surjective onto S5
    assert all(len(v) == 16 for v in by_perm.values())


def test_cycle_signature_examples():
    five = SignedPerm((1, 2, 3, 4, 0), (-1, 1, 1, 1, 1))
    sig = CycleSignature.from_signed_perm(five)
    assert sig.cycles == ((5, -1),)
    assert sig.trace_power(1) == 0
    assert sig.trace_power(5) == -5
    assert CycleSignature.trivial().trace_power(1) == 5
    mixed = CycleSignature(((2, 1), (2, -1), (1, -1)))
    # contributions at k=2: 2*(+1), 2*(-1), 1*(-1)^2
    assert mixed.trace_power(2) == 1


def test_trace_power_against_matrix_power():
    import numpy as np
    from test_picard import signed_perm_matrix
    rng = random.Random(3)
    B5 = all_signed_perms()
    for _ in range(200):
        a = rng.choice(B5)
        sig = CycleSignature.from_signed_perm(a)
        M = signed_perm_matrix(a)
        for k in (1, 2, 3, 4, 5, 6):
            assert sig.trace_power(k) == int(np.trace(
                np.linalg.matrix_power(M, k)))


def representative(sig: CycleSignature) -> SignedPerm:
    """A signed permutation with this signature (minus sign on the closing step)."""
    perm = []
    signs = []
    for length, sign in sig.cycles:
        base = len(perm)
        perm.extend(base + (j + 1) % length for j in range(length))
        signs.extend([1] * length)
        if sign == -1:
            signs[base] = -1  # closing step base+length-1 -> base carries the flip
    return SignedPerm(tuple(perm), tuple(signs))


def test_signature_representative_round_trip():
    rng = random.Random(4)
    B5 = all_signed_perms()
    for _ in range(200):
        sig = CycleSignature.from_signed_perm(rng.choice(B5))
        assert CycleSignature.from_signed_perm(representative(sig)) == sig


def test_signature_canonical_sorting_and_validation():
    sig = CycleSignature(((1, -1), (2, 1), (2, -1)))
    assert sig.cycles == ((2, 1), (2, -1), (1, -1))
    with pytest.raises(ValueError):
        CycleSignature(((0, 1),))
    with pytest.raises(ValueError):
        CycleSignature(((2, 3),))


def test_index_encoding_matches_composition():
    rng = random.Random(5)
    perms, mask_apply, retract_mask = index_tables()
    B5 = all_signed_perms()
    for _ in range(300):
        a, b = rng.choice(B5), rng.choice(B5)
        pa, ma = divmod(signed_perm_index(a), 32)
        mb = signed_perm_index(b) % 32
        ab = a.compose(b)  # the permutation part; the mask part is encoded
        composed = 32 * perms.index(ab.perm) + (ma ^ mask_apply[pa, mb])
        assert signed_perm_from_index(int(composed)) == ab
        ra = 32 * pa + retract_mask[ma]
        assert signed_perm_from_index(int(ra)) == retract(a)


def test_index_tables_hold_every_composition_and_retract():
    # every entry, against SignedPerm.compose and the retract rule written out
    perms, mask_apply, retract_mask = index_tables()
    for pa, perm in enumerate(perms):
        lifted = SignedPerm(perm, (1,) * 5)
        for mb in range(32):
            ab = lifted.compose(SignedPerm(E.perm, tuple(1 - 2 * (mb >> j & 1) for j in range(5))))
            assert ab.perm == perm
            assert sum(1 << j for j in range(5) if ab.signs[j] == -1) == mask_apply[pa, mb]
    assert retract_mask.tolist() == [m ^ 31 if bin(m).count("1") % 2 else m for m in range(32)]
    for rows in hyperoct._element_table():
        with pytest.raises(ValueError):
            rows[0, 0] = 0


def all_pairs_retract_violations(perms, mask_apply, retract_mask):
    """The all-pairs oracle: retract(ab) against retract(a) retract(b) as
    encoded elements, for each of the 3840^2 pairs (a, b), 256 left factors
    at a time."""
    pindex = {p: i for i, p in enumerate(perms)}
    perm_mul = np.array([[pindex[tuple(pa[i] for i in pb)] for pb in perms] for pa in perms])
    idx = np.arange(3840)
    pall, mall = idx // 32, idx % 32
    bad = 0
    for start in range(0, 3840, 256):
        pa = pall[start:start + 256, None]
        ma = mall[start:start + 256, None]
        pab = perm_mul[pa, pall[None, :]]
        lhs = 32 * pab + retract_mask[ma ^ mask_apply[pa, mall[None, :]]]
        rhs = 32 * pab + (retract_mask[ma] ^ mask_apply[pa, retract_mask[mall[None, :]]])
        bad += int(np.count_nonzero(lhs != rhs))
    return bad


def test_retract_violation_count_matches_the_all_pairs_oracle():
    perms, mask_apply, retract_mask = index_tables()
    assert retract_homomorphism_violations(mask_apply, retract_mask) == 0
    # a planted fault: two masks retract to the wrong even mask
    faulty = retract_mask.copy()
    faulty[3], faulty[7] = 5, 1
    bad = retract_homomorphism_violations(mask_apply, faulty)
    assert bad == all_pairs_retract_violations(perms, mask_apply, faulty) == 2557440


def fiber_pairs(aut_p):
    """The fiber product built pair by pair: each element of aut_p with every
    even signed permutation over its S5 image."""
    return [(a, m) for m, perm in aut_p for a in even_signed_perms() if a.perm == perm]


def test_fiber_product_sizes():
    mid = Moebius.identity(QQ)
    trivial = [(mid, tuple(range(5)))]
    assert fiber_product_order(trivial) == len(fiber_pairs(trivial)) == 16
    swap = Moebius(QQ, QQ(-1), QQ(3), QQ(0), QQ(1))
    order2 = [(mid, (0, 1, 2, 3, 4)), (swap, (0, 4, 3, 2, 1))]
    assert fiber_product_order(order2) == len(fiber_pairs(order2)) == 32


def test_fiber_product_closed_under_composition():
    mid = Moebius.identity(QQ)
    swap = Moebius(QQ, QQ(-1), QQ(3), QQ(0), QQ(1))
    aut = [(mid, (0, 1, 2, 3, 4)), (swap, (0, 4, 3, 2, 1))]
    fp = fiber_pairs(aut)
    keys = set(fp)
    assert len(keys) == fiber_product_order(aut)
    for a, m in fp:
        for b, n in fp:
            assert (a.compose(b), m.compose(n)) in keys


def test_fiber_product_requires_identity():
    swap = Moebius(QQ, QQ(-1), QQ(3), QQ(0), QQ(1))
    with pytest.raises(ValueError):
        fiber_product_order([(swap, (0, 4, 3, 2, 1))])


def test_fiber_product_rejects_non_closed_input():
    mid = Moebius.identity(QQ)
    cyc = Moebius(QQ, QQ(1), QQ(1), QQ(0), QQ(1))  # arbitrary carriers
    with pytest.raises(InvalidGroupInputError):
        fiber_product_order([(mid, (0, 1, 2, 3, 4)), (cyc, (1, 2, 0, 3, 4))])


_IDENTITY_IMAGE = (Moebius.identity(QQ), (0, 1, 2, 3, 4))


@pytest.mark.parametrize("call,error,message", [
    (lambda: SignedPerm((0, 1, 1, 3, 4), (1,) * 5), ValueError, "invalid signed permutation"),
    (lambda: SignedPerm((0, 1, 2, 3, 4), (1,) * 4), ValueError, "invalid signed permutation"),
    (lambda: SignedPerm((0, 1, 2, 3, 4), (1, 1, 0, 1, 1)), ValueError,
     "signs must be +1 or -1"),
    (lambda: fiber_product_order([_IDENTITY_IMAGE, _IDENTITY_IMAGE]), InvalidGroupInputError,
     "aut_p is not a group: repeated S5 image")])
def test_refusals_give_their_exact_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
