"""Hot inner loops as numpy kernels on precomputed field tables.

Both kernels are exact integer computations: table gathers on encoded field
elements and on signed-permutation indices.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Projective point counting: common zeros of two quadratic forms on P^4(F_q)
# ---------------------------------------------------------------------------
# CA, CB are 5x5 int64 matrices of encoded field scalars with c[i][j] (i <= j)
# the coefficient of x_i x_j; entries below the diagonal are unused.  add/mul
# are the q x q encoded-arithmetic tables of a field of odd characteristic,
# and q is read from them; the encoded zero and one are 0 and 1.


def count_zero_pairs(CA, CB, add, mul):
    """Number of points of P^4(F_q) where both encoded quadratic forms vanish.

    Every point but (0:0:0:0:1) lies on exactly one fibre: a point
    (x0:x1:x2:x3) of P^3, scaled so that its first nonzero coordinate is 1,
    with t = x4 free.  On a fibre a form is a t^2 + L t + C with a constant
    a, the coefficient of x4^2.  The pair is first replaced by one with the
    same common zeros whose first form has a = 0: Q_A and Q_B swapped when
    only Q_A has an x4^2 term, b Q_A - a Q_B and Q_B when both have.  So on
    every fibre Q_A is linear in t, its one root is -C / L and Q_B is tested
    there only, as t (L + b t) == -C, whether or not the pencil has x4^2
    terms.  On fibres where Q_A vanishes for every t the roots of
    b t^2 + L t + C are counted: for b != 0, 2 where (L / 2b)^2 - C / b is a
    nonzero square and 1 where it is 0; for b = 0, 1 where L != 0 and q where
    L = C = 0.  Fibres are taken in chunks of fixed (x0, x1), so every array
    holds at most q^2 entries.  A read x + y of two arrays is one 1-D gather
    add.ravel()[x * q + y], half the cost of add[x, y]; -C / L is one read
    of a q x q quotient table.  The tables stay int64: int32, int16 and
    uint8 gathers are no faster.
    """
    q = len(add)
    addf, mulf = add.ravel(), mul.ravel()
    neg = np.argmin(add, axis=1)        # add[e, neg[e]] == 0
    inv = np.argmax(mul == 1, axis=1)   # mul[e, inv[e]] == 1 for e != 0
    quot = mulf[neg[:, None] * q + inv].ravel()  # quot[c * q + l] == -c / l, l != 0
    e, square = np.arange(q), mul.diagonal()
    is_square = np.isin(e, square)

    def comb(terms, acc=0):
        """acc + sum of c * v over (c, v) with c an encoded scalar."""
        for c, v in terms:
            if c:
                acc = addf[acc * q + mul[c][v]]
        return acc

    def restrict(M, x0, x1, y2, y3, quad, lin):
        """(C, L) of the form M on the fibres over (x0, x1, y2, y3), given
        the parts quad and lin that depend on (y2, y3) only."""
        s = comb([(M[0, 0], mul[x0, x0]), (M[0, 1], mul[x0, x1]), (M[1, 1], mul[x1, x1])])
        k2 = comb([(M[0, 2], x0), (M[1, 2], x1)])
        k3 = comb([(M[0, 3], x0), (M[1, 3], x1)])
        l0 = comb([(M[0, 4], x0), (M[1, 4], x1)])
        return comb([(k2, y2), (k3, y3)], add[s][quad]), add[l0][lin]

    a, b = CA[4, 4], CB[4, 4]
    if a and not b:
        CA, CB, b = CB, CA, a
    elif a:
        CA = addf[mul[b][CA] * q + neg[mul[a][CB]]]
    grid = np.divmod(np.arange(q * q), q)                          # every (x2, x3)
    tail = (np.append(np.ones(q, np.int64), 0), np.append(e, 1))  # (1, *), (0, 1)
    total = int(b == 0)  # the point (0:0:0:0:1)
    for (y2, y3), prefixes in ((grid, [(1, c) for c in range(q)] + [(0, 1)]),
                               (tail, [(0, 0)])):
        zero = np.zeros_like(y2)
        y22, y23, y33 = square[y2], mulf[y2 * q + y3], square[y3]
        quadA, quadB = (comb([(M[2, 2], y22), (M[2, 3], y23), (M[3, 3], y33)], zero)
                        for M in (CA, CB))
        linA, linB = (comb([(M[2, 4], y2), (M[3, 4], y3)], zero) for M in (CA, CB))
        for x0, x1 in prefixes:
            CfA, LA = restrict(CA, x0, x1, y2, y3, quadA, linA)
            CfB, LB = restrict(CB, x0, x1, y2, y3, quadB, linB)
            t = quot[CfA * q + LA]
            total += np.count_nonzero((LA != 0) & (mulf[t * q + addf[LB * q + mul[b][t]]]
                                                   == neg[CfB]))
            every = (LA == 0) & (CfA == 0)
            if every.any():
                L, C = LB[every], CfB[every]
                if b:
                    h = mul[inv[add[b, b]]][L]                          # L / 2b
                    d = addf[square[h] * q + neg[mul[inv[b]][C]]]       # h^2 - C / b
                    total += 2 * np.count_nonzero(is_square[d]) - np.count_nonzero(d == 0)
                else:
                    total += np.count_nonzero(L) + q * np.count_nonzero((L == 0) & (C == 0))
    return int(total)


# ---------------------------------------------------------------------------
# Exhaustive retract homomorphism check over all 3840^2 composable pairs
# ---------------------------------------------------------------------------

def retract_homomorphism_violations(mask_apply, retract_mask):
    """Count of pairs (a, b) in B5 x B5 with retract(ab) != retract(a) retract(b).
    For a = (pa, ma), b = (pb, mb) both sides have the permutation pa pb, and
    their masks do not involve pb: each failing (pa, ma, mb) counts 120 times."""
    ma = np.arange(32)[:, None]
    failing = 0
    for apply in mask_apply:  # one pa at a time, so the temporaries are 32 x 32
        lhs = retract_mask[ma ^ apply]
        failing += np.count_nonzero(lhs != retract_mask[ma] ^ apply[retract_mask])
    return len(mask_apply) * failing
