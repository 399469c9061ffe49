"""The point-count kernel: a numpy enumeration on precomputed field tables.

It is an exact integer computation, table gathers on encoded field elements.
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

    Every point but (0:0:0:0:1) lies on one fibre: a point of P^3, first
    nonzero coordinate 1, with t = x4 free; there a form is a t^2 + L t + C,
    a the coefficient of x4^2.  The pair is first replaced by one with the
    same common zeros and a = 0 in Q_A (Q_A and Q_B swapped when only Q_A has
    an x4^2 term, b Q_A - a Q_B and Q_B when both have), so Q_B is tested at
    the root of Q_A only.  Per chunk of (x2, x3), quad, u = M02 x2 + M03 x3,
    v = M12 x2 + M13 x3 and lin are built once and u is folded into quad once:
    a prefix (x0, x1) reads C = s + quad + x0 u + x1 v, s + x1 v one read of v,
    and L = l0 + lin.  root[C q + L] = q (-C / L), or q^2 where L = 0, indexes
    the (q + 1) x q table hit[t q + L] = -t (L + b t) whose last row, -1,
    matches no encoded value: Q_B vanishes at the root of Q_A where
    hit[root[C_A q + L_A] + L_B] == C_B.  Where C_A q + L_A == 0, Q_A vanishes
    for every t, and a q x q table tallied from hit counts the roots of Q_B.
    Arrays hold at most q^2 entries; x + y of two arrays is one read of add.ravel()[x q + y].
    """
    q = len(add)
    addf, mulf, addqf = add.ravel(), mul.ravel(), add.ravel() * q
    neg, inv = np.argmin(add, axis=1), np.argmax(mul == 1, axis=1)  # -e, and 1 / e for e != 0
    e, square = np.arange(q), mul.diagonal()

    def comb(terms):
        """Sum of c * v over (c, v), c an encoded scalar, shaped as the last v."""
        acc = np.zeros(np.shape(terms[-1][1]), np.int64)
        for c, v in terms:
            if c:
                acc = addf[acc * q + mul[c][v]]
        return acc

    def chunk(cells):
        """Per form, [q quad, u, v, lin] on the fibres over (x2, x3) = divmod(cells, q)."""
        (y2, y3), y23 = np.divmod(cells, q), mulf[cells]
        return [[comb([(M[2, 2], square[y2]), (M[2, 3], y23), (M[3, 3], square[y3])]) * q,
                 *(comb([(M[i, 2], y2), (M[i, 3], y3)]) for i in (0, 1)),
                 comb([(M[2, 4], y2), (M[3, 4], y3)])] for M in (CA, CB)]

    def prefixes(M, x0, x1s):
        """Per x1 in x1s, the table of s + x1 v on v, and the list of l0."""
        s = comb([(M[0, 0], mul[x0, x0]), (M[0, 1], mul[x0][x1s]), (M[1, 1], square[x1s])])
        return add[s[:, None], mul[x1s]], comb([(M[0, 4], x0), (M[1, 4], x1s)]).tolist()

    a, b = CA[4, 4], CB[4, 4]
    if a and not b:
        CA, CB, b = CB, CA, a
    elif a:
        CA = addf[mul[b][CA] * q + neg[mul[a][CB]]]
    root = np.where(e > 0, mul[neg][:, inv] * q, q * q).ravel()
    hit = np.append(mulf[(neg * q)[:, None] + add[mul[b]]], np.full(q, -1))
    nroots = np.bincount((hit[:q * q].reshape(q, q) + e * q).ravel(), minlength=q * q)
    total = int(b == 0)  # the point (0:0:0:0:1)
    for cells, rows in ((np.arange(q * q), ([1], e)),                  # every (x2, x3)
                        (np.append(np.arange(q, 2 * q), 1), ([0],))):  # (1, *), (0, 1)
        (baseA, uA, vA, linA), (baseB, uB, vB, linB) = chunk(cells)
        for x0, x1s in enumerate(rows):
            if x0:  # q quad -> q (quad + u), once per chunk
                baseA, baseB, uA, uB = addqf[baseA + uA], addqf[baseB + uB], None, None
            pA, pB = (prefixes(M, x0, x1s) for M in (CA, CB))
            for TA, lA, TB, lB in zip(*pA, *pB):
                idx = addqf[baseA + TA[vA]] + add[lA][linA]          # C_A q + L_A
                C, L = addf[baseB + TB[vB]], add[lB][linB]
                z = (idx == 0).nonzero()[0]                          # Q_A = 0 for every t
                total += np.count_nonzero(hit[root[idx] + L] == C)
                total += sum(nroots[L[z] * q + C[z]].tolist())      # cheaper than .sum() here
    return int(total)

