"""Arithmetic in a prime field F_q: inverses and rank.

Symbols are canonical ints in [0, q).  Repair execution works on plain numpy
arrays reduced mod q; what a repair costs in field operations is a property
of its plan, counted once by RepairPlan.cost(), never during arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in (2, 3):
        if n % f == 0:
            return n == f
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@lru_cache(maxsize=None)
def _inverse_table(q: int) -> np.ndarray:
    table = np.zeros(q, dtype=np.int64)
    table[1:] = [pow(v, q - 2, q) for v in range(1, q)]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class PrimeField:
    """F_q for an odd prime q, 7 <= q < 2**15 so symbols fit 16-bit storage."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q) or self.q < 7:
            raise ValueError(f"modulus must be an odd prime >= 7, got {self.q}")
        if self.q >= 1 << 15:
            raise ValueError(f"modulus must be below 2**15, got {self.q}")

    def inv(self, x: int) -> int:
        x %= self.q
        if x == 0:
            raise ZeroDivisionError("division by zero")
        return pow(x, self.q - 2, self.q)

    def inv_vec(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64) % self.q
        if np.any(values == 0):
            raise ZeroDivisionError("division by zero")
        return _inverse_table(self.q)[values]

    def rank(self, matrix) -> int:
        a = np.array(matrix, dtype=np.int64) % self.q
        if a.ndim != 2:
            raise ValueError("rank needs a 2-d matrix")
        rows, cols = a.shape
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pivots = np.nonzero(a[r:, c])[0]
            if pivots.size == 0:
                continue
            p = r + int(pivots[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            a[r] = a[r] * self.inv(int(a[r, c])) % self.q
            below = np.nonzero(a[r + 1 :, c])[0] + r + 1
            if below.size:
                a[below] = (a[below] - a[below, c : c + 1] * a[r]) % self.q
            r += 1
        return r
