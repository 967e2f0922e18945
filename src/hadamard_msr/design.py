"""Sign-vector combinatorics and the fast Sylvester-Hadamard transform.

The coding matrices of the codec are diagonal, built from sign vectors x_i
whose j-th entry is (-1)**floor(j / 2**i).  Two index relations drive the
repair schemes: shifting an index by 2**l flips the sign of x_i exactly when
i = l (the pairing of a systematic repair matrix), and the mirrored partner
N-1-j-(-1)**j flips every x_i except x_0 (lemma2_partner).  The
Sylvester-Hadamard matrix and its fast transform, two matmuls through a
Kronecker split, tie the standard basis to the alternative helper basis.
The transform only computes; the addition count of the published schedule
is charged once per repair plan by RepairPlan.cost().
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def sign_vector(i: int, k: int) -> np.ndarray:
    """Entries (-1)**floor(j / 2**i) for j in [0, 2**(k+1)), as +-1 ints."""
    if not 0 <= i <= k:
        raise ValueError(f"sign vector index {i} out of range for k={k}")
    j = np.arange(1 << (k + 1), dtype=np.int64)
    return 1 - 2 * ((j >> i) & 1)


def lemma2_partner(j: int, n: int) -> int:
    """Partner n-1-j-(-1)**j of an index j < n/2.

    The pairing satisfies sign_vector(0)[partner] = sign_vector(0)[j] and
    sign_vector(i)[partner] = -sign_vector(i)[j] for every i >= 1.
    """
    if not 0 <= j < n // 2:
        raise ValueError(f"partner defined for indices below {n // 2}, got {j}")
    return n - 1 - j - (1 if j % 2 == 0 else -1)


def sylvester(k: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order 2**k, entries +-1."""
    if k < 1:
        raise ValueError("order exponent must be at least 1")
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


@lru_cache(maxsize=None)
def hadamard_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Kronecker factors (H_(2**a), H_(2**(m-a))), a = m // 2, of
    the Sylvester matrix of order n = 2**m; a factor of order 1 is [[1]]."""
    m = n.bit_length() - 1
    one = np.ones((1, 1), dtype=np.int64)
    factors = tuple(sylvester(e) if e else one for e in (m // 2, m - m // 2))
    for h in factors:
        h.flags.writeable = False
    return factors


def kron_rows(z: np.ndarray, factors: tuple) -> np.ndarray:
    """kron(h_a, h_b.T) times each int64 row of z (..., n): reshaped to a
    block Z of h_a's by h_b's order, a row maps to h_a Z h_b.  With the
    symmetric factors of hadamard_factors(n) that is the Sylvester matrix."""
    h_a, h_b = factors
    return (h_a @ z.reshape(*z.shape[:-1], h_a.shape[0], h_b.shape[0]) @ h_b).reshape(z.shape)


def fast_hadamard_apply(z, q: int | None = None) -> np.ndarray:
    """Sylvester-Hadamard transform of each row of z, with no Python loop.

    Rows run along the last axis.  A row of length n = 2**m is split by
    H_(2**m) = H_(2**a) kron H_(2**(m-a)) (hadamard_factors): reshaped to a
    (2**a, 2**(m-a)) block Z, it maps to H_a Z H_b, two integer matmuls.
    With a modulus the input is reduced first, so every sum stays below
    2**m * q, and the output is reduced once; without one the transform
    runs over the integers.
    """
    z = np.asarray(z, dtype=np.int64)
    n = z.shape[-1] if z.ndim else 0
    if n == 0 or n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    if q is not None:
        z = z % q
    out = kron_rows(z, hadamard_factors(n))
    return out % q if q is not None else out
