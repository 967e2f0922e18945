"""Code parameters, diagonal coding matrices, encoding, and erasure decoding.

A (k+2, k) code over F_q stores k data parts f_1..f_k of N = 2**(k+1)
symbols each, plus two parities: f_{k+1} = sum f_i and f_{k+2} = sum A_i f_i
with diagonal coding matrices A_i = a_i X_i + b_i X_0 + I.  The coefficient
constraints make every A_i entrywise invertible and every difference
A_i - A_j entrywise nonzero, which is exactly what two-erasure decoding
needs.  Any two node failures are recoverable.

Decoding is linear and diagonal per symbol position, so each erasure
pattern compiles once into per-position weights over the surviving rows
(_decode_map); a decode call is then one weighted sum that rebuilds the
missing rows and tests every surviving parity's syndrome.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .design import sign_vector
from .field import PrimeField, is_prime

# Coefficient sets for the demo profiles, chosen so operation-count reports
# are directly comparable across runs.  Format: k -> (q, a, b).
DEMO_COEFFICIENTS = {
    2: (7, (1, 1), (3, 4)),
    3: (11, (2, 2, 6), (7, 4, 2)),
}


def _cross_compatible(q: int, ai: int, bi: int, aj: int, bj: int) -> bool:
    """True when s*a_i + t*a_j != +-(b_i - b_j) (mod q) for all signs s, t.

    Negating s and t together negates the sum, so the four sign choices
    reduce to a_i + a_j and a_i - a_j; neither may square to (b_i - b_j)**2,
    and over a field that is one nonzero product.
    """
    d2 = (bi - bj) ** 2
    return ((ai + aj) ** 2 - d2) * ((ai - aj) ** 2 - d2) % q != 0


def coefficient_violations(k: int, q: int, a, b) -> list[str]:
    """All constraint violations of a candidate coefficient set, as messages.

    The constraints: a_i, b_i nonzero; a_i**2 - b_i**2 = -1 (mod q); and for
    every i != j and signs s, t in {+1, -1}, s*a_i + t*a_j != +-(b_i - b_j)
    (mod q).  The cross constraint is what keeps A_i - A_j entrywise nonzero.
    """
    problems = []
    a = [int(v) % q for v in a]
    b = [int(v) % q for v in b]
    if len(a) != k or len(b) != k:
        problems.append(f"need {k} coefficients, got {len(a)} a and {len(b)} b")
        return problems
    for i in range(k):
        if a[i] == 0:
            problems.append(f"a_{i + 1} is zero")
        if b[i] == 0:
            problems.append(f"b_{i + 1} is zero")
        if (a[i] * a[i] - b[i] * b[i]) % q != q - 1:
            problems.append(f"a_{i + 1}^2 - b_{i + 1}^2 != -1 (mod {q})")
    for i in range(k):
        for j in range(i + 1, k):
            if not _cross_compatible(q, a[i], b[i], a[j], b[j]):
                problems.append(
                    f"s*a_{i + 1} + t*a_{j + 1} = +-(b_{i + 1} - b_{j + 1}) "
                    f"(mod {q}) for some signs s, t"
                )
    return problems


def validate_coefficients(k: int, q: int, a, b) -> bool:
    return not coefficient_violations(k, q, a, b)


@dataclass(frozen=True)
class CodeParams:
    """Immutable parameters of one (k+2, k) code instance.

    Construction validates primality, the q >= 2k+3 range, and the full
    coefficient constraint set unless check=False (used to build broken
    instances on purpose, e.g. for negative rank-condition tests).
    """

    k: int
    q: int
    a: tuple
    b: tuple
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        object.__setattr__(self, "a", tuple(int(v) % self.q for v in self.a))
        object.__setattr__(self, "b", tuple(int(v) % self.q for v in self.b))
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        PrimeField(self.q)  # primality / oddness / size checks
        if check:
            if self.q < 2 * self.k + 3:
                raise ValueError(f"q={self.q} below 2k+3={2 * self.k + 3}")
            problems = coefficient_violations(self.k, self.q, self.a, self.b)
            if problems:
                raise ValueError("invalid coefficients: " + "; ".join(problems))

    @property
    def n(self) -> int:
        """Symbols per node."""
        return 1 << (self.k + 1)

    @property
    def nodes(self) -> int:
        return self.k + 2

    @property
    def chunk_bytes(self) -> int:
        """Input bytes per chunk: k*N symbols of bits_per_symbol(q) bits each,
        a whole number of bytes because N >= 8."""
        return self.k * self.n * bits_per_symbol(self.q) // 8

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.q)


def _candidate_pairs(q: int) -> list[tuple[int, int]]:
    """Every (a, b) in [1, q)^2 with a^2 - b^2 = -1 (mod q), in lexicographic
    order: for each a, the square roots b of a^2 + 1, ascending."""
    roots = [[] for _ in range(q)]
    for b in range(1, q):
        roots[b * b % q].append(b)
    return [(a, b) for a in range(1, q) for b in roots[(a * a + 1) % q]]


@lru_cache(maxsize=None)
def find_coefficients(k: int, q: int) -> tuple[tuple, tuple] | None:
    """First valid (a, b) assignment in deterministic search order.

    Depth-first over positions 1..k, trying candidate pairs in lexicographic
    (a_i, b_i) order, so the result is the lexicographically smallest valid
    (a_1, b_1, ..., a_k, b_k).  Compatibility is symmetric, so any ordering
    of a valid set is valid and the smallest one is ascending: each position
    tries only the pairs after the previous one, and every candidate set is
    visited once instead of in all k! of its orders.  Returns None when no
    assignment exists for this q.
    """
    if not is_prime(q) or q < 2 * k + 3:
        raise ValueError(f"q must be a prime >= 2k+3 = {2 * k + 3}, got {q}")
    pairs = _candidate_pairs(q)

    chosen: list[tuple[int, int]] = []

    def extend(start: int) -> bool:
        if len(chosen) == k:
            return True
        for i in range(start, len(pairs)):
            if all(_cross_compatible(q, *pairs[i], *c) for c in chosen):
                chosen.append(pairs[i])
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return tuple(p[0] for p in chosen), tuple(p[1] for p in chosen)


def search_params(k: int, q: int | None = None) -> CodeParams:
    """CodeParams for k, searching coefficients at q or at ascending primes.

    With q given, fails if no valid assignment exists there; otherwise scans
    odd primes upward from 2k+3 until one admits an assignment.
    """
    if q is not None:
        found = find_coefficients(k, q)
        if found is None:
            raise ValueError(f"no valid coefficients exist for k={k}, q={q}")
        return CodeParams(k, q, *found)
    candidate = 2 * k + 3
    while candidate < 1 << 15:
        if is_prime(candidate):
            found = find_coefficients(k, candidate)
            if found is not None:
                return CodeParams(k, candidate, *found)
        candidate += 2
    raise ValueError(f"no usable modulus found for k={k}")


def demo_params(k: int) -> CodeParams:
    if k not in DEMO_COEFFICIENTS:
        raise ValueError(f"no demo profile for k={k} (have {sorted(DEMO_COEFFICIENTS)})")
    q, a, b = DEMO_COEFFICIENTS[k]
    return CodeParams(k, q, a, b)


@lru_cache(maxsize=None)
def _coding_diagonals(params: CodeParams) -> np.ndarray:
    x0 = sign_vector(0, params.k)
    rows = [
        (params.a[i] * sign_vector(i + 1, params.k) + params.b[i] * x0 + 1) % params.q
        for i in range(params.k)
    ]
    out = np.stack(rows)
    out.flags.writeable = False
    return out


def coding_matrix(params: CodeParams, i: int) -> np.ndarray:
    """Diagonal of A_i = a_i X_i + b_i X_0 + I as a length-N vector, 1 <= i <= k."""
    if not 1 <= i <= params.k:
        raise ValueError(f"coding matrix index {i} out of range, k={params.k}")
    return _coding_diagonals(params)[i - 1]


def inverse_coding_matrix(params: CodeParams, i: int) -> np.ndarray:
    """Entrywise inverse diagonal of A_i; errors if any entry is zero."""
    return params.field.inv_vec(coding_matrix(params, i))


def _with_parities(params: CodeParams, parts: np.ndarray) -> np.ndarray:
    """Append both parities to reduced parts of shape (..., k, N)."""
    parity1 = parts.sum(axis=-2, keepdims=True) % params.q
    parity2 = (_coding_diagonals(params) * parts).sum(axis=-2, keepdims=True) % params.q
    return np.concatenate([parts, parity1, parity2], axis=-2)


def encode(params: CodeParams, parts) -> np.ndarray:
    """Full codeword (k+2, N) from systematic parts (k, N)."""
    parts = np.asarray(parts, dtype=np.int64) % params.q
    if parts.shape != (params.k, params.n):
        raise ValueError(f"parts must have shape {(params.k, params.n)}, got {parts.shape}")
    return _with_parities(params, parts)


def encode_blocks(params: CodeParams, blocks) -> np.ndarray:
    """Vectorized encode of many chunks: (chunks, k, N) -> (chunks, k+2, N)."""
    blocks = np.asarray(blocks, dtype=np.int64) % params.q
    if blocks.ndim != 3 or blocks.shape[1:] != (params.k, params.n):
        raise ValueError(
            f"blocks must have shape (chunks, {params.k}, {params.n}), got {blocks.shape}"
        )
    return _with_parities(params, blocks)


@lru_cache(maxsize=None)
def _decode_map(params: CodeParams, alive: tuple) -> tuple:
    """Compiled decode from the survivors `alive` (sorted node ids):
    (erased, parities, weights).

    Decoding is linear, and diagonal per symbol position, so each erased
    node and each surviving parity's syndrome (recomputed minus stored) is
    the row sum_s weights[r, s] * x[s] over the codeword rows x: r runs over
    `erased`, then over `parities`; erased rows carry zero weight.  The
    weights come from running the closed-form solve once on unit probes,
    survivor b set to all ones in batch slot b: missing parities by
    re-encoding, one missing systematic from either parity, two by entrywise
    2x2 elimination against both parities.
    """
    k, q, n = params.k, params.q, params.n
    probes = np.repeat(np.eye(len(alive), dtype=np.int64)[:, :, None], n, axis=-1)
    data = {node: probes[:, b] for b, node in enumerate(alive)}
    missing = [i for i in range(1, k + 1) if i not in data]
    if len(missing) == 1:
        (i,) = missing
        others = [l for l in range(1, k + 1) if l != i]
        if k + 1 in data:
            acc = data[k + 1].copy()
            for l in others:
                acc -= data[l]
            data[i] = acc % q
        else:
            acc = data[k + 2].copy()
            for l in others:
                acc -= coding_matrix(params, l) * data[l]
            data[i] = inverse_coding_matrix(params, i) * acc % q
    elif len(missing) == 2:
        i, j = missing
        rhs1 = data[k + 1].copy()
        rhs2 = data[k + 2].copy()
        for l in range(1, k + 1):
            if l in data:
                rhs1 -= data[l]
                rhs2 -= coding_matrix(params, l) * data[l]
        rhs1 %= q
        rhs2 %= q
        # per-position system [[1, 1], [A_i[t], A_j[t]]]; the cross
        # constraints keep the determinant A_j[t] - A_i[t] nonzero
        ai = coding_matrix(params, i)
        aj = coding_matrix(params, j)
        det_inv = params.field.inv_vec(aj - ai)
        fj = (rhs2 - ai * rhs1) * det_inv % q
        data[j] = fj
        data[i] = (rhs1 - fj) % q
    word = _with_parities(params, np.stack([data[i] for i in range(1, k + 1)], axis=-2))

    erased = tuple(node for node in range(1, k + 3) if node not in alive)
    parities = tuple(node for node in (k + 1, k + 2) if node in alive)
    outputs = [node - 1 for node in erased + parities]
    weights = np.zeros((len(outputs), k + 2, n), dtype=np.int64)
    weights[:, [node - 1 for node in alive]] = word[:, outputs].swapaxes(0, 1)
    for r, node in enumerate(parities, start=len(erased)):
        weights[r, node - 1] -= 1
    weights %= q
    weights.flags.writeable = False
    return erased, parities, weights


def decode(params: CodeParams, available: dict) -> np.ndarray:
    """Full codewords from any >= k surviving nodes.

    `available` maps node ids (1-based; parities are k+1 and k+2) to rows of
    one shared shape (..., N), one per codeword; returns (..., k+2, N).  Up
    to two missing nodes are reconstructed.  Each erasure pattern compiles
    once (_decode_map) into weights over the reduced rows, so a call is one
    weighted sum that yields the missing rows and every surviving parity's
    syndrome.  A nonzero syndrome raises; for stacked rows the message names
    the first bad row (over the flattened leading axes) as the failing chunk.
    """
    k, q, n = params.k, params.q, params.n
    if len(available) < k:
        raise ValueError(f"need at least {k} nodes to decode, got {len(available)}")
    rows = {}
    for node, vec in available.items():
        if not 1 <= node <= k + 2:
            raise ValueError(f"unknown node id {node}")
        rows[node] = np.asarray(vec)
    shape = rows[node].shape  # the last node's; every node must match it
    if shape[-1:] != (n,) or any(v.shape != shape for v in rows.values()):
        raise ValueError(f"every node's rows must have one shape (..., {n})")

    erased, parities, weights = _decode_map(params, tuple(sorted(rows)))
    word = np.zeros(shape[:-1] + (k + 2, n), dtype=np.int64)
    for node, v in rows.items():
        word[..., node - 1, :] = v
    word %= q
    out = np.einsum("...st,rst->...rt", word, weights)
    out %= q
    for r, node in enumerate(erased):
        word[..., node - 1, :] = out[..., r, :]
    # the first flag set lies in the lowest row, there in parity k+1 first
    bad = out[..., len(erased) :, :] != 0
    if bad.any():
        chunk, col = divmod(int(bad.argmax()), len(parities) * n)
        msg = f"surviving node {parities[col // n]} is inconsistent with decoded data"
        raise ValueError(msg if word.ndim == 2 else f"chunk {chunk} failed to decode: {msg}")
    return word


def bits_per_symbol(q: int) -> int:
    """Packing width: whole bytes when the field allows, else floor(log2 q)."""
    if q > 255:
        return 8
    return int(q).bit_length() - 1


def chunk_file(data: bytes, params: CodeParams) -> np.ndarray:
    """Pack bytes into (chunks, k, N) int64 symbol blocks.

    The bytes are zero-padded to whole chunks of params.chunk_bytes, and
    their bits are read MSB-first in groups of bits_per_symbol(q), so every
    symbol value stays below 2**bits <= q.
    """
    bits = bits_per_symbol(params.q)
    raw = np.frombuffer(data, dtype=np.uint8)
    padded = np.pad(raw, (0, -raw.size % params.chunk_bytes))
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.uint8)
    symbols = np.unpackbits(padded).reshape(-1, bits) @ weights  # uint8: sums <= 255
    return symbols.astype(np.int64).reshape(-1, params.k, params.n)


def unchunk(blocks, original_length: int, params: CodeParams) -> bytes:
    """Invert chunk_file given the original byte length.

    Rejects symbol values that no packed byte stream could produce, which
    catches corrupted or mis-decoded blocks before they round-trip silently.
    Each checked symbol is narrowed to one byte and its low `bits` bits are
    repacked MSB-first.
    """
    bits = bits_per_symbol(params.q)
    blocks = np.asarray(blocks, dtype=np.int64)
    limit = min(1 << bits, params.q)
    if blocks.size * bits < original_length * 8:
        raise ValueError("not enough symbols for the recorded length")
    if blocks.size and (blocks.min() < 0 or blocks.max() >= limit):
        raise ValueError("corrupt symbol stream: value out of packing range")
    symbols = blocks.astype(np.uint8).reshape(-1, 1) << (8 - bits)
    bitstream = np.unpackbits(symbols, axis=-1, count=bits)
    return np.packbits(bitstream)[:original_length].tobytes()
