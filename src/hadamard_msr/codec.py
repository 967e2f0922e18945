"""Code parameters, diagonal coding matrices, encoding, and erasure decoding.

A (k+2, k) code over F_q stores k data parts f_1..f_k of N = 2**(k+1)
symbols each, plus two parities: f_{k+1} = sum f_i and f_{k+2} = sum A_i f_i
with diagonal coding matrices A_i = a_i X_i + b_i X_0 + I.  The coefficient
constraints make every A_i entrywise invertible and every difference
A_i - A_j entrywise nonzero, which is exactly what two-erasure decoding
needs.  Any two node failures are recoverable.

Decoding is linear and diagonal per symbol position, so each erasure
pattern compiles once (_decode_map), by eliminating the erased columns from
the two parity checks, into per-position weights over the surviving rows;
a decode call is then one weighted sum that rebuilds the missing rows and
tests the syndrome of each parity check left over.

encode_blocks and decode reduce their input mod q once and then run the
kernels with_parities and complete_word, which take rows that are already
in F_q; the cluster commands call those kernels (and parities, the encode
kernel's core) directly, since their symbols are in range by construction
(chunk_file) or by check (read_segment).

Each kernel sums products of symbols before it reduces mod q, and adds in
the narrowest exact dtype that its worst-case sum allows
(field.accumulator_dtype): k (q-1)**2 for a parity and (k+2) (q-1)**2 for a
rebuilt row or syndrome.  On int64 rows, which is what the API entry points
hand them, the kernels run on int64 tables instead, so an API call never
mixes dtypes; on stored rows (chunk_file's uint8 symbols, read_segment's
uint8 or uint16 ones) the tables are in the accumulator dtype, and numpy
widens the stored symbols only to it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .design import sign_vector
from .field import PrimeField, accumulator_dtype, is_prime

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


@lru_cache(maxsize=None)
def search_params(k: int, q: int | None = None) -> CodeParams:
    """CodeParams for k, searching coefficients at q or at ascending primes.

    With q given, fails if no valid assignment exists there; otherwise scans
    odd primes upward from 2k+3 until one admits an assignment.  The result
    is memoized, so the full coefficient check runs once per (k, q); a
    failing (k, q) raises and is not cached, so it raises on every call.
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


def profile_params(k: int, q: int | None = None) -> CodeParams:
    """The code that (k, q) names: the demo profile when k has one and q is
    omitted or is its modulus, else search_params(k, q)."""
    if k in DEMO_COEFFICIENTS and q in (None, DEMO_COEFFICIENTS[k][0]):
        return demo_params(k)
    return search_params(k, q)


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


@lru_cache(maxsize=None)
def _parity_tables(params: CodeParams, wide: bool) -> tuple:
    """The encode kernel's tables (ones (k,), coding diagonals (k, N)):
    int64 for int64 parts, else in the accumulator of a parity's sum,
    k (q-1)**2."""
    dtype = np.int64 if wide else accumulator_dtype(params.k * (params.q - 1) ** 2)
    tables = np.ones(params.k, dtype), _coding_diagonals(params).astype(dtype)
    for table in tables:
        table.flags.writeable = False
    return tables


def parities(params: CodeParams, parts: np.ndarray) -> np.ndarray:
    """Encode kernel: both parities (..., 2, N) of parts (..., k, N) whose
    symbols already lie in [0, q), in int64 for int64 parts and otherwise in
    the accumulator dtype of _parity_tables.  Each parity is one product by
    a row of ones, which sums over the k parts faster than .sum(axis=-2)
    at every batch size and adds in the tables' dtype."""
    ones, diag = _parity_tables(params, parts.dtype == np.int64)
    out = np.empty(parts.shape[:-2] + (2, params.n), dtype=diag.dtype)
    np.matmul(ones, parts, out=out[..., 0, :])
    np.matmul(ones, diag * parts, out=out[..., 1, :])
    out %= params.q
    return out


def with_parities(params: CodeParams, parts: np.ndarray) -> np.ndarray:
    """Encode kernel: append both parities to parts (..., k, N) whose
    symbols already lie in [0, q)."""
    return np.concatenate([parts, parities(params, parts)], axis=-2)


def encode(params: CodeParams, parts) -> np.ndarray:
    """Full codeword (k+2, N) from systematic parts (k, N)."""
    parts = np.asarray(parts, dtype=np.int64) % params.q
    if parts.shape != (params.k, params.n):
        raise ValueError(f"parts must have shape {(params.k, params.n)}, got {parts.shape}")
    return with_parities(params, parts)


def encode_blocks(params: CodeParams, blocks) -> np.ndarray:
    """Vectorized encode of many chunks: (chunks, k, N) -> (chunks, k+2, N)."""
    blocks = np.asarray(blocks, dtype=np.int64) % params.q
    if blocks.ndim != 3 or blocks.shape[1:] != (params.k, params.n):
        raise ValueError(
            f"blocks must have shape (chunks, {params.k}, {params.n}), got {blocks.shape}"
        )
    return with_parities(params, blocks)


def word_dtype(params: CodeParams) -> np.dtype:
    """The decode kernel's accumulator on stored rows: a rebuilt row or a
    syndrome sums k+2 products of two symbols, at most (k+2) (q-1)**2."""
    return accumulator_dtype((params.k + 2) * (params.q - 1) ** 2)


@lru_cache(maxsize=None)
def _decode_map(params: CodeParams, alive: tuple, wide: bool = True) -> tuple:
    """Compiled decode from the survivors `alive` (sorted node ids):
    (erased, parities, weights), the weights in int64 when `wide` and in
    word_dtype(params) otherwise.

    Decoding is linear, and diagonal per symbol position, so each erased
    node and each checked parity's syndrome (recomputed minus stored) is
    the row sum_s weights[r, s] * x[s] over the codeword rows x: r runs over
    `erased`, then over `parities`; erased rows carry zero weight.  The
    weights come from eliminating the erased columns, in ascending node
    order, from the parity checks [1 .. 1, -1, 0] and [A_1 .. A_k, 0, -1]
    entrywise: a column pivots on the first unused row nonzero there, whose
    normalized row gives x_e = -(its surviving terms); a row never used as a
    pivot is its parity's syndrome.  A zero pivot, which the cross
    constraints rule out, raises ZeroDivisionError.
    """
    if not wide:
        erased, parities, weights = _decode_map(params, alive, True)
        weights = weights.astype(word_dtype(params))
        weights.flags.writeable = False
        return erased, parities, weights
    k, q = params.k, params.q
    checks = np.zeros((2, k + 2, params.n), dtype=np.int64)
    checks[0, :k] = 1
    checks[1, :k] = _coding_diagonals(params)
    checks[0, k] = checks[1, k + 1] = q - 1
    erased = tuple(node for node in range(1, k + 3) if node not in alive)
    free, pivots = [0, 1], []
    for col in (node - 1 for node in erased):
        # with no row nonzero in this column, free[0]'s zero pivot raises
        pivot = next((r for r in free if checks[r, col].any()), free[0])
        free.remove(pivot)
        pivots.append(pivot)
        checks[pivot] = checks[pivot] * params.field.inv_vec(checks[pivot, col]) % q
        checks[1 - pivot] = (checks[1 - pivot] - checks[1 - pivot, col] * checks[pivot]) % q
    weights = np.concatenate([-checks[pivots], checks[free]]) % q
    weights[:, [node - 1 for node in erased]] = 0
    weights.flags.writeable = False
    return erased, tuple(k + 1 + r for r in free), weights


def decode(params: CodeParams, available: dict) -> np.ndarray:
    """Full codewords from any >= k surviving nodes.

    `available` maps node ids (1-based; parities are k+1 and k+2) to rows of
    one shared shape (..., N), one per codeword; returns (..., k+2, N) int64.
    Up to two missing nodes are reconstructed.  The rows are checked, stacked
    into one int64 word and reduced mod q once; complete_word then rebuilds
    the missing rows and tests the syndromes.
    """
    k, n = params.k, params.n
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

    word = np.zeros(shape[:-1] + (k + 2, n), dtype=np.int64)
    for node, v in rows.items():
        word[..., node - 1, :] = v
    word %= params.q
    return complete_word(params, word, tuple(sorted(rows)))


def complete_word(params: CodeParams, word: np.ndarray, alive: tuple) -> np.ndarray:
    """Decode kernel: rebuild the erased rows of `word` in place; returns it.

    `word` is (..., k+2, N), int64 (decode's) or of the dtype the cluster
    allocates, word_dtype(params), and its rows for the surviving nodes
    `alive` (sorted ids, at least k) hold symbols in [0, q); the other rows
    are overwritten.  The erasure pattern compiles once (_decode_map) into
    weights, in int64 for an int64 word and in word_dtype(params) for any
    other, so a call is one weighted sum that yields the missing rows and
    the syndrome of each parity that can flag.  A nonzero syndrome raises;
    for stacked rows the message names the first bad row (over the
    flattened leading axes) as the failing chunk.
    """
    n = params.n
    erased, parities, weights = _decode_map(params, alive, word.dtype == np.int64)
    out = np.einsum("...st,rst->...rt", word, weights)
    out %= params.q
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
    """Pack bytes into (chunks, k, N) uint8 symbol blocks.

    The bytes are zero-padded to whole chunks of params.chunk_bytes, and
    their bits are read MSB-first in groups of bits_per_symbol(q), so every
    symbol value stays below 2**bits <= q and fits one byte.  At 8 bits a
    symbol is one byte, and the blocks are the padded bytes themselves.
    """
    bits = bits_per_symbol(params.q)
    raw = np.frombuffer(data, dtype=np.uint8)
    padded = np.zeros(-(-raw.size // params.chunk_bytes) * params.chunk_bytes, dtype=np.uint8)
    padded[: raw.size] = raw
    if bits == 8:
        return padded.reshape(-1, params.k, params.n)
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.uint8)
    symbols = np.unpackbits(padded).reshape(-1, bits) @ weights  # uint8: sums <= 255
    return symbols.reshape(-1, params.k, params.n)


def unchunk(blocks, original_length: int, params: CodeParams) -> bytes:
    """Invert chunk_file given the original byte length.

    Rejects symbol values that no packed byte stream could produce, which
    catches corrupted or mis-decoded blocks before they round-trip silently.
    The check runs in the blocks' own dtype, and only then is each symbol
    narrowed to one byte; at 8 bits that byte is the output, and below it
    the symbol's low `bits` bits are repacked MSB-first.
    """
    bits = bits_per_symbol(params.q)
    blocks = np.asarray(blocks)
    limit = min(1 << bits, params.q)
    if blocks.size * bits < original_length * 8:
        raise ValueError("not enough symbols for the recorded length")
    if blocks.size and (blocks.min() < 0 or blocks.max() >= limit):
        raise ValueError("corrupt symbol stream: value out of packing range")
    symbols = blocks.astype(np.uint8)
    if bits == 8:
        return symbols.reshape(-1)[:original_length].tobytes()
    symbols <<= 8 - bits
    bitstream = np.unpackbits(symbols.reshape(-1, 1), axis=-1, count=bits)
    return np.packbits(bitstream)[:original_length].tobytes()
