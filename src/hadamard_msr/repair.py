"""Single-node repair: matrices, plans, execution and cost.

Every repair downloads exactly N/2 symbols from each of the k+1 surviving
nodes: helper l applies a half-height repair matrix to its content (for the
second parity's repair, after scaling by its own coding diagonal) and ships
the result.  The repairer then runs two phases: interference cancellation,
which collapses the k+1 payloads into two half-vectors u1, u2 tied to the
failed node's content alone, and recover, which inverts the stacked relation
[S; S~ D] to rebuild all N symbols.

Two strategies compute the same functionals from the same plan: a plan's
fields are its standard-basis form under either strategy, and only
`strategy` tells them apart.  The "new" one keeps payloads in the standard
basis, where every repair-matrix row has two +-1 entries; the "original"
one ships them in the Sylvester-Hadamard basis: each download is the
standard payload followed by one fast transform.  On paper its cancellation
and recovery turn dense (the plan's diagonals and blocks taken through the
change of basis), and RepairPlan.cost() counts that published schedule per
phase in closed form from the plan's constants alone, building no N x N
table; it is the only source of counts.

Execution is uncounted and runs tables compiled once per plan
(RepairPlan.compiled) on rows of shape (..., N), one per chunk, through two
kernels.  CompiledRepair.download is the helper's side: one helper's rows
through RepairPlan.helper_payload (what the cluster's helpers run on their
stored segments), or all k+1 helpers' rows of codewords at once, as one
take of a flat gather table, one entrywise product with a scale table and
one sum of the two gathered halves.  CompiledRepair.recover is the
repairer's side, over the payloads stacked (..., k+1, N/2) in combine
order, whether execute_repair downloaded them or the cluster's helpers
shipped them: one pair-sparse product that cancels and recovers at once,
after one inverse transform under "original", whose basis lives only on the
wire; no table there has over (k+1) N entries.  The API repairs one small
codeword per call, so both kernels use ndarray methods and in-place
operators, which skip the dispatch layer of the np.* wrappers.

A plan compiles its tables twice, once per kind of row.  RepairPlan.compiled
holds them in int64 for int64 rows, which is what execute_repair and the
API's helper_payload calls see, so those calls never mix dtypes.
RepairPlan.narrow holds them for stored rows, the cluster's, in the
narrowest dtype each kernel's worst-case sum allows
(field.accumulator_dtype): the download adds two products of two symbols,
2 (q-1)**2, and under "original" its transform sums N/2 reduced symbols,
(N/2) (q-1); recover sums k+1 products, (k+1) (q-1)**2 under "new", and
(k+1) (N/2) (q-1)**2 under "original", whose inverse transform reaches the
pair product unreduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codec import CodeParams, coding_matrix, inverse_coding_matrix
from .design import fast_hadamard_apply, hadamard_factors, kron_rows, lemma2_partner
from .field import accumulator_dtype

STRATEGIES = ("new", "original")


@dataclass(frozen=True, eq=False)
class RepairMatrix:
    """Half-height matrix whose row m is e_first[m] + second_sign e_second[m].

    The rows pair up the N columns, each column in one row, first[m] <
    second[m], with +1 on the first column and one uniform sign on every
    second, so applying it is one signed sum of paired columns.  This is the
    standard-basis form; in the Sylvester basis a helper applies H times it,
    with H the Sylvester matrix of order N/2.
    """

    first: np.ndarray
    second: np.ndarray
    second_sign: int

    @property
    def rows(self) -> int:
        return self.first.size

    def dense(self, q: int | None = None) -> np.ndarray:
        """Dense rows x N form; over the integers when q is omitted."""
        m = np.arange(self.rows)
        out = np.zeros((self.rows, 2 * self.rows), dtype=np.int64)
        out[m, self.first] = 1
        out[m, self.second] = self.second_sign
        return out if q is None else out % q


def systematic_repair_matrix(k: int, i: int) -> RepairMatrix:
    """Repair matrix of systematic node i: pairs columns j and j + 2^i."""
    if not 1 <= i <= k:
        raise ValueError(f"systematic index {i} out of range for k={k}")
    m = np.arange(1 << k, dtype=np.int64)
    first = (m >> i << (i + 1)) + (m & ((1 << i) - 1))
    return RepairMatrix(first, first + (1 << i), 1)


def parity1_repair_matrices(k: int) -> tuple[RepairMatrix, RepairMatrix]:
    """Matrices (S, S~) for the first parity: pairs columns j and N-1-j."""
    m = np.arange(1 << k, dtype=np.int64)
    second = (2 << k) - 1 - m
    return RepairMatrix(m, second, 1), RepairMatrix(m, second, -1)


def parity2_repair_matrices(k: int) -> tuple[RepairMatrix, RepairMatrix]:
    """Matrices (S, S~) for the second parity: pairs j with lemma2_partner(j)."""
    m = np.arange(1 << k, dtype=np.int64)
    second = np.array([lemma2_partner(j, 2 << k) for j in m], dtype=np.int64)
    return RepairMatrix(m, second, 1), RepairMatrix(m, second, -1)


@dataclass(frozen=True)
class CompiledRepair:
    """A plan's execution tables, derived once from the plan's fields.

    The helpers are the seeds followed by the cancel nodes (combine order),
    and all of them pair the same columns `first`/`second`, so the k+1
    downloads are one stacked signed sum.  `gather` (2, k+1, N/2) indexes a
    codeword flattened to (k+2) N symbols: entry [t, i, m] is helper
    order[i]'s symbol at column (first, second)[t][m], so one take gathers
    every helper's two halves.  `scale` (2, k+1, N/2) multiplies them
    entrywise, folding in each helper's premultiply and second sign (None
    where all ones).

    Cancel and recover fold into one pair-sparse map over standard-basis
    payloads P (..., k+1, N/2): payload position m feeds only the outputs
    first[m] and second[m], so both are pair_weights[m] @ P[..., :, m], and
    `unpair` puts the pairs back in column order.  In the Sylvester basis
    `hadamard` holds hadamard_factors(N/2), the Kronecker factors of H, the
    Sylvester matrix of order N/2 (None in the standard basis): H itself
    where it fits the table bound (k <= 3), so each transform is one
    matmul, and its balanced split above.  The download ends in H, and
    recover starts with it, since H^-1 = H / (N/2) and the 1/(N/2) is folded
    into `pair_weights`.  Every partial sum stays below (k+1) (N/2) q^2, and
    no table has more than (k+1) N entries.

    The download adds in `download_dtype`, to which it widens the gathered
    symbols and in which `scale` and `hadamard` are held; recover adds in
    `recover_dtype`, the dtype of `pair_weights` and of the stack it expects,
    never narrower than `download_dtype`, so its transform by `hadamard`
    runs in it too.  Both are int64 in a plan's `compiled` tables and each
    kernel's accumulator dtype in its `narrow` ones (see the module
    docstring).

    Both kernels are called once per repaired codeword on the API path, so
    they are written as a few whole-array steps through ndarray methods and
    in-place operators (`@`, `.take`, `*=`, `%=`); the np.* wrappers cost
    a dispatch layer per step that is most of a small call's time.
    """

    q: int
    order: tuple
    download_dtype: np.dtype
    recover_dtype: np.dtype
    gather: np.ndarray
    scale: np.ndarray | None
    first: np.ndarray
    second: np.ndarray
    pair_weights: np.ndarray
    unpair: np.ndarray
    hadamard: tuple | None

    def download(self, x, helper=None) -> np.ndarray:
        """The one download kernel: x at `first` times scale[0] plus x at
        `second` times scale[1] mod q, then in the Sylvester basis H times
        every payload row, mod q.

        With `helper` None, x holds codewords (..., k+2, N) and the result is
        every helper's payload, stacked in combine order (..., k+1, N/2).
        With `helper` an index into the combine order, x holds that helper's
        rows (..., N) and the result is its payload (..., N/2).  Only the
        gathered symbols are widened to download_dtype, so x may stay in its
        stored dtype; they must lie in [0, q) unless the dtype is int64.
        """
        dtype = self.download_dtype
        if helper is None:
            # the width is named: reshape(..., -1) cannot size zero chunks
            flat = x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])
            both = flat.take(self.gather, axis=-1)
            if both.dtype != dtype:
                both = both.astype(dtype)
            if self.scale is not None:
                both *= self.scale
            a = both[..., 0, :, :]
            a += both[..., 1, :, :]
        else:
            # one half at a time: widening the first before gathering the
            # second keeps a single narrow half alive on stored segments
            a = x.take(self.first, axis=-1)
            if a.dtype != dtype:
                a = a.astype(dtype)
            b = x.take(self.second, axis=-1)
            if b.dtype != dtype:
                b = b.astype(dtype)
            if self.scale is not None:
                a *= self.scale[0, helper]
                b *= self.scale[1, helper]
            a += b
            del b
        a %= self.q
        if self.hadamard is None:
            return a
        out = kron_rows(a, self.hadamard)
        out %= self.q
        return out

    def recover(self, payloads: np.ndarray) -> np.ndarray:
        """The one recover kernel: cancel interference and recover the failed
        node's symbols (..., N) from payloads (..., k+1, N/2) stacked in
        combine order, in recover_dtype, which it never writes into."""
        lead, half = payloads.shape[:-2], payloads.shape[-1]
        if self.hadamard is not None:
            payloads = kron_rows(payloads, self.hadamard)
        pairs = self.pair_weights @ payloads.swapaxes(-1, -2)[..., None]
        pairs %= self.q
        return pairs.reshape(*lead, 2 * half).take(self.unpair, axis=-1)


def _compile(plan: RepairPlan, wide: bool) -> CompiledRepair:
    """The plan's execution tables: in int64 when `wide`, else each kernel's
    in the accumulator dtype of its worst-case sum."""
    q, n = plan.params.q, plan.params.n
    if wide:
        download_dtype = recover_dtype = np.dtype(np.int64)
    else:
        # under "original" the transforms sum N/2 terms: the helper's over
        # reduced symbols, the repairer's, unreduced, into the pair product
        spread = n // 2 if plan.strategy == "original" else 1
        download_dtype = accumulator_dtype(max(2 * (q - 1) ** 2, spread * (q - 1)))
        recover_dtype = accumulator_dtype((plan.params.k + 1) * spread * (q - 1) ** 2)
    order = (*plan.seeds, *plan.cancel_nodes)
    if sorted(order) != sorted(plan.helper_matrices):
        raise ValueError("the helpers must be the seeds and the cancel nodes")
    matrices = [plan.helper_matrices[node] for node in order]
    m = matrices[0]
    for other in matrices:
        if not (np.array_equal(other.first, m.first) and np.array_equal(other.second, m.second)):
            raise ValueError("every helper must pair the same columns")
    # gather reads a codeword flattened to (k+2) N symbols; the same indices
    # read each helper's premultiply from the rows of one such table
    offsets = np.array([(node - 1) * n for node in order])[:, None]
    gather = offsets + np.stack([m.first, m.second])[:, None, :]
    ones = np.ones(n, dtype=np.int64)
    pre = np.array([plan.premultiply.get(node, ones) for node in range(1, plan.params.k + 3)])
    signs = np.array([[1] * len(order), [other.second_sign for other in matrices]])
    scale = (pre.ravel()[gather] * signs[..., None]).astype(download_dtype)
    if (scale == 1).all():
        scale = None

    # u1 = P_seed1 + c P_l and u2 = P_seed2 + c B_l P_l over the cancel nodes
    # l, out[first] = w11 u1 + w12 u2 and out[second] = w21 u1 + w22 u2, so
    # cancel node l's payload carries c (w_t1 + w_t2 B_l) in slot t
    c, r = plan.cancel_sign, plan.recover_blocks
    b = np.array([plan.cancel_diagonals[l] for l in plan.cancel_nodes]).T[:, None, :]
    pair_weights = np.concatenate([r, c * (r[..., :1] + r[..., 1:] * b)], axis=-1) % q
    hadamard = None
    if plan.strategy == "original":
        hadamard = tuple(h.astype(download_dtype, copy=False) for h in hadamard_factors(n // 2))
        pair_weights = pair_weights * plan.params.field.inv(n // 2) % q
    unpair = np.empty(n, dtype=np.intp)
    unpair[m.first] = np.arange(0, n, 2)
    unpair[m.second] = np.arange(1, n, 2)
    return CompiledRepair(
        q=q,
        order=order,
        download_dtype=download_dtype,
        recover_dtype=recover_dtype,
        gather=gather,
        scale=scale,
        first=m.first,
        second=m.second,
        pair_weights=pair_weights.astype(recover_dtype, copy=False),
        unpair=unpair,
        hadamard=hadamard,
    )


@dataclass(frozen=True)
class RepairPlan:
    """Everything needed to rebuild one failed node from helper payloads.

    The fields hold the plan in the standard basis under either strategy;
    `strategy` alone says whether payloads travel in that basis ("new") or
    in the Sylvester one ("original").  `helper_matrices` maps each helper
    node to the repair matrix it applies, and `premultiply` maps a helper
    that first scales its rows entrywise (the second parity's repair) to that
    diagonal.  Cancel node l's payload reaches u2 through the diagonal
    `cancel_diagonals[l]`, and `recover_blocks[m]` is the 2x2 inverse taking
    (u1[m], u2[m]) to the failed node's symbols at the pair of columns of
    row m.  `compiled` and `narrow`, its execution tables for int64 and for
    stored rows, and cost()'s counts are derived from the fields on first
    use and kept; a plan made with dataclasses.replace derives its own.  No
    array a plan holds, derived or not, has more than (k+1) N entries.
    """

    params: CodeParams
    failed: int
    strategy: str
    helper_matrices: dict
    premultiply: dict
    seeds: tuple
    cancel_nodes: tuple
    cancel_diagonals: dict
    cancel_sign: int
    recover_blocks: np.ndarray

    @cached_property
    def compiled(self) -> CompiledRepair:
        """Execution tables for int64 rows (the API's), all in int64."""
        return _compile(self, wide=True)

    @cached_property
    def narrow(self) -> CompiledRepair:
        """Execution tables for stored rows (the cluster's), each kernel's
        in its accumulator dtype."""
        return _compile(self, wide=False)

    @property
    def downloaded_symbols(self) -> int:
        return (self.params.k + 1) * self.params.n // 2

    def helper_payload(self, node: int, rows) -> np.ndarray:
        """The N/2 symbols helper `node` ships for each of its rows (..., N);
        returns (..., N/2).  int64 rows run the int64 tables (`compiled`);
        rows in any other integer dtype, such as a stored segment's, must
        hold symbols in [0, q) and run the `narrow` ones."""
        if node not in self.helper_matrices:
            raise ValueError(f"node {node} is not a helper for this repair")
        x = np.asarray(rows)
        if x.shape[-1:] != (self.params.n,):
            raise ValueError(f"rows must have shape (..., {self.params.n})")
        run = self.compiled if x.dtype == np.int64 else self.narrow
        return run.download(x, helper=run.order.index(node))

    def cost(self) -> dict:
        """Per-phase (adds, muls) of repairing one chunk, from the plan alone;
        a fresh dict on every call over counts made once per plan."""
        return dict(self._counts)

    @cached_property
    def _counts(self) -> dict:
        """The counts behind cost().

        Adding or subtracting two symbols is one add.  A product with a plan
        constant is one mul unless the constant is 0, 1 or q-1 (scaling by
        zero, one or minus one is bookkeeping, not work).  A dense matrix
        times a vector sums each row's nonzero terms with nnz-1 adds, and a
        length-2^m fast transform costs m*2^m adds.  Counts never depend on
        the data a repair runs on.
        """
        q, n, k = self.params.q, self.params.n, self.params.k

        def muls(consts) -> int:
            c = np.asarray(consts) % q
            return c.size - int(np.count_nonzero((c <= 1) | (c == q - 1)))

        # each cancel node folds into u1 and u2: two length-N/2 sums, plus
        # its diagonal or dense matrix; under "original" the Sylvester
        # basis's dense cancel and recover tables are the published schedule,
        # a cost model like the download's count rather than a trace of the
        # executor, and their counts follow in closed form from the plan
        if self.strategy == "original":
            half = n // 2
            half_inv = self.params.field.inv(half)
            # H[r, m] H[m, c] = H[r ^ c, m], with H the Sylvester matrix of
            # order N/2, so (H B H^-1)[r, c] = v[r ^ c], v = (H b) / (N/2):
            # each of the table's N/2 rows is a permutation of v
            cancel = []
            for l in self.cancel_nodes:
                v = fast_hadamard_apply(self.cancel_diagonals[l], q) * half_inv % q
                cancel.append((half * max(int(np.count_nonzero(v)) - 1, 0), half * muls(v)))
            # row first[m] (slot t = 0) or second[m] (t = 1) of the recover
            # map R blockdiag(H^-1, H^-1) is [w[m, t, 0] h_m, w[m, t, 1] h_m],
            # w = R's blocks / (N/2) and h_m = +-1 row m of H; c is free
            # exactly when -c is, so the signs drop out
            w = self.recover_blocks * half_inv % q
            nnz = half * np.count_nonzero(w, axis=-1)
            recover = (int(np.maximum(nnz - 1, 0).sum()), half * muls(w))
            # the published schedule of two length-N/2 transforms (k*N/2
            # adds each) plus one signed combine, a cost model rather than a
            # trace of the download
            adds_per_row = 2 * k + 1
        else:
            cancel = [(0, muls(self.cancel_diagonals[l])) for l in self.cancel_nodes]
            recover = (n, muls(self.recover_blocks))
            adds_per_row = 1
        download = (
            sum(adds_per_row * m.rows for m in self.helper_matrices.values()),
            sum(muls(d) for d in self.premultiply.values()),
        )
        return {
            "download": download,
            "cancel": (n * len(cancel) + sum(a for a, _ in cancel), sum(m for _, m in cancel)),
            "recover": tuple(recover),
        }


def _plan_pieces(params: CodeParams, failed: int):
    """Matrices (S, S~), seeds, and cancel/recover diagonals per case; the
    second seed is the one helper that applies S~."""
    k = params.k
    alpha = [coding_matrix(params, l) for l in range(1, k + 1)]
    if 1 <= failed <= k:
        s = systematic_repair_matrix(k, failed)
        s_tilde = s
        seeds = (k + 1, k + 2)
        cancel_nodes = tuple(l for l in range(1, k + 1) if l != failed)
        diag_recover = alpha[failed - 1]
        interference = {l: alpha[l - 1] for l in cancel_nodes}
        cancel_sign = -1
    elif failed == k + 1:
        s, s_tilde = parity1_repair_matrices(k)
        seeds = (1, k + 2)
        cancel_nodes = tuple(range(2, k + 1))
        diag_recover = alpha[0]
        interference = {l: (alpha[0] - alpha[l - 1]) % params.q for l in cancel_nodes}
        cancel_sign = 1
    elif failed == k + 2:
        s, s_tilde = parity2_repair_matrices(k)
        seeds = (1, k + 1)
        cancel_nodes = tuple(range(2, k + 1))
        p = [inverse_coding_matrix(params, l) for l in range(1, k + 1)]
        diag_recover = p[0]
        interference = {l: (p[0] - p[l - 1]) % params.q for l in cancel_nodes}
        cancel_sign = 1
    else:
        raise ValueError(f"node id {failed} out of range 1..{k + 2}")
    return s, s_tilde, seeds, cancel_nodes, diag_recover, interference, cancel_sign


def _pair_blocks(s: RepairMatrix, s_tilde: RepairMatrix, diag: np.ndarray, q: int):
    """Row m of the stack [S; S~ D] ties (u1, u2)[m] to g at (first,
    second)[m] by the block [[1, s2], [c1, c2]], s2 the second sign of S;
    returns c1, c2 and the block determinants c2 - s2 c1, all mod q."""
    c1 = diag[s.first] % q
    c2 = s_tilde.second_sign * diag[s.second] % q
    return c1, c2, (c2 - s.second_sign * c1) % q


@lru_cache(maxsize=None)
def build_repair_plan(params: CodeParams, failed: int, strategy: str) -> RepairPlan:
    """Repair plan for one failed node; plans are cached and immutable.

    The cache keeps every plan asked for, at most 2 (k+2) per parameter set,
    and what bounds its size is the plan's: no array a plan holds, with its
    compiled tables and counts, has more than (k+1) N entries.

    Both strategies get the same standard-basis fields.  The interference
    diagonals B_l sample the case's difference diagonal at each row's first
    column; the recover blocks invert the stacked relation u1 = S g,
    u2 = (S~ D) g pairwise, one 2x2 block per row.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    q = params.q
    s, s_tilde, seeds, cancel_nodes, diag_recover, interference, cancel_sign = _plan_pieces(
        params, failed
    )
    helpers = {l: s for l in range(1, params.k + 3) if l != failed}
    helpers[seeds[1]] = s_tilde
    # the second parity's helpers scale their rows by their coding diagonal
    premultiply = {}
    if failed == params.k + 2:
        premultiply = {l: coding_matrix(params, l) for l in range(1, params.k + 1)}
    c1, c2, det = _pair_blocks(s, s_tilde, diag_recover, q)
    det_inv = params.field.inv_vec(det)
    adjugate = np.stack([c2, np.full_like(c2, -s.second_sign), -c1, np.ones_like(c2)], axis=-1)
    return RepairPlan(
        params=params,
        failed=failed,
        strategy=strategy,
        helper_matrices=helpers,
        premultiply=premultiply,
        seeds=seeds,
        cancel_nodes=cancel_nodes,
        cancel_diagonals={l: d[s.first] for l, d in interference.items()},
        cancel_sign=cancel_sign,
        recover_blocks=adjugate.reshape(-1, 2, 2) * det_inv[:, None, None] % q,
    )


def execute_repair(plan: RepairPlan, codewords) -> np.ndarray:
    """Rebuild the failed node's content from codewords (..., k+2, N) whose
    failed row is ignored; returns (..., N)."""
    n, width = plan.params.n, plan.params.k + 2
    word = np.asarray(codewords, dtype=np.int64)
    if word.shape[-2:] != (width, n):
        raise ValueError(f"codewords must have shape (..., {width}, {n})")
    run = plan.compiled
    return run.recover(run.download(word))
