"""Exact narrow arithmetic on the cluster path.

The cluster's kernels add in the narrowest integer dtype that each one's
worst-case sum allows (field.accumulator_dtype), while the API keeps int64.
These tests drive every narrow kernel with all-(q-1) inputs against
references in Python ints, pin the dtype chosen at the edges, and check
that the narrow path writes, ships, rebuilds and decodes exactly what the
int64 path does, at the smallest valid q, at 257 and at 32,749, the
largest prime the field allows.
"""

from dataclasses import replace

import numpy as np
import pytest

from hadamard_msr import codec
from hadamard_msr.cli import main
from hadamard_msr.cluster import ClusterState, read_segment, write_segment
from hadamard_msr.codec import coding_matrix, search_params
from hadamard_msr.field import accumulator_dtype
from hadamard_msr.repair import STRATEGIES, build_repair_plan, execute_repair

from conftest import erasure_patterns

I32, I64 = np.dtype(np.int32), np.dtype(np.int64)


def moduli(k):
    """The smallest q search_params(k) picks, 257 and 32,749."""
    return (search_params(k).q, 257, 32749)


def sylvester_mod(v, q):
    """The Sylvester-Hadamard transform of a list of ints, mod q, by
    butterflies in Python ints."""
    v, h = list(v), 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return [x % q for x in v]


def ref_parities(params, parts):
    """Both parities of one codeword's parts (k lists of N ints)."""
    q = params.q
    diags = [coding_matrix(params, i + 1).tolist() for i in range(params.k)]
    first = [sum(column) % q for column in zip(*parts)]
    second = [sum(d[j] * row[j] for d, row in zip(diags, parts)) % q for j in range(params.n)]
    return [first, second]


def ref_payload(plan, helper, row):
    """What `helper` ships for one row of N ints, from the plan's fields."""
    q, m = plan.params.q, plan.helper_matrices[helper]
    pre = plan.premultiply.get(helper)
    pre = [1] * plan.params.n if pre is None else pre.tolist()
    standard = [
        (pre[f] * row[f] + m.second_sign * pre[s] * row[s]) % q
        for f, s in zip(m.first.tolist(), m.second.tolist())
    ]
    return sylvester_mod(standard, q) if plan.strategy == "original" else standard


def ref_recover(plan, payloads):
    """The failed node's N symbols from one codeword's payloads (lists of
    N/2 ints, in combine order): the Sylvester ones taken back to the
    standard basis, then u1 = P_seed1 + c sum P_l and u2 = P_seed2 + c sum
    B_l P_l over the cancel nodes l, then each pair's 2x2 recover block."""
    q, half = plan.params.q, plan.params.n // 2
    if plan.strategy == "original":
        inv = pow(half, q - 2, q)
        payloads = [[x * inv % q for x in sylvester_mod(p, q)] for p in payloads]
    got = dict(zip((*plan.seeds, *plan.cancel_nodes), payloads))
    c, pairs = plan.cancel_sign, plan.helper_matrices[plan.seeds[0]]
    out = [None] * plan.params.n
    for j in range(half):
        cancel = plan.cancel_nodes
        u1 = got[plan.seeds[0]][j] + c * sum(got[l][j] for l in cancel)
        u2 = got[plan.seeds[1]][j] + c * sum(int(plan.cancel_diagonals[l][j]) * got[l][j] for l in cancel)
        (w11, w12), (w21, w22) = plan.recover_blocks[j].tolist()
        out[pairs.first[j]] = (w11 * u1 + w12 * u2) % q
        out[pairs.second[j]] = (w21 * u1 + w22 * u2) % q
    return out


def ref_decode_rows(params, word, alive):
    """Each compiled decode row (erased rows, then syndromes) of one
    codeword (k+2 lists of N ints), summed in Python ints."""
    erased, parities, weights = codec._decode_map(params, alive)
    rows = [
        [sum(w[s][j] * word[s][j] for s in range(params.k + 2)) % params.q for j in range(params.n)]
        for w in weights.tolist()
    ]
    return erased, rows


def test_accumulator_edges():
    assert accumulator_dtype(0) == accumulator_dtype(2**31 - 1) == I32
    assert accumulator_dtype(2**31) == accumulator_dtype(2**40) == I64


def test_dtypes_at_the_edges():
    # q = 32,749: the download's 2 (q-1)**2 = 2,144,863,008 still fits int32,
    # a parity's 3 (q-1)**2 and every recover sum do not
    wide = search_params(3, 32749)
    assert 2 * 32748**2 == 2_144_863_008 < 2**31 < 3 * 32748**2
    assert codec.parities(wide, np.zeros((1, 3, wide.n), np.uint16)).dtype == I64
    assert codec.word_dtype(wide) == I64
    # q = 257: every kernel's sum fits int32 at k = 3
    small = search_params(3, 257)
    assert codec.parities(small, np.zeros((1, 3, small.n), np.uint8)).dtype == I32
    assert codec.word_dtype(small) == I32
    for strategy in STRATEGIES:
        for node in range(1, 6):
            plan = build_repair_plan(wide, node, strategy)
            assert (plan.narrow.download_dtype, plan.narrow.recover_dtype) == (I32, I64)
            assert (plan.compiled.download_dtype, plan.compiled.recover_dtype) == (I64, I64)
            narrow = build_repair_plan(small, node, strategy).narrow
            assert (narrow.download_dtype, narrow.recover_dtype) == (I32, I32)
    # the API's tables stay int64 whatever q is
    assert codec.encode(small, np.zeros((3, small.n), np.uint8)).dtype == I64
    assert codec.parities(small, np.zeros((1, 3, small.n), np.int64)).dtype == I64


# k = 5 is the first k whose parity at q = 32,749 would wrap an int32 on
# these inputs; at k = 3 int64 is chosen by the bound, not by the data
@pytest.mark.parametrize("k", [2, 3, 5])
class TestOverflowGuard:
    """Every narrow kernel on all-(q-1) inputs equals a Python-int sum."""

    def test_parities(self, k):
        for q in moduli(k):
            p = search_params(k, q)
            parts = np.full((2, k, p.n), q - 1, dtype=np.uint16)
            got = codec.parities(p, parts)
            assert got.dtype == accumulator_dtype(k * (q - 1) ** 2)
            assert got.tolist() == [ref_parities(p, parts[0].tolist())] * 2, q

    def test_complete_word(self, k):
        for q in moduli(k):
            p = search_params(k, q)
            for gone in erasure_patterns(k)[1:]:
                alive = tuple(m for m in range(1, k + 3) if m not in gone)
                word = np.zeros((2, k + 2, p.n), dtype=codec.word_dtype(p))
                word[:, [m - 1 for m in alive]] = q - 1
                erased, rows = ref_decode_rows(p, word[0].tolist(), alive)
                if any(map(any, rows[len(erased) :])):
                    with pytest.raises(ValueError, match="inconsistent"):
                        codec.complete_word(p, word, alive)
                else:
                    codec.complete_word(p, word, alive)
                # the rebuilt rows are written before the syndromes are tested
                for r, node in enumerate(erased):
                    assert word[1, node - 1].tolist() == rows[r], (q, gone)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_download_and_recover(self, k, strategy):
        for q in moduli(k):
            p = search_params(k, q)
            words = np.full((2, k + 2, p.n), q - 1, dtype=np.uint16)
            for node in range(1, k + 3):
                plan = build_repair_plan(p, node, strategy)
                run = plan.narrow
                want = [ref_payload(plan, h, [q - 1] * p.n) for h in run.order]
                stacked = run.download(words)
                assert stacked.dtype == run.download_dtype
                assert stacked.tolist() == [want] * 2, (q, node)
                for h, payload in zip(run.order, want):
                    shipped = plan.helper_payload(h, words[:, h - 1])
                    assert shipped.tolist() == [payload] * 2, (q, node, h)
                stack = np.full((2, k + 1, p.n // 2), q - 1, dtype=run.recover_dtype)
                rebuilt = run.recover(stack)
                assert rebuilt.dtype == run.recover_dtype
                full = [[q - 1] * (p.n // 2)] * (k + 1)
                assert rebuilt.tolist() == [ref_recover(plan, full)] * 2, (q, node)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_references_repair_a_codeword(self, k, strategy):
        # the references are the code's maps: on a real codeword they
        # rebuild the failed row
        p = search_params(k, 257)
        word = codec.encode(p, np.random.default_rng(k).integers(0, p.q, (k, p.n))).tolist()
        assert word[k:] == ref_parities(p, word[:k])
        for node in range(1, k + 3):
            plan = build_repair_plan(p, node, strategy)
            shipped = [ref_payload(plan, h, word[h - 1]) for h in plan.compiled.order]
            assert ref_recover(plan, shipped) == word[node - 1], node


@pytest.mark.parametrize("k", range(2, 11))
def test_narrow_path_matches_int64(tmp_path, k):
    """Segments, helper payloads, repaired rows, decoded bytes and counts
    of the narrow path against the int64 API on three chunks, the last one
    padded."""
    rng = np.random.default_rng(k)
    for q in moduli(k):
        p = search_params(k, q)
        data = rng.integers(0, 256, 3 * p.chunk_bytes - 1, dtype=np.uint8).tobytes()
        blocks = codec.chunk_file(data, p)
        assert blocks.dtype == np.uint8 and blocks.shape[0] == 3
        words = codec.encode_blocks(p, blocks)  # the int64 reference
        parities = codec.parities(p, blocks)
        assert np.array_equal(parities, words[:, k:])
        stored = {}
        for node in range(1, k + 3):
            path = tmp_path / f"node-{node}.seg"
            write_segment(path, p, node, words[:, node - 1])
            want = path.read_bytes()
            rows = blocks[:, node - 1] if node <= k else parities[:, node - k - 1]
            write_segment(path, p, node, rows)
            assert path.read_bytes() == want, (q, node)
            stored[node] = read_segment(path, p, node, 3)
        for strategy in STRATEGIES:
            for node in range(1, k + 3):
                plan = build_repair_plan(p, node, strategy)
                run = plan.narrow
                payloads = [plan.helper_payload(h, stored[h]) for h in run.order]
                for h, payload in zip(run.order, payloads):
                    assert payload.dtype == run.download_dtype
                    assert np.array_equal(payload, plan.helper_payload(h, words[:, h - 1]))
                stack = np.empty((3, k + 1, p.n // 2), dtype=run.recover_dtype)
                for i, payload in enumerate(payloads):
                    stack[:, i] = payload
                rebuilt = run.recover(stack)
                assert np.array_equal(rebuilt, execute_repair(plan, words)), (q, node)
                assert np.array_equal(rebuilt, words[:, node - 1]), (q, node)
                assert plan.cost() == replace(plan).cost()
        for gone in erasure_patterns(k):
            alive = tuple(m for m in range(1, k + 3) if m not in gone)
            word = np.zeros((3, k + 2, p.n), dtype=codec.word_dtype(p))
            for m in alive:
                word[:, m - 1] = stored[m]
            codec.complete_word(p, word, alive)
            assert np.array_equal(word, codec.decode(p, {m: words[:, m - 1] for m in alive}))
            assert codec.unchunk(word[:, :k], len(data), p) == data


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cli_round_trip_matches_int64_segments(tmp_path, k, capsys):
    """hmsr encode, kill, repair and decode: every segment is the one the
    int64 rows of encode_blocks write, before and after repair."""
    data = np.random.default_rng(k).integers(0, 256, 3001, dtype=np.uint8).tobytes()
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    for q in (None, 257):
        root = tmp_path / f"cluster-{q}"
        q_args = [] if q is None else ["--q", str(q)]
        assert main(["encode", str(src), str(root), "--k", str(k), *q_args]) == 0
        state = ClusterState.load(root)
        p = state.params
        words = codec.encode_blocks(p, codec.chunk_file(data, p))
        want = {}
        for node in range(1, k + 3):
            reference = tmp_path / "reference.seg"
            write_segment(reference, p, node, words[:, node - 1])
            want[node] = reference.read_bytes()
            assert state.segment_path(node).read_bytes() == want[node], (q, node)
        for node, strategy in [(2, "new"), (k + 2, "original"), (1, "original"), (k + 1, "new")]:
            assert main(["kill", str(root), str(node)]) == 0
            assert main(["repair", str(root), str(node), "--strategy", strategy]) == 0
            assert state.segment_path(node).read_bytes() == want[node], (q, node, strategy)
        for node in (1, k + 2):
            assert main(["kill", str(root), str(node)]) == 0
        out = tmp_path / "decoded.bin"
        assert main(["decode", str(root), "--out", str(out)]) == 0
        assert out.read_bytes() == data
    capsys.readouterr()
