import itertools
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from hadamard_msr.codec import CodeParams, demo_params, encode, encode_blocks, search_params
from hadamard_msr.design import fast_hadamard_apply, sylvester
from hadamard_msr.field import PrimeField
from hadamard_msr.repair import (
    STRATEGIES,
    RepairPlan,
    _plan_pieces,
    build_repair_plan,
    execute_repair,
    parity1_repair_matrices,
    parity2_repair_matrices,
    systematic_repair_matrix,
)
from hadamard_msr.verify import verify_params, verify_rank_conditions

from conftest import params_for


def same(a, b) -> bool:
    """Deep equality over dataclasses, dicts, tuples and arrays (dtype too)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[x], b[x]) for x in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


# dense selector matrices for the k=2 code, frozen by hand: each row picks
# two coordinates of a length-8 node vector
S1_DENSE = np.array(
    [
        [1, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 1],
    ]
)
S2_DENSE = np.array(
    [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ]
)
P1_S_DENSE = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 1, 0, 0, 0],
    ]
)
P1_ST_DENSE = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, -1],
        [0, 1, 0, 0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0, -1, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0],
    ]
)
P2_S_DENSE = np.array(
    [
        [1, 0, 0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 1],
        [0, 0, 1, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 0, 0],
    ]
)
P2_ST_DENSE = np.array(
    [
        [1, 0, 0, 0, 0, 0, -1, 0],
        [0, 1, 0, 0, 0, 0, 0, -1],
        [0, 0, 1, 0, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, -1, 0, 0],
    ]
)


class TestSelectorMatricesK2:
    def test_systematic(self):
        assert np.array_equal(systematic_repair_matrix(2, 1).dense(), S1_DENSE)
        assert np.array_equal(systematic_repair_matrix(2, 2).dense(), S2_DENSE)

    def test_parity1_pair(self):
        s, s_tilde = parity1_repair_matrices(2)
        assert np.array_equal(s.dense(), P1_S_DENSE)
        assert np.array_equal(s_tilde.dense(), P1_ST_DENSE)

    def test_parity2_pair(self):
        s, s_tilde = parity2_repair_matrices(2)
        assert np.array_equal(s.dense(), P2_S_DENSE)
        assert np.array_equal(s_tilde.dense(), P2_ST_DENSE)


def all_matrices(k):
    out = [systematic_repair_matrix(k, i) for i in range(1, k + 1)]
    out.extend(parity1_repair_matrices(k))
    out.extend(parity2_repair_matrices(k))
    return out


class TestSelectorStructure:
    @pytest.mark.parametrize("k", range(2, 6))
    def test_every_coordinate_hit_twice(self, k):
        # the rows pair up the columns: every column in exactly one row, the
        # +1 column first, and the dense form has those two entries per row
        n = 1 << (k + 1)
        for m in all_matrices(k):
            assert m.first.shape == m.second.shape == (n // 2,)
            assert sorted(np.concatenate([m.first, m.second]).tolist()) == list(range(n))
            assert (m.first < m.second).all()
            assert m.second_sign in (-1, 1)
            dense = m.dense()
            assert (np.count_nonzero(dense, axis=1) == 2).all()
            assert (dense[np.arange(n // 2), m.first] == 1).all()
            assert (dense[np.arange(n // 2), m.second] == m.second_sign).all()

    @pytest.mark.parametrize("k", range(2, 6))
    def test_full_rank_over_rationals(self, k):
        # stacking the pair selectors for a node spans the whole space
        n = 1 << (k + 1)
        s, s_tilde = parity1_repair_matrices(k)
        stacked = np.vstack([s.dense(), s_tilde.dense()])
        assert np.linalg.matrix_rank(stacked.astype(float)) == n

    @pytest.mark.parametrize("basis_kind", ["standard", "sylvester"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_apply_matches_dense(self, k, basis_kind, rng, searched_params):
        # plan.helper_payload is (rows * premultiply) @ dense.T for every
        # helper of every plan, so both second-occurrence signs, on one row
        # and on a stack of rows, in the stored segment dtype, and with a
        # premultiply on every helper folded into the sum; the Sylvester
        # basis's dense form is H times the standard one
        params = params_for(k, searched_params) if k <= 6 else search_params(k, 19)
        q, n = params.q, params.n
        strategy = {"standard": "new", "sylvester": "original"}[basis_kind]
        signs = set()
        for node in range(1, k + 3):
            plan = build_repair_plan(params, node, strategy)
            pre = {h: rng.integers(1, q, size=n, dtype=np.int64) for h in plan.helper_matrices}
            scaled = replace(plan, premultiply=pre)
            dense = {}
            for h, m in plan.helper_matrices.items():
                signs.add(m.second_sign)
                if id(m) not in dense:
                    d = m.dense() if strategy == "new" else sylvester(k) @ m.dense()
                    dense[id(m)] = d % q
                d = dense[id(m)]
                own = plan.premultiply.get(h, 1)
                vec = rng.integers(0, q, size=n, dtype=np.int64)
                assert np.array_equal(plan.helper_payload(h, vec), d @ (vec * own) % q)
                rows = rng.integers(0, q, size=(3, n), dtype=np.int64)
                expected = rows * own @ d.T % q
                assert np.array_equal(plan.helper_payload(h, rows), expected), (node, h)
                assert np.array_equal(plan.helper_payload(h, rows.astype("<u2")), expected)
                assert np.array_equal(scaled.helper_payload(h, rows), rows * pre[h] @ d.T % q)
        assert signs == {1, -1}

    def test_download_cost_per_helper(self, searched_params):
        # standard basis: one add per output row; sylvester: the published
        # schedule of two length-N/2 transforms plus a combining pass, the
        # paper's cost model rather than a trace of the executed matmuls; no
        # helper multiplies when a systematic node fails
        for k in (2, 3, 4):
            params = params_for(k, searched_params)
            n, helpers = params.n, k + 1
            new = build_repair_plan(params, 1, "new").cost()["download"]
            assert new == (helpers * n // 2, 0)
            original = build_repair_plan(params, 1, "original").cost()["download"]
            assert original == (helpers * (2 * k + 1) * n // 2, 0)


class TestPlans:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_round_trip_every_node(self, k, strategy, rng, searched_params):
        params = params_for(k, searched_params)
        parts = rng.integers(0, params.q, size=(params.k, params.n), dtype=np.int64)
        word = encode(params, parts)
        for node in range(1, params.k + 3):
            plan = build_repair_plan(params, node, strategy)
            got = execute_repair(plan, word)
            assert np.array_equal(got, word[node - 1]), (k, strategy, node)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_download_volume(self, strategy, searched_params):
        for k in (2, 3, 4, 5, 6):
            params = params_for(k, searched_params)
            for node in range(1, params.k + 3):
                plan = build_repair_plan(params, node, strategy)
                assert plan.downloaded_symbols == (k + 1) * (1 << k)
                assert len(plan.helper_matrices) == k + 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_strategies_share_one_plan(self, k, searched_params):
        # the basis lives in `strategy` alone: both plans hold the same
        # standard-basis fields, and a new plan retagged "original" compiles
        # and counts exactly what the original plan does
        params = params_for(k, searched_params)
        for node in range(1, k + 3):
            new = build_repair_plan(params, node, "new")
            original = build_repair_plan(params, node, "original")
            for f in fields(RepairPlan):
                if f.name != "strategy":
                    assert same(getattr(new, f.name), getattr(original, f.name)), (node, f.name)
            retagged = replace(new, strategy="original")
            assert same(retagged.compiled, original.compiled), node
            assert not same(new.compiled, original.compiled), node
            assert retagged.cost() == original.cost() != new.cost(), node

    def test_helper_payload_sizes(self, demo_k3, rng):
        word = encode(demo_k3, rng.integers(0, 11, size=(3, 16), dtype=np.int64))
        for strategy in STRATEGIES:
            for node in range(1, 6):
                plan = build_repair_plan(demo_k3, node, strategy)
                for helper in plan.helper_matrices:
                    payload = plan.helper_payload(helper, word[helper - 1])
                    assert payload.shape == (8,)

    def test_strategies_restore_identical_content(self, demo_k3, rng):
        word = encode(demo_k3, rng.integers(0, 11, size=(3, 16), dtype=np.int64))
        for node in range(1, 6):
            a = execute_repair(build_repair_plan(demo_k3, node, "new"), word)
            b = execute_repair(build_repair_plan(demo_k3, node, "original"), word)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_batch_matches_one_codeword_at_a_time(self, k, strategy, batch, rng, searched_params):
        # the batched API path, one call per codeword and the cluster path
        # (each helper's payload, stacked in combine order, then the one
        # recover) all rebuild the erased rows, and recover leaves the stack
        params = params_for(k, searched_params)
        words = encode_blocks(params, rng.integers(0, params.q, size=(batch, k, params.n)))
        for node in range(1, k + 3):
            plan = build_repair_plan(params, node, strategy)
            order = plan.compiled.order
            payloads = [plan.helper_payload(h, words[:, h - 1]) for h in order]
            for h, rows in zip(order, payloads):
                singles = [plan.helper_payload(h, w[h - 1]) for w in words]
                assert np.array_equal(rows, np.stack(singles)), (node, h)
            stack = np.stack(payloads, axis=-2)
            kept = stack.copy()
            batched = execute_repair(plan, words)
            singles = np.stack([execute_repair(plan, w) for w in words])
            cluster = plan.compiled.recover(stack)
            assert np.array_equal(stack, kept), node
            for got in (batched, singles, cluster):
                assert got.shape == (batch, params.n), node
                assert np.array_equal(got, words[:, node - 1]), node

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_execute_repair_input_shapes(self, strategy, demo_k3, rng):
        params = demo_k3
        n, width = params.n, params.k + 2
        words = encode_blocks(params, rng.integers(0, params.q, size=(4, 3, n)))
        for node in range(1, width + 1):
            plan = build_repair_plan(params, node, strategy)
            # any leading batch axes
            nested = words.reshape(2, 2, width, n)
            got = execute_repair(plan, nested)
            assert np.array_equal(got, nested[..., node - 1, :]), node
        plan = build_repair_plan(params, 2, strategy)
        expected = rf"\(\.\.\., {width}, {n}\)"
        for bad in (
            words[0, :-1],  # (k+1, N): a codeword without its last row
            words[0, :, :-1],
            np.pad(words[0], ((0, 0), (0, 1))),
            words[..., :1, :],
            words[0, 0],
            np.int64(3),
        ):
            with pytest.raises(ValueError, match=expected):
                execute_repair(plan, bad)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", [2, 3, 7, 8])
    def test_zero_chunk_batch(self, k, strategy, demo_k2, demo_k3):
        params = {2: demo_k2, 3: demo_k3}.get(k) or search_params(k, 19)
        n = params.n
        for node in range(1, k + 3):
            plan = build_repair_plan(params, node, strategy)
            got = execute_repair(plan, np.zeros((0, k + 2, n), dtype=np.int64))
            assert got.shape == (0, n), node
            stack = np.zeros((0, k + 1, n // 2), dtype=np.int64)
            assert plan.compiled.recover(stack).shape == (0, n), node

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k", range(2, 9))
    def test_download_is_concrete(self, k, strategy, rng, searched_params):
        # the stacked download execute_repair runs ships N/2 symbols per
        # helper and codeword, row i being helper order[i]'s payload: the same
        # as the kernel and plan.helper_payload on its own rows, in either
        # dtype, and as the dense repair matrix applied to its (premultiplied)
        # content
        params = params_for(k, searched_params) if k <= 6 else search_params(k, 19)
        q, n = params.q, params.n
        words = encode_blocks(params, rng.integers(0, q, size=(3, k, n)))
        for node in range(1, k + 3):
            plan = build_repair_plan(params, node, strategy)
            run = plan.compiled
            order = run.order
            assert sorted(order) == sorted(plan.helper_matrices)
            payloads = run.download(words)
            assert payloads.shape == (3, k + 1, n // 2)
            assert payloads[0].size == plan.downloaded_symbols
            assert np.array_equal(run.download(words.astype("<u2")), payloads)
            for i, h in enumerate(order):
                rows = words[:, h - 1]
                assert np.array_equal(payloads[:, i], run.download(rows, helper=i)), (node, h)
                assert np.array_equal(payloads[:, i], plan.helper_payload(h, rows)), (node, h)
                stored = rows.astype("<u2")
                assert np.array_equal(payloads[:, i], plan.helper_payload(h, stored)), (node, h)
                scaled = rows * plan.premultiply.get(h, 1)
                expected = scaled @ plan.helper_matrices[h].dense().T
                if strategy == "original":
                    # rows times (H S)^T, with H the symmetric Sylvester matrix
                    expected = expected @ sylvester(k)
                assert np.array_equal(payloads[:, i], expected % q), (node, h)
            with pytest.raises(ValueError, match="not a helper"):
                plan.helper_payload(node, words[:, node - 1])
        with pytest.raises(ValueError, match="shape"):
            plan.helper_payload(order[0], words[:, 0, 1:])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_results_own_their_symbols(self, strategy, demo_k3, rng):
        # the API workloads keep every result, so none may pin a larger buffer
        params = demo_k3
        words = encode_blocks(params, rng.integers(0, params.q, size=(2, 3, params.n)))
        for node in range(1, 6):
            plan = build_repair_plan(params, node, strategy)
            out = execute_repair(plan, words[0])
            assert out.base is None and out.shape == (params.n,), node
            assert out.flags.owndata and out.nbytes == params.n * out.itemsize
            assert not np.shares_memory(out, words)
            batch = execute_repair(plan, words)
            assert batch.base is None and batch.shape == (2, params.n), node

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mismatched_payload_shapes_rejected(self, strategy, demo_k2):
        # the cluster rejects malformed shipped payloads (test_cluster.py)
        plan = build_repair_plan(demo_k2, 1, strategy)
        with pytest.raises(ValueError, match="shape"):
            plan.helper_payload(2, np.zeros((3, 4)))

    def test_counter_phases_populated(self, demo_k2):
        cost = build_repair_plan(demo_k2, 1, "new").cost()
        assert list(cost) == ["download", "cancel", "recover"]
        assert all(adds > 0 for adds, _ in cost.values())

    def test_unknown_strategy_rejected(self, demo_k2):
        with pytest.raises(ValueError):
            build_repair_plan(demo_k2, 1, "fancy")

    def test_bad_node_rejected(self, demo_k2):
        with pytest.raises(ValueError):
            build_repair_plan(demo_k2, 5, "new")

    def test_pair_recover_rows_have_two_entries(self, demo_k2):
        # row first[m] and row second[m] of R read u1[m] and u2[m] only
        for node in range(1, 5):
            plan = build_repair_plan(demo_k2, node, "new")
            s, half = plan.helper_matrices[plan.seeds[0]], demo_k2.n // 2
            assert plan.recover_blocks.shape == (half, 2, 2)
            dense = recover_dense(plan) % demo_k2.q
            assert np.all((dense != 0).sum(axis=1) <= 2)
            for t, rows in enumerate((s.first, s.second)):
                assert np.array_equal(dense[rows, np.arange(half)], plan.recover_blocks[:, t, 0])
                assert np.array_equal(dense[rows, half + np.arange(half)], plan.recover_blocks[:, t, 1])

    def test_recover_dense_inverts_selection(self, searched_params):
        # recovering from [S g; S~ D g] must reproduce g: R @ stacked = I, and
        # the Sylvester recover map inverts the stack in its basis,
        # kron(I_2, H) [S; S~ D]
        for k, strategy in itertools.product(range(2, 7), STRATEGIES):
            params = params_for(k, searched_params)
            q = params.q
            to_sylvester = np.kron(np.eye(2, dtype=np.int64), sylvester(k))
            for node in range(1, k + 3):
                plan = build_repair_plan(params, node, strategy)
                s, s_tilde, _, _, diag, _, _ = _plan_pieces(params, node)
                r = recover_dense(plan) % q
                stacked = np.vstack([s.dense(q), s_tilde.dense(q) * diag[None, :] % q])
                eye = np.eye(params.n, dtype=np.int64)
                assert np.array_equal(r @ stacked % q, eye), (k, strategy, node)
                r_syl = sylvester_tables(plan)[1]
                assert np.array_equal(r_syl @ (to_sylvester @ stacked) % q, eye), (k, strategy, node)


def recover_dense(plan):
    """The standard-basis recover map R, N x N from [u1; u2] to the failed
    node's symbols: row first[m] and row second[m] hold the block
    recover_blocks[m] in columns m and N/2 + m."""
    s = plan.helper_matrices[plan.seeds[0]]
    m = np.arange(s.rows)
    rows = np.stack([s.first, s.second], -1)[:, :, None]
    out = np.zeros((2 * s.rows, 2 * s.rows), dtype=np.int64)
    out[rows, np.stack([m, m + s.rows], -1)[:, None, :]] = plan.recover_blocks
    return out


def sylvester_tables(plan):
    """The Sylvester basis's dense cancel matrix per cancel node and its dense
    recover map, the published "original" schedule that plan.cost() counts in
    closed form, derived here by the change of basis as its reference.

    Sylvester payloads are H times the standard ones, with H the Sylvester
    matrix of order N/2 and H^-1 = H / (N/2), so each cancel diagonal B
    becomes H B H^-1 and the recover map R becomes R blockdiag(H^-1, H^-1).
    """
    q, n = plan.params.q, plan.params.n
    half = n // 2
    half_inv = plan.params.field.inv(half)
    # H[r, m] H[m, c] = H[r ^ c, m], so (H B H^-1)[r, c] = (H b)[r ^ c] / (N/2)
    xor = np.bitwise_xor.outer(np.arange(half), np.arange(half))
    cancel = {
        l: fast_hadamard_apply(plan.cancel_diagonals[l], q)[xor] * half_inv % q
        for l in plan.cancel_nodes
    }
    # R blockdiag(H^-1, H^-1): both halves of every row of R times H / (N/2)
    halves = recover_dense(plan).reshape(n, 2, half)
    recover = fast_hadamard_apply(halves, q).reshape(n, -1) * half_inv % q
    return cancel, recover


def cancel_map(half, sign, blocks):
    """[I 0 sI ...; 0 I sB_l ...]: the stacked payloads (seeds, then cancel
    nodes) to [u1; u2], one B_l per cancel node."""
    eye, zero = np.eye(half, dtype=np.int64), np.zeros((half, half), dtype=np.int64)
    columns = [np.vstack([eye, zero]), np.vstack([zero, eye])]
    columns += [sign * np.vstack([eye, b]) for b in blocks]
    return np.hstack(columns)


def fused_map(plan):
    """The compiled cancel-and-recover map as a dense (N, (k+1) N/2) matrix
    over the stacked payloads: output j reads payload position m of every
    helper with the weights of pair m, slot t, where unpair[j] = 2 m + t;
    under "original" that pair map runs after H on every payload, so it is
    the pair map times blockdiag(H, ..., H), with H rebuilt from the
    compiled Kronecker factors."""
    run, q, n = plan.compiled, plan.params.q, plan.params.n
    half = n // 2
    assert sorted(run.unpair) == list(range(n))
    m, t = np.divmod(run.unpair, 2)
    out = np.zeros((n, len(run.order) * half), dtype=np.int64)
    for i in range(len(run.order)):
        out[np.arange(n), i * half + m] = run.pair_weights[m, t, i]
    if run.hadamard is None:
        return out
    h = np.kron(*run.hadamard)
    assert np.array_equal(h, sylvester(half.bit_length() - 1))
    return out @ np.kron(np.eye(len(run.order), dtype=np.int64), h) % q


def reference_map(plan):
    """The same map written out from the plan's fields, through the
    Sylvester tables under "original"."""
    half = plan.params.n // 2
    if plan.strategy == "new":
        blocks = [np.diag(plan.cancel_diagonals[l]) for l in plan.cancel_nodes]
        recover = recover_dense(plan)
    else:
        tables, recover = sylvester_tables(plan)
        blocks = [tables[l] for l in plan.cancel_nodes]
    cancel = cancel_map(half, plan.cancel_sign, blocks)
    return recover @ cancel % plan.params.q


class TestCompiledMaps:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_change_of_basis_ties_the_fused_maps(self, k, searched_params):
        # a Sylvester payload is H times the standard one, so the standard
        # fused map equals the Sylvester one times blockdiag(H, ..., H)
        params = params_for(k, searched_params)
        q, half = params.q, params.n // 2
        h_blocks = np.kron(np.eye(k + 1, dtype=np.int64), sylvester(half.bit_length() - 1))
        for node in range(1, k + 3):
            new = build_repair_plan(params, node, "new")
            original = build_repair_plan(params, node, "original")
            assert new.compiled.order == original.compiled.order
            standard = fused_map(new)
            assert np.count_nonzero(standard, axis=1).max() <= k + 1
            assert np.array_equal(standard, fused_map(original) @ h_blocks % q), node
            for plan in (new, original):
                assert np.array_equal(fused_map(plan), reference_map(plan)), (node, plan.strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_replace_recompiles(self, strategy, demo_k3, rng):
        params = demo_k3
        q = params.q
        plan = build_repair_plan(params, 1, strategy)
        stale = plan.compiled
        twice = {l: 2 * d % q for l, d in plan.cancel_diagonals.items()}
        changed = replace(plan, cancel_diagonals=twice)
        assert changed.compiled is not stale
        assert np.array_equal(fused_map(changed), reference_map(changed))
        assert not np.array_equal(fused_map(changed), fused_map(plan))
        assert plan.compiled is stale
        flipped = replace(plan, cancel_sign=-plan.cancel_sign)
        assert np.array_equal(fused_map(flipped), reference_map(flipped))
        word = encode(params, rng.integers(0, q, size=(3, params.n)))
        assert np.array_equal(execute_repair(replace(plan), word), word[0])

    @pytest.mark.parametrize("k", range(2, 9))
    def test_sylvester_only_on_the_wire(self, k, searched_params, rng):
        # an original helper still ships H times the standard payload mod q,
        # and both strategies rebuild the failed row, which they never read
        params = params_for(k, searched_params) if k <= 6 else search_params(k)
        q, n = params.q, params.n
        one = encode(params, rng.integers(0, q, size=(k, n)))
        batch = encode_blocks(params, rng.integers(0, q, size=(64, k, n)))
        for node in range(1, k + 3):
            new = build_repair_plan(params, node, "new")
            original = build_repair_plan(params, node, "original")
            for helper in new.helper_matrices:
                rows = batch[:, helper - 1].astype("<u2")
                shipped = original.helper_payload(helper, rows)
                assert np.array_equal(shipped, fast_hadamard_apply(new.helper_payload(helper, rows), q))
            for plan in (new, original):
                for word in (one, batch):
                    wiped = word.copy()
                    wiped[..., node - 1, :] = 0
                    repaired = execute_repair(plan, wiped)
                    assert np.array_equal(repaired, word[..., node - 1, :]), (node, plan.strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_execution_holds_no_square_table(self, strategy, rng):
        # at k=8 an N x N table has 512^2 entries; neither repairing nor
        # counting leaves one in a fresh plan, derived fields included
        params = search_params(8)
        k, n = params.k, params.n
        word = encode(params, rng.integers(0, params.q, size=(k, n)))
        for node in range(1, k + 3):
            plan = replace(build_repair_plan(params, node, strategy))
            assert np.array_equal(execute_repair(plan, word), word[node - 1])
            sizes = [a.size for a in arrays_in(plan.compiled)]
            assert len(sizes) >= 5 and max(sizes) <= (k + 1) * n, (node, max(sizes))
            plan.cost()
            assert {"compiled", "_counts"} <= vars(plan).keys()
            held = [a.size for a in arrays_in(vars(plan))]
            assert len(held) > len(sizes) and max(held) <= (k + 1) * n, (node, max(held))


def arrays_in(value):
    """Every array reachable through dataclass fields, tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_dataclass(value):
        for f in fields(value):
            yield from arrays_in(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from arrays_in(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from arrays_in(v)


def costly(consts, q):
    """Entries a multiplication is charged for: all but 0, 1 and q-1."""
    return sum(int(c) % q not in (0, 1, q - 1) for c in np.ravel(consts))


class TestPlanCost:
    """The counting convention of RepairPlan.cost() against plain-loop oracles."""

    def test_sums_cost_one_add_per_symbol(self, demo_k3):
        # helpers sum one pair per row; cancel folds each interfering payload
        # into both u1 and u2; recover combines two half-vectors per output
        n = demo_k3.n
        for node in range(1, 6):
            plan = build_repair_plan(demo_k3, node, "new")
            cost = plan.cost()
            assert cost["download"][0] == len(plan.helper_matrices) * n // 2
            assert cost["cancel"][0] == len(plan.cancel_nodes) * n
            assert cost["recover"][0] == n

    def test_free_constants_multiply_free(self, demo_k3):
        q = demo_k3.q
        free_seen = 0
        for node in range(1, 6):
            plan = build_repair_plan(demo_k3, node, "new")
            premultiplied = list(plan.premultiply.values())
            diagonals = [plan.cancel_diagonals[l] for l in plan.cancel_nodes]
            weights = [plan.recover_blocks.ravel()]
            cost = plan.cost()
            assert cost["download"][1] == sum(costly(p, q) for p in premultiplied)
            assert cost["cancel"][1] == sum(costly(d, q) for d in diagonals)
            assert cost["recover"][1] == sum(costly(w, q) for w in weights)
            constants = np.concatenate(premultiplied + diagonals + weights) % q
            free_seen += int(np.isin(constants, (0, 1, q - 1)).sum())
        assert free_seen > 0  # the rule was exercised, not vacuous

    def test_dense_rows_cost_nnz_minus_one(self, demo_k3):
        q, n = demo_k3.q, demo_k3.n

        def dense(m):
            adds = sum(max(int(np.count_nonzero(row)) - 1, 0) for row in m)
            return adds, costly(m, q)

        for node in range(1, 6):
            plan = build_repair_plan(demo_k3, node, "original")
            tables, recover = sylvester_tables(plan)
            cancel = [dense(tables[l]) for l in plan.cancel_nodes]
            cost = plan.cost()
            assert cost["cancel"] == (
                len(cancel) * n + sum(a for a, _ in cancel),
                sum(m for _, m in cancel),
            )
            assert cost["recover"] == dense(recover)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_closed_form_counts_the_dense_tables(self, k):
        # cost() counts the Sylvester schedule without building its tables;
        # the tables built here by the change of basis must count the same
        profiles = [demo_params(k), search_params(k, 19)] if k <= 3 else [search_params(k)]
        for params in profiles:
            q, n = params.q, params.n

            def dense(table):
                nnz = np.count_nonzero(table, axis=1)
                charged = ~np.isin(table % q, (0, 1, q - 1))
                return int(np.maximum(nnz - 1, 0).sum()), int(charged.sum())

            for node in range(1, k + 3):
                plan = build_repair_plan(params, node, "original")
                tables, recover = sylvester_tables(plan)
                cancel = [dense(tables[l]) for l in plan.cancel_nodes]
                cost = plan.cost()
                assert cost["cancel"] == (
                    len(cancel) * n + sum(a for a, _ in cancel),
                    sum(m for _, m in cancel),
                ), (q, node)
                assert cost["recover"] == dense(recover), (q, node)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counts_once_per_plan(self, strategy, demo_k3, monkeypatch):
        # every count of a constant or a dense row goes through count_nonzero
        calls = []
        count_nonzero = np.count_nonzero

        def spy(*args, **kwargs):
            calls.append(args)
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", spy)
        plan = replace(build_repair_plan(demo_k3, 5, strategy))  # not yet counted
        first = plan.cost()
        counted = len(calls)
        assert counted > 0
        second = plan.cost()
        assert len(calls) == counted
        assert second == first and second is not first
        second["cancel"] = (0, 0)
        assert plan.cost() == first
        fewer = replace(plan, cancel_nodes=plan.cancel_nodes[:1])
        assert fewer.cost()["cancel"] != first["cancel"]
        assert len(calls) > counted


# parameter sets that break a rank condition: the k=2 one fails node 4's
# recover and its interference from node 2, the k=3 one node 5's interference
# from node 3
BROKEN = {
    "k2": CodeParams(2, 7, (3, 1), (1, 4), check=False),
    "k3": CodeParams(3, 11, (2, 2, 1), (7, 4, 1), check=False),
}


def rank_stacks(params):
    """(failed, label, [S; S~ D]) per rank condition, in report order, with
    the dense stack built here from the plan pieces."""
    q, out = params.q, []
    for failed in range(1, params.k + 3):
        s, s_tilde, _, cancel_nodes, diag_recover, interference, _ = _plan_pieces(params, failed)
        cases = [("recover", diag_recover)] + [
            (f"interference from node {l}", interference[l]) for l in cancel_nodes
        ]
        for label, diag in cases:
            out.append((failed, label, np.vstack([s.dense(q), s_tilde.dense(q) * diag % q])))
    return out


class TestRankConditions:
    def test_demo_profiles_pass(self, demo_k2, demo_k3):
        for params, count in ((demo_k2, 8), (demo_k3, 15)):
            report = verify_rank_conditions(params)
            assert report.params is params
            assert len(report.conditions) == count
            assert report.ok
            assert all(c.methods_agree for c in report.conditions)
            assert all(c.elim_rank == c.expected_rank for c in report.conditions)

    @pytest.mark.parametrize("k", [4, 5])
    def test_searched_profiles_pass(self, k, searched_params):
        report = verify_rank_conditions(searched_params[k])
        assert report.ok
        assert len(report.conditions) == k * (k + 2)
        assert all(c.methods_agree for c in report.conditions)

    def test_invalid_coefficients_fail_at_second_parity(self):
        report = verify_rank_conditions(BROKEN["k2"])
        assert not report.ok
        assert [(c.failed, c.label, c.pair_ok, c.elim_rank) for c in report.failures()] == [
            (4, "recover", False, 6),
            (4, "interference from node 2", False, 8),
        ]
        # both ranking methods still agree on the defect
        assert all(c.methods_agree for c in report.conditions)

    @pytest.mark.parametrize("case", [2, 3, 4, 5, 6, *BROKEN])
    def test_sylvester_basis_keeps_every_rank(self, case, searched_params):
        # the "original" strategy's stacks are kron(I_2, H) times these; one
        # pass covers both strategies only if that factor never moves a rank,
        # on valid and on broken coefficients alike
        params = BROKEN[case] if case in BROKEN else params_for(case, searched_params)
        to_sylvester = np.kron(np.eye(2, dtype=np.int64), sylvester(params.k))
        report = verify_rank_conditions(params)
        assert report.ok == (case not in BROKEN)
        stacks = rank_stacks(params)
        assert [(c.failed, c.label) for c in report.conditions] == [x[:2] for x in stacks]
        for c, (_, _, stack) in zip(report.conditions, stacks):
            sylvester_rank = params.field.rank(to_sylvester @ stack % params.q)
            assert sylvester_rank == params.field.rank(stack) == c.elim_rank, (c.failed, c.label)

    def test_predicted_rank_matches_elimination_everywhere(self, demo_k3):
        report = verify_rank_conditions(demo_k3)
        for c in report.conditions:
            assert c.predicted_rank == c.elim_rank
            assert c.expected_rank == (demo_k3.n if c.label == "recover" else demo_k3.n // 2)

    def test_one_elimination_per_condition(self, demo_k2, monkeypatch):
        count = len(verify_rank_conditions(demo_k2).conditions)
        assert count == 8
        calls = []
        rank = PrimeField.rank

        def spy(self, matrix):
            calls.append(matrix.shape)
            return rank(self, matrix)

        monkeypatch.setattr(PrimeField, "rank", spy)
        ok, lines = verify_params(demo_k2)
        assert calls == [(demo_k2.n, demo_k2.n)] * count
        assert ok
        assert "ok: rank conditions: 8/8 pass" in lines
