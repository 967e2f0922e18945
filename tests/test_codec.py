import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hadamard_msr import codec

from conftest import SMALL_PRIMES, erasure_patterns
from hadamard_msr.codec import (
    CodeParams,
    DEMO_COEFFICIENTS,
    bits_per_symbol,
    chunk_file,
    coding_matrix,
    coefficient_violations,
    decode,
    demo_params,
    encode,
    encode_blocks,
    find_coefficients,
    inverse_coding_matrix,
    profile_params,
    search_params,
    unchunk,
    validate_coefficients,
)
from hadamard_msr.field import is_prime


class TestCoefficientConstraints:
    def test_demo_profiles_pass(self):
        for k, (q, a, b) in DEMO_COEFFICIENTS.items():
            assert coefficient_violations(k, q, a, b) == []
            assert validate_coefficients(k, q, a, b)

    def test_zero_coefficient_flagged(self):
        problems = coefficient_violations(2, 7, (0, 1), (3, 4))
        assert any("a_1 is zero" in p for p in problems)

    def test_norm_condition_flagged(self):
        # a_1^2 - b_1^2 = 1 - 1 = 1 != -1 mod 7
        problems = coefficient_violations(2, 7, (1, 1), (1, 4))
        assert any("a_1^2 - b_1^2" in p for p in problems)

    def test_cross_condition_flagged(self):
        # both pairs satisfy a^2 - b^2 = -1 mod 7, but the sums clash:
        # a_1 - a_2 = 0 = b_1 - b_2
        assert (1 - 3 * 3) % 7 == 6
        problems = coefficient_violations(2, 7, (1, 1), (3, 3))
        assert problems
        assert all("a_1" in p and "a_2" in p for p in problems)

    def test_wrong_length_reported(self):
        problems = coefficient_violations(2, 7, (1,), (3, 4))
        assert problems and "need 2 coefficients" in problems[0]
        assert not validate_coefficients(2, 7, (1,), (3, 4))


class TestCodeParams:
    def test_shapes(self, demo_k2, demo_k3):
        assert (demo_k2.n, demo_k2.nodes) == (8, 4)
        assert (demo_k3.n, demo_k3.nodes) == (16, 5)

    def test_field_modulus_too_small(self):
        with pytest.raises(ValueError):
            CodeParams(3, 7, (1, 1, 1), (1, 1, 1))

    def test_composite_modulus_rejected_even_unchecked(self):
        with pytest.raises(ValueError):
            CodeParams(2, 9, (1, 1), (3, 4), check=False)

    def test_unchecked_params_skip_coefficient_validation(self):
        p = CodeParams(2, 7, (0, 1), (3, 4), check=False)
        assert p.a == (0, 1)
        with pytest.raises(ValueError):
            CodeParams(2, 7, (0, 1), (3, 4))

    def test_coefficients_reduced_mod_q(self):
        p = CodeParams(2, 7, (8, 8), (10, 11), check=True)
        assert p.a == (1, 1)
        assert p.b == (3, 4)


# find_coefficients(k, q) for every small prime q >= 2k+3, frozen so the
# search order (and so every searched code's coefficients) cannot drift
FOUND = {
    (2, 7): ((1, 1), (3, 4)),
    (2, 11): ((2, 2), (4, 7)),
    (2, 13): ((3, 3), (6, 7)),
    (2, 17): ((1, 1), (6, 11)),
    (2, 19): ((2, 2), (9, 10)),
    (2, 23): ((1, 1), (5, 18)),
    (2, 101): ((2, 2), (45, 56)),
    (2, 257): ((1, 1), (60, 197)),
    (2, 751): ((1, 1), (113, 638)),
    (3, 11): ((2, 2, 5), (4, 7, 2)),
    (3, 13): ((3, 3, 4), (6, 7, 2)),
    (3, 17): ((1, 1, 5), (6, 11, 3)),
    (3, 19): ((2, 2, 4), (9, 10, 6)),
    (3, 23): ((1, 1, 5), (5, 18, 7)),
    (3, 101): ((2, 2, 4), (45, 56, 44)),
    (3, 257): ((1, 1, 4), (60, 197, 70)),
    (3, 751): ((1, 1, 2), (113, 638, 330)),
    (4, 11): ((2, 2, 5, 5), (4, 7, 2, 9)),
    (4, 13): ((3, 3, 4, 4), (6, 7, 2, 11)),
    (4, 17): ((1, 1, 5, 5), (6, 11, 3, 14)),
    (4, 19): ((2, 2, 4, 4), (9, 10, 6, 13)),
    (4, 23): ((1, 1, 5, 5), (5, 18, 7, 16)),
    (4, 101): ((2, 2, 4, 4), (45, 56, 44, 57)),
    (4, 257): ((1, 1, 4, 4), (60, 197, 70, 187)),
    (4, 751): ((1, 1, 2, 2), (113, 638, 330, 421)),
}


class TestSearch:
    def test_pinned_results_cover_every_small_prime(self):
        assert set(FOUND) == {
            (k, q) for k in (2, 3, 4) for q in SMALL_PRIMES if q >= 2 * k + 3
        }

    @pytest.mark.parametrize("k,q", sorted(FOUND))
    def test_pinned_results(self, k, q):
        assert find_coefficients(k, q) == FOUND[(k, q)]

    def test_candidate_pairs_match_quadratic_loop(self):
        # the q^2 double loop the square-root table replaced, kept as reference
        for q in [q for q in range(7, 400) if is_prime(q)] + [751]:
            expected = [
                (a, b) for a in range(1, q) for b in range(1, q) if (a * a - b * b) % q == q - 1
            ]
            assert codec._candidate_pairs(q) == expected, q

    def test_search_tries_each_candidate_set_once(self, monkeypatch):
        # no assignment exists for k=7 at q=17, so the search there is
        # exhaustive; trying every ordering of each candidate set made about
        # 3.1 million compatibility checks, ascending sequences alone 3,326
        calls = []
        check = codec._cross_compatible
        monkeypatch.setattr(
            codec, "_cross_compatible", lambda *args: calls.append(args) or check(*args)
        )
        assert codec.find_coefficients.__wrapped__(7, 17) is None
        assert 0 < len(calls) < 10_000

    def test_smallest_solution_k2(self):
        assert find_coefficients(2, 7) == ((1, 1), (3, 4))

    def test_smallest_solution_k3(self):
        assert find_coefficients(3, 11) == ((2, 2, 5), (4, 7, 2))

    def test_demo_profile_k3_differs_from_search(self, demo_k3):
        assert (demo_k3.a, demo_k3.b) != find_coefficients(3, 11)
        assert validate_coefficients(3, 11, demo_k3.a, demo_k3.b)

    def test_profile_params_names_one_code(self):
        # the demo profile when k has one and q is absent or its modulus;
        # k=3's demo set is not the one the search finds at q=11
        for k in (2, 3):
            demo = demo_params(k)
            assert profile_params(k) == profile_params(k, demo.q) == demo
        assert profile_params(3, 11) != search_params(3, 11)
        for k in (4, 5):
            assert profile_params(k) == search_params(k)
        # a demo modulus names no profile for a k that has none
        assert profile_params(4, 11) == search_params(4, 11)
        with pytest.raises(ValueError, match="2k\\+3"):
            profile_params(5, 11)
        for k in (2, 3, 4, 5):
            assert profile_params(k, 23) == search_params(k, 23)

    def test_search_params_picks_first_viable_prime(self):
        p = search_params(2)
        assert (p.q, p.a, p.b) == (7, (1, 1), (3, 4))

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_search_results_validate(self, k, searched_params):
        p = searched_params[k]
        assert p.q >= 2 * k + 3
        assert coefficient_violations(k, p.q, p.a, p.b) == []

    def test_demo_params_frozen(self):
        assert demo_params(2).q == 7
        assert demo_params(3).q == 11
        with pytest.raises(ValueError):
            demo_params(4)

    # search_params(k) and search_params(k, 257), frozen so that the cached
    # search keeps every searched code: ((q, a, b), (a, b) at q = 257)
    SEARCHED = {
        2: ((7, (1, 1), (3, 4)), ((1, 1), (60, 197))),
        3: ((11, (2, 2, 5), (4, 7, 2)), ((1, 1, 4), (60, 197, 70))),
        4: ((11, (2, 2, 5, 5), (4, 7, 2, 9)), ((1, 1, 4, 4), (60, 197, 70, 187))),
        5: (
            (17, (1, 1, 5, 5, 7), (6, 11, 3, 14, 4)),
            ((1, 1, 4, 4, 5), (60, 197, 70, 187, 119)),
        ),
        6: (
            (17, (1, 1, 5, 5, 7, 7), (6, 11, 3, 14, 4, 13)),
            ((1, 1, 4, 4, 5, 5), (60, 197, 70, 187, 119, 138)),
        ),
        7: (
            (19, (2, 2, 4, 4, 5, 5, 9), (9, 10, 6, 13, 8, 11, 5)),
            ((1, 1, 4, 4, 5, 5, 7), (60, 197, 70, 187, 119, 138, 43)),
        ),
        8: (
            (19, (2, 2, 4, 4, 5, 5, 9, 9), (9, 10, 6, 13, 8, 11, 5, 14)),
            ((1, 1, 4, 4, 5, 5, 7, 7), (60, 197, 70, 187, 119, 138, 43, 214)),
        ),
    }

    @pytest.mark.parametrize("k", sorted(SEARCHED))
    def test_cached_search_unchanged(self, k):
        (q, a, b), at_257 = self.SEARCHED[k]
        for _ in range(2):  # the second round is answered from the cache
            p = search_params(k)
            assert (p.q, p.a, p.b) == (q, a, b)
            p = search_params(k, 257)
            assert (p.a, p.b) == at_257
        assert find_coefficients(k, 257) is find_coefficients(k, 257)

    def test_search_params_memoized_and_failures_raise_every_time(self, monkeypatch):
        # one CodeParams per (k, q), built with its full coefficient check
        # once; a (k, q) with no valid set, or an invalid q, is never cached
        assert search_params(3, 257) is search_params(3, 257)
        assert search_params(4) is search_params(4)
        checks = []
        real = codec.coefficient_violations
        monkeypatch.setattr(
            codec, "coefficient_violations", lambda *args: checks.append(args) or real(*args)
        )
        search_params.cache_clear()
        search_params(3, 263)
        search_params(3, 263)
        assert len(checks) == 1
        for k, q, match in [(7, 17, "no valid coefficients"), (5, 11, "2k\\+3")]:
            for _ in range(2):
                with pytest.raises(ValueError, match=match):
                    search_params(k, q)


class TestCodingMatrices:
    def test_entries_never_zero(self, demo_k2, demo_k3, searched_params):
        for p in (demo_k2, demo_k3, *searched_params.values()):
            for i in range(1, p.k + 1):
                assert int(coding_matrix(p, i).min()) > 0

    def test_pairwise_entry_distinct(self, demo_k3):
        for i, j in itertools.combinations(range(1, 4), 2):
            assert np.all(coding_matrix(demo_k3, i) != coding_matrix(demo_k3, j))

    def test_inverse(self, demo_k3):
        for i in range(1, 4):
            prod = coding_matrix(demo_k3, i) * inverse_coding_matrix(demo_k3, i)
            assert np.all(prod % demo_k3.q == 1)

    def test_structure(self, demo_k2):
        # diagonal entries are a_i * x_i + b_i * x_0 + 1 over the sign grid
        a, b, q = demo_k2.a, demo_k2.b, demo_k2.q
        j = np.arange(8)
        x0 = 1 - 2 * (j & 1)
        for i in (1, 2):
            xi = 1 - 2 * ((j >> i) & 1)
            expected = (a[i - 1] * xi + b[i - 1] * x0 + 1) % q
            assert np.array_equal(coding_matrix(demo_k2, i), expected)

    def test_index_bounds(self, demo_k2):
        with pytest.raises(ValueError):
            coding_matrix(demo_k2, 0)
        with pytest.raises(ValueError):
            coding_matrix(demo_k2, 3)


class TestEncode:
    def test_parity_definitions(self, demo_k3, rng):
        p = demo_k3
        parts = rng.integers(0, p.q, size=(p.k, p.n), dtype=np.int64)
        word = encode(p, parts)
        assert np.array_equal(word[: p.k], parts)
        assert np.array_equal(word[p.k], parts.sum(axis=0) % p.q)
        mixed = sum(
            coding_matrix(p, i + 1) * parts[i] for i in range(p.k)
        ) % p.q
        assert np.array_equal(word[p.k + 1], mixed)

    def test_rejects_bad_shape(self, demo_k2):
        with pytest.raises(ValueError):
            encode(demo_k2, np.zeros((2, 4), dtype=np.int64))

    def test_inputs_reduced_mod_q(self, demo_k2):
        parts = np.full((2, 8), 7, dtype=np.int64)
        assert np.array_equal(encode(demo_k2, parts), np.zeros((4, 8), dtype=np.int64))

    def test_blocks_inputs_reduced_mod_q(self, demo_k2, rng):
        # encode_blocks is the API entry and reduces its input; cmd_encode
        # runs with_parities on packed symbols, which are in range already
        blocks = rng.integers(0, 7, size=(3, 2, 8), dtype=np.int64)
        want = codec.with_parities(demo_k2, blocks)
        for shifted in (blocks + 7, blocks - 14, blocks + 7000):
            assert np.array_equal(encode_blocks(demo_k2, shifted), want)
        full = np.full((2, 2, 8), 7, dtype=np.int64)
        assert np.array_equal(encode_blocks(demo_k2, full), np.zeros((2, 4, 8), dtype=np.int64))

    def test_blocks_match_single(self, demo_k2, rng):
        blocks = rng.integers(0, 7, size=(5, 2, 8), dtype=np.int64)
        stacked = encode_blocks(demo_k2, blocks)
        for c in range(5):
            assert np.array_equal(stacked[c], encode(demo_k2, blocks[c]))


# parity that a decode names when one survivor (dict key, or every survivor
# for a bare int) is corrupted, per erasure pattern of at most one node
NAMED_PARITY = {
    2: {(): {1: 3, 2: 3, 3: 3, 4: 4}, (1,): 4, (2,): 4, (3,): 4, (4,): 3},
    3: {(): {1: 4, 2: 4, 3: 4, 4: 4, 5: 5}, (1,): 5, (2,): 5, (3,): 5, (4,): 5, (5,): 4},
}
INCONSISTENT = "surviving node {} is inconsistent with decoded data"


class TestDecode:
    @pytest.mark.parametrize("k", [2, 3])
    def test_all_erasure_patterns(self, k, rng):
        p = demo_params(k)
        parts = rng.integers(0, p.q, size=(p.k, p.n), dtype=np.int64)
        word = encode(p, parts)
        nodes = range(1, p.k + 3)
        for gone in erasure_patterns(k):
            available = {m: word[m - 1] for m in nodes if m not in gone}
            assert np.array_equal(decode(p, available), word), gone

    @pytest.mark.parametrize("k", [2, 3])
    def test_batch_matches_one_codeword_at_a_time(self, k, rng):
        p = demo_params(k)
        words = encode_blocks(p, rng.integers(0, p.q, size=(7, p.k, p.n)))
        nodes = range(1, p.k + 3)
        for gone in erasure_patterns(k):
            alive = [m for m in nodes if m not in gone]
            got = decode(p, {m: words[:, m - 1] for m in alive})
            singles = [decode(p, {m: w[m - 1] for m in alive}) for w in words]
            assert np.array_equal(got, np.stack(singles)), gone
            assert np.array_equal(got, words), gone

    @pytest.mark.parametrize("lead", [(), (7,), (2, 3), (0,)])
    @pytest.mark.parametrize("k", [2, 3])
    def test_patterns_at_every_leading_shape(self, k, lead, rng):
        p = demo_params(k)
        words = encode_blocks(p, rng.integers(0, p.q, size=(math.prod(lead), p.k, p.n)))
        words = words.reshape(lead + (p.k + 2, p.n))
        for gone in erasure_patterns(k):
            alive = [m for m in range(1, p.k + 3) if m not in gone]
            for stored in (words, words + p.q, words.astype("<u2")):
                got = decode(p, {m: stored[..., m - 1, :] for m in alive})
                assert got.dtype == np.int64 and got.base is None, gone
                assert np.array_equal(got, words), (gone, stored.dtype)

    @pytest.mark.parametrize("k", [2, 3])
    def test_corrupt_survivor_names_parity_and_chunk(self, k, rng):
        p = demo_params(k)
        clean = encode_blocks(p, rng.integers(0, p.q, size=(6, p.k, p.n)))
        for gone, named in NAMED_PARITY[k].items():
            alive = [m for m in range(1, p.k + 3) if m not in gone]
            for node in alive:
                parity = named if isinstance(named, int) else named[node]
                msg = INCONSISTENT.format(parity)
                words = clean.copy()
                words[4, node - 1, 1] = (words[4, node - 1, 1] + 1) % p.q
                words[2, node - 1, 5] = (words[2, node - 1, 5] + 3) % p.q
                cases = [
                    ({m: words[2, m - 1] for m in alive}, msg),
                    ({m: words[:, m - 1] for m in alive}, f"chunk 2 failed to decode: {msg}"),
                    (
                        {m: words.reshape(2, 3, p.k + 2, p.n)[..., m - 1, :] for m in alive},
                        f"chunk 2 failed to decode: {msg}",
                    ),
                    ({m: words[3:, m - 1] for m in alive}, f"chunk 1 failed to decode: {msg}"),
                ]
                for available, expected in cases:
                    with pytest.raises(ValueError) as err:
                        decode(p, available)
                    assert str(err.value) == expected, (gone, node)

    @pytest.mark.parametrize("k", [2, 3])
    def test_corrupt_survivor_without_redundancy_decodes(self, k, rng):
        # with two nodes erased no parity is left over to check against, so
        # the decode succeeds: a codeword that keeps every survivor as given
        p = demo_params(k)
        words = encode_blocks(p, rng.integers(0, p.q, size=(4, p.k, p.n)))
        for gone in [g for g in erasure_patterns(k) if len(g) == 2]:
            alive = [m for m in range(1, p.k + 3) if m not in gone]
            bent = words.copy()
            bent[1, alive[0] - 1, 2] = (bent[1, alive[0] - 1, 2] + 1) % p.q
            got = decode(p, {m: bent[:, m - 1] for m in alive})
            assert np.array_equal(got, encode_blocks(p, got[:, : p.k])), gone
            assert np.array_equal(got[:, [m - 1 for m in alive]], bent[:, [m - 1 for m in alive]])

    def test_each_pattern_compiles_once(self, demo_k3, rng):
        p = demo_k3
        word = encode(p, rng.integers(0, p.q, size=(p.k, p.n)))
        available = {m: word[m - 1] for m in (1, 3, 4)}
        codec._decode_map.cache_clear()
        decode(p, available)
        decode(p, {m: np.stack([rows, rows]) for m, rows in available.items()})
        assert codec._decode_map.cache_info().misses == 1
        assert codec._decode_map.cache_info().hits == 1

    def test_codes_do_not_share_compiled_weights(self, demo_k3, rng):
        wide = search_params(3, 257)
        alive = (1, 3, 4, 5)
        assert not np.array_equal(
            codec._decode_map(demo_k3, alive)[2], codec._decode_map(wide, alive)[2]
        )
        for p in (demo_k3, wide):
            weights = codec._decode_map(p, alive)[2]
            assert weights.min() >= 0 and weights.max() < p.q
            word = encode(p, rng.integers(0, p.q, size=(p.k, p.n)))
            assert np.array_equal(decode(p, {m: word[m - 1] for m in alive}), word)

    def test_mismatched_row_shapes_rejected(self, demo_k2, rng):
        words = encode_blocks(demo_k2, rng.integers(0, 7, size=(3, 2, 8)))
        available = {m: words[:, m - 1] for m in (1, 2, 3)}
        msg = re.escape("every node's rows must have one shape (..., 8)")
        with pytest.raises(ValueError, match=f"^{msg}$"):
            decode(demo_k2, {**available, 2: words[0, 1]})
        with pytest.raises(ValueError, match=f"^{msg}$"):
            decode(demo_k2, {**available, 3: words[:2, 2]})
        with pytest.raises(ValueError, match=f"^{msg}$"):
            decode(demo_k2, {m: rows[:, :4] for m, rows in available.items()})

    def test_batch_names_first_bad_row(self, demo_k2, rng):
        words = encode_blocks(demo_k2, rng.integers(0, 7, size=(6, 2, 8)))
        words[4, 2, 0] = (words[4, 2, 0] + 1) % 7  # parity 1, chunk 4
        words[2, 3, 5] = (words[2, 3, 5] + 1) % 7  # parity 2, chunk 2
        available = {m: words[:, m - 1] for m in range(1, 5)}
        with pytest.raises(ValueError) as err:
            decode(demo_k2, available)
        assert str(err.value) == (
            "chunk 2 failed to decode: surviving node 4 is inconsistent with decoded data"
        )

    def test_needs_k_nodes(self, demo_k2, rng):
        parts = rng.integers(0, 7, size=(2, 8), dtype=np.int64)
        word = encode(demo_k2, parts)
        with pytest.raises(ValueError, match="^need at least 2 nodes to decode, got 1$"):
            decode(demo_k2, {1: word[0]})

    def test_detects_corrupt_survivor(self, demo_k2, rng):
        parts = rng.integers(0, 7, size=(2, 8), dtype=np.int64)
        word = encode(demo_k2, parts)
        available = {m: word[m - 1].copy() for m in (1, 2, 3)}
        available[3][0] = (available[3][0] + 1) % 7
        with pytest.raises(ValueError, match="inconsistent"):
            decode(demo_k2, available)

    def test_unknown_node_id_rejected(self, demo_k2, rng):
        parts = rng.integers(0, 7, size=(2, 8), dtype=np.int64)
        word = encode(demo_k2, parts)
        available = {m: word[m - 1] for m in (1, 2)}
        available[9] = word[0]
        with pytest.raises(ValueError, match="^unknown node id 9$"):
            decode(demo_k2, available)


def full_syndromes(p, alive, erased, weights):
    """Syndrome weights of every surviving parity, derived from the decode
    map's erased rows alone: each systematic row as weights over the
    codeword rows, re-encoded, minus the stored parity."""
    k, n = p.k, p.n
    unit = np.zeros((k + 2, k + 2, n), dtype=np.int64)
    unit[np.arange(k + 2), np.arange(k + 2)] = 1
    rows = {node: unit[node - 1] for node in alive}
    rows.update({node: weights[r] for r, node in enumerate(erased)})
    parts = np.stack([rows[i] for i in range(1, k + 1)])
    diagonals = np.stack([coding_matrix(p, i) for i in range(1, k + 1)])
    recomputed = {k + 1: parts.sum(axis=0), k + 2: (diagonals[:, None] * parts).sum(axis=0)}
    return {
        node: (recomputed[node] - unit[node - 1]) % p.q for node in (k + 1, k + 2) if node in alive
    }


class TestDecodeMap:
    @pytest.mark.parametrize("q", [None, 257, 32749])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_keeps_only_syndromes_that_can_fire(self, k, q):
        if q is None:
            p = demo_params(k) if k in DEMO_COEFFICIENTS else search_params(k)
        else:
            p = search_params(k, q)
        nodes = range(1, k + 3)
        for gone in erasure_patterns(k):
            alive = tuple(m for m in nodes if m not in gone)
            erased, parities, weights = codec._decode_map(p, alive)
            assert erased == gone
            assert weights.shape == (len(erased) + len(parities), k + 2, p.n)
            assert not weights[:, [m - 1 for m in gone]].any(), gone
            full = full_syndromes(p, alive, erased, weights)
            for r, node in enumerate(parities, start=len(erased)):
                assert weights[r].any(), (gone, node)
                assert np.array_equal(weights[r], full[node]), (gone, node)
            for node in set(full) - set(parities):
                assert not full[node].any(), (gone, node)
            if len(alive) == k:
                assert parities == (), gone
            elif gone and gone[0] <= k:  # one erased systematic node
                assert parities == (k + 2,), gone
            else:  # nothing erased, or one parity
                assert parities == tuple(m for m in (k + 1, k + 2) if m in alive), gone

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sampled_from([7, 11, 13]),
                st.lists(st.integers(0, 12), min_size=k, max_size=k),
                st.lists(st.integers(0, 12), min_size=k, max_size=k),
            )
        )
    )
    def test_zero_pivot_exactly_where_erased_checks_lose_rank(self, case):
        # unchecked coefficients may break the cross constraints: the compile
        # must then refuse exactly the patterns whose erased columns of the
        # check matrix [1 .. 1, -1, 0; A_1 .. A_k, 0, -1] are dependent at
        # some position, and decode every other pattern
        k, q, a, b = case
        p = CodeParams(k, q, a, b, check=False)
        diagonals = np.stack([coding_matrix(p, i) for i in range(1, k + 1)])
        word = encode(p, np.random.default_rng([k, q]).integers(0, q, size=(k, p.n)))
        for gone in erasure_patterns(k):
            alive = tuple(m for m in range(1, k + 3) if m not in gone)
            singular = False
            for t in range(p.n):
                checks = [[1] * k + [-1, 0], [*diagonals[:, t], 0, -1]]
                erased_columns = [[row[m - 1] for m in gone] for row in checks]
                singular |= p.field.rank(erased_columns) < len(gone)
            if singular:
                with pytest.raises(ZeroDivisionError):
                    codec._decode_map(p, alive)
            else:
                got = decode(p, {m: word[m - 1] for m in alive})
                assert np.array_equal(got, word), (case, gone)


def bitwise_chunk_file(data: bytes, params: CodeParams) -> np.ndarray:
    """Reference packer: every input bit widened to an int64 and regrouped."""
    bits = bits_per_symbol(params.q)
    block = params.k * params.n
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0:
        return np.empty((0, params.k, params.n), dtype=np.int64)
    bitstream = np.unpackbits(raw)
    if bitstream.size % bits:
        bitstream = np.pad(bitstream, (0, bits - bitstream.size % bits))
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    symbols = bitstream.reshape(-1, bits).astype(np.int64) @ weights
    if symbols.size % block:
        symbols = np.pad(symbols, (0, block - symbols.size % block))
    return symbols.reshape(-1, params.k, params.n)


def bitwise_unchunk(blocks, original_length: int, params: CodeParams) -> bytes:
    """Reference unpacker: every symbol expanded to `bits` int64 bits."""
    bits = bits_per_symbol(params.q)
    blocks = np.asarray(blocks, dtype=np.int64)
    symbols = blocks.reshape(-1)
    limit = min(1 << bits, params.q)
    if symbols.size * bits < original_length * 8:
        raise ValueError("not enough symbols for the recorded length")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= limit):
        raise ValueError("corrupt symbol stream: value out of packing range")
    if original_length == 0:
        return b""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    bitstream = ((symbols[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bitstream[: original_length * 8]).tobytes()[:original_length]


# one modulus per packing width, 2 to 8 bits
PACKING_QS = (7, 11, 17, 37, 67, 131, 257)


class TestPacking:
    @pytest.mark.parametrize(
        "q,bits", [(7, 2), (11, 3), (17, 4), (127, 6), (251, 7), (257, 8), (12289, 8)]
    )
    def test_bits_per_symbol(self, q, bits):
        assert bits_per_symbol(q) == bits

    def test_chunk_bytes(self, demo_k2):
        assert demo_k2.chunk_bytes == 4
        assert CodeParams(3, 257, (1, 1, 4), (60, 197, 70)).chunk_bytes == 48

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("q", PACKING_QS)
    def test_matches_bitwise_reference(self, q, k, rng):
        p = CodeParams(k, q, (1,) * k, (1,) * k, check=False)
        c = p.chunk_bytes
        assert c * 8 == k * p.n * bits_per_symbol(q)
        for length in (0, 1, c - 1, c, c + 1, 2 * c + 1, 3 * c):
            data = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
            blocks = chunk_file(data, p)
            expected = bitwise_chunk_file(data, p)
            assert blocks.dtype == np.uint8 and expected.dtype == np.int64
            assert blocks.shape == expected.shape
            assert np.array_equal(blocks, expected)
            assert blocks.shape[0] == -(-length // c)
            for stored in (blocks, blocks.astype(np.uint16)):
                assert unchunk(stored, length, p) == bitwise_unchunk(stored, length, p) == data

    @given(st.binary(max_size=400), st.sampled_from(PACKING_QS))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_k2(self, data, q):
        p = CodeParams(2, q, (1, 1), (1, 1), check=False)
        blocks = chunk_file(data, p)
        assert blocks.ndim == 3 and blocks.shape[1:] == (2, 8)
        assert unchunk(blocks, len(data), p) == data

    def test_round_trip_byte_mode(self):
        p = CodeParams(3, 257, (1, 1, 4), (60, 197, 70))
        data = bytes(range(256)) * 3
        blocks = chunk_file(data, p)
        assert unchunk(blocks, len(data), p) == data

    def test_empty_file(self, demo_k2):
        blocks = chunk_file(b"", demo_k2)
        assert blocks.shape == (0, 2, 8)
        assert unchunk(blocks, 0, demo_k2) == b""

    def test_chunk_capacity_exact(self, demo_k2):
        # k*N symbols at 2 bits each = 4 bytes per chunk
        blocks = chunk_file(b"abcd", demo_k2)
        assert blocks.shape[0] == 1
        blocks = chunk_file(b"abcde", demo_k2)
        assert blocks.shape[0] == 2

    def test_unchunk_rejects_out_of_range_symbol(self):
        p = CodeParams(3, 257, (1, 1, 4), (60, 197, 70))
        blocks = chunk_file(b"hello world", p).astype(np.int64)
        blocks[0, 0, 0] = 256  # valid field element, invalid packed byte
        with pytest.raises(ValueError, match="^corrupt symbol stream"):
            unchunk(blocks, 11, p)

    def test_byte_mode_rejects_negative_symbol(self):
        # a narrowing cast alone would wrap -1 to 255 (and 256, above, to 0)
        p = search_params(3, 257)
        blocks = chunk_file(b"hello world", p).astype(np.int64)
        blocks[0, 1, 2] = -1
        with pytest.raises(ValueError, match="^corrupt symbol stream"):
            unchunk(blocks, 11, p)

    def test_unchunk_rejects_bad_length(self, demo_k2):
        blocks = chunk_file(b"abcd", demo_k2)
        with pytest.raises(ValueError):
            unchunk(blocks, 5, demo_k2)


class TestDecodeAgainstMatrixOracle:
    def test_two_missing_systematic_solves_exact_system(self, demo_k2, rng):
        # the paired solver's answer satisfies both parity equations mod q,
        # and the per-position determinant A_2 - A_1 is nonzero, so the
        # answer is the system's only solution
        p = demo_k2
        parts = rng.integers(0, p.q, size=(p.k, p.n), dtype=np.int64)
        word = encode(p, parts)
        got = decode(p, {3: word[2], 4: word[3]})
        a1 = coding_matrix(p, 1).astype(np.int64)
        a2 = coding_matrix(p, 2).astype(np.int64)
        assert np.array_equal((got[0] + got[1]) % p.q, word[2])
        assert np.array_equal((a1 * got[0] + a2 * got[1]) % p.q, word[3])
        assert np.all((a2 - a1) % p.q != 0)
