import numpy as np
import pytest
from hypothesis import given, strategies as st

from hadamard_msr.design import (
    fast_hadamard_apply,
    hadamard_factors,
    lemma2_partner,
    sign_vector,
    sylvester,
)


class TestSignVector:
    def test_values_follow_bits(self):
        for k in range(1, 6):
            n = 1 << (k + 1)
            for i in range(k + 1):
                v = sign_vector(i, k)
                assert v.shape == (n,)
                for j in range(n):
                    assert v[j] == (-1) ** ((j >> i) & 1)

    def test_row_zero_alternates(self):
        assert sign_vector(0, 2).tolist() == [1, -1, 1, -1, 1, -1, 1, -1]

    def test_distinct_rows(self):
        k = 4
        rows = [tuple(sign_vector(i, k)) for i in range(k + 1)]
        assert len(set(rows)) == k + 1


class TestShiftRelation:
    def test_exhaustive_small_k(self):
        # shifting index j by 2^l flips exactly the l-th sign coordinate
        for k in range(1, 7):
            n = 1 << (k + 1)
            vectors = [sign_vector(i, k) for i in range(k + 1)]
            for l in range(k + 1):
                step = 1 << l
                for mu in range(n // (2 * step)):
                    for nu in range(step):
                        j = mu * 2 * step + nu
                        for i in range(k + 1):
                            lhs = vectors[i][j + step]
                            rhs = vectors[i][j]
                            assert lhs == (-rhs if i == l else rhs)


class TestMirrorPartner:
    def test_exhaustive_small_k(self):
        # the partner of j mirrors the top half with a parity twist:
        # row 0 keeps its sign there, every other row flips
        for k in range(1, 7):
            n = 1 << (k + 1)
            vectors = [sign_vector(i, k) for i in range(k + 1)]
            partners = [lemma2_partner(j, n) for j in range(n // 2)]
            assert sorted(partners) == list(range(n // 2, n))
            for j, p in enumerate(partners):
                assert vectors[0][p] == vectors[0][j]
                for i in range(1, k + 1):
                    assert vectors[i][p] == -vectors[i][j]

    def test_formula(self):
        assert lemma2_partner(0, 8) == 6
        assert lemma2_partner(1, 8) == 7
        assert lemma2_partner(2, 8) == 4
        assert lemma2_partner(3, 8) == 5

    def test_rejects_upper_half(self):
        with pytest.raises(ValueError):
            lemma2_partner(4, 8)


class TestSylvester:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_orthogonality(self, k):
        h = sylvester(k)
        n = 1 << k
        assert h.shape == (n, n)
        assert set(np.unique(h)) <= {-1, 1}
        assert np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))

    def test_doubling_structure(self):
        h2 = sylvester(2)
        h1 = sylvester(1)
        assert np.array_equal(h2[:2, :2], h1)
        assert np.array_equal(h2[:2, 2:], h1)
        assert np.array_equal(h2[2:, :2], h1)
        assert np.array_equal(h2[2:, 2:], -h1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sylvester(0)


class TestFastTransform:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_dense_and_counts(self, k):
        n = 1 << k
        rng = np.random.default_rng(k)
        z = rng.integers(0, 7, size=n, dtype=np.int64)
        out = fast_hadamard_apply(z.copy(), q=7)
        assert np.array_equal(out, sylvester(k) @ z % 7)

    def test_unreduced_matches_dense(self):
        rng = np.random.default_rng(3)
        z = rng.integers(-5, 6, size=16, dtype=np.int64)
        assert np.array_equal(fast_hadamard_apply(z.copy()), sylvester(4) @ z)

    @given(st.integers(1, 6), st.data())
    def test_involution_up_to_scale(self, k, data):
        n = 1 << k
        q = 17
        z = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
        twice = fast_hadamard_apply(fast_hadamard_apply(z.copy(), q=q), q=q)
        assert np.array_equal(twice, z * n % q)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_stacked_rows_match_dense(self, k):
        # k = 0 is a length-1 row, where both Kronecker factors are 1x1 and
        # the transform is the identity
        n = 1 << k
        dense = sylvester(k) if k else np.ones((1, 1), dtype=np.int64)
        z = np.random.default_rng(k).integers(-6, 7, size=(2, 3, n), dtype=np.int64)
        assert np.array_equal(fast_hadamard_apply(z, q=13), z @ dense.T % 13)
        assert np.array_equal(fast_hadamard_apply(z), z @ dense.T)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_unreduced_input_with_modulus(self, k):
        # reduced mod q before the matmuls: negative and ~2^40 inputs must
        # neither overflow nor change the residues
        n = 1 << k
        q = 257
        rng = np.random.default_rng(100 + k)
        big = 1 << 40
        z = rng.integers(-big, big, size=(4, n), dtype=np.int64)
        z[0, 0], z[1, -1], z[2, 0] = big - 1, -big, -1
        expected = (z % q) @ sylvester(k) % q
        assert np.array_equal(fast_hadamard_apply(z, q=q), expected)

    def test_input_not_modified(self):
        z = np.arange(-8, 8, dtype=np.int64)
        before = z.copy()
        fast_hadamard_apply(z, q=5)
        fast_hadamard_apply(z)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("k", range(0, 11))
    def test_factors_split_the_sylvester_matrix(self, k):
        # one cached, read-only split per length, at most 2^ceil(k/2) square
        h_a, h_b = hadamard_factors(1 << k)
        dense = sylvester(k) if k else np.ones((1, 1), dtype=np.int64)
        assert np.array_equal(np.kron(h_a, h_b), dense)
        assert (h_a.shape[0], h_b.shape[0]) == (1 << k // 2, 1 << (k - k // 2))
        assert not (h_a.flags.writeable or h_b.flags.writeable)
        assert all(a is b for a, b in zip(hadamard_factors(1 << k), (h_a, h_b)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fast_hadamard_apply(np.arange(6))
        with pytest.raises(ValueError):
            fast_hadamard_apply(np.zeros((2, 0), dtype=np.int64))


class TestHalfTransform:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_block_matrix(self, k, sign):
        # the half-height block matrix [H | sign*H] applied to a
        # length-2^(k+1) vector is one transform after a signed combine,
        # the identity a Sylvester-basis helper payload rests on
        n = 1 << k
        q = 13
        rng = np.random.default_rng(10 * k + sign)
        z = rng.integers(0, q, size=2 * n, dtype=np.int64)
        h = sylvester(k)
        dense = np.hstack([h, sign * h])
        out = fast_hadamard_apply(z[:n] + sign * z[n:], q=q)
        assert np.array_equal(out, dense @ z % q)
