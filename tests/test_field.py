from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hadamard_msr.codec import demo_params
from hadamard_msr.field import PrimeField, is_prime
from hadamard_msr.repair import build_repair_plan

from conftest import SMALL_PRIMES


def field_and_elements(draw, count):
    q = draw(st.sampled_from(SMALL_PRIMES))
    xs = [draw(st.integers(0, q - 1)) for _ in range(count)]
    return PrimeField(q), xs


def demo_plan(k, failed, **changes):
    """The demo `new` repair plan for node `failed`, with some constants swapped.

    Field operation counts come from RepairPlan.cost(); swapping a plan's
    constants is how these tests probe the counting convention.
    """
    return replace(build_repair_plan(demo_params(k), failed, "new"), **changes)


def free_cancel(plan):
    """Cancel diagonals of all ones, so the cancel phase costs adds only."""
    return {l: np.ones_like(d) for l, d in plan.cancel_diagonals.items()}


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(-3, 32):
            assert is_prime(n) == (n in primes)

    def test_larger(self):
        assert is_prime(32749)
        assert not is_prime(32767)  # 7 * 31 * 151


class TestConstruction:
    def test_accepts_odd_primes(self):
        for q in SMALL_PRIMES:
            assert PrimeField(q).q == q

    @pytest.mark.parametrize("q", [4, 6, 9, 15, 2, 3, 5, -7, 32767, 1 << 15, 65537])
    def test_rejects_bad_modulus(self, q):
        with pytest.raises(ValueError):
            PrimeField(q)


class TestScalarOps:
    @given(st.data())
    def test_inverse(self, data):
        f, (x,) = field_and_elements(data.draw, 1)
        if x == 0:
            with pytest.raises(ZeroDivisionError):
                f.inv(x)
        else:
            assert x * f.inv(x) % f.q == 1

    def test_free_constants(self):
        # scaling by 0, 1 or q-1 is free; every other constant costs a mul
        plan = demo_plan(3, 1)
        q = plan.params.q
        assert q == 11
        free = []
        for c in range(q):
            diagonals = {l: np.full_like(d, c) for l, d in plan.cancel_diagonals.items()}
            muls = replace(plan, cancel_diagonals=diagonals).cost()["cancel"][1]
            size = sum(d.size for d in diagonals.values())
            assert muls in (0, size)
            if muls == 0:
                free.append(c)
        assert free == [0, 1, 10]


class TestCounting:
    def test_add_and_sub_cost_one(self):
        plan = demo_plan(2, 1)
        plan = replace(plan, cancel_diagonals=free_cancel(plan))
        n = plan.params.n
        costs = {
            sign: replace(plan, cancel_sign=sign).cost()["cancel"] for sign in (1, -1)
        }
        # each cancel node is added to (or subtracted from) u1 and u2
        assert costs[1] == costs[-1] == (n * len(plan.cancel_nodes), 0)

    def test_mul_free_operand_costs_nothing(self):
        plan = demo_plan(2, 1)
        q, n = plan.params.q, plan.params.n
        half = plan.recover_map.j1.size
        free = replace(
            plan.recover_map,
            w11=np.ones(half, dtype=np.int64),
            w12=np.full(half, q - 1),  # -1, free sign flip
            w21=np.zeros(half, dtype=np.int64),
            w22=np.ones(half, dtype=np.int64),
        )
        assert replace(plan, recover_map=free).cost()["recover"] == (n, 0)
        w22 = free.w22.copy()
        w22[0] = 3
        costly = replace(free, w22=w22)
        assert replace(plan, recover_map=costly).cost()["recover"] == (n, 1)

    def test_vector_helpers(self):
        # folding one payload into u1 and u2 is two length-N/2 vector sums
        plan = demo_plan(3, 1)
        plan = replace(plan, cancel_diagonals=free_cancel(plan))
        n = plan.params.n
        assert len(plan.cancel_nodes) == 2
        for m in range(len(plan.cancel_nodes) + 1):
            fewer = replace(plan, cancel_nodes=plan.cancel_nodes[:m])
            assert fewer.cost()["cancel"] == (m * n, 0)

    def test_diag_mul_counts_only_costly_constants(self):
        plan = demo_plan(2, 4)  # parity-2 repair: helpers premultiply
        q = plan.params.q
        assert q == 7
        ones = {l: np.ones_like(d) for l, d in plan.premultiply.items()}
        assert sorted(ones) == [1, 2]
        plain = replace(plan, premultiply=ones)
        base = plain.cost()["download"]
        assert base[1] == 0
        consts = np.array([0, 1, 6, 3, 5, 1, 1, 1])
        scaled = replace(plan, premultiply={**ones, 1: consts})
        x = np.full(8, 2)
        same = plain.helper_payload(1, [0, 2, 5, 6, 3, 2, 2, 2])
        assert np.array_equal(scaled.helper_payload(1, x), same)
        cost = scaled.cost()["download"]
        # only 3 and 5 cost a multiplication, and scaling adds nothing
        assert cost == (base[0], 2)


class TestLinearAlgebra:
    def test_rank(self):
        f = PrimeField(7)
        assert f.rank(np.eye(4, dtype=np.int64)) == 4
        singular = np.array([[1, 2], [2, 4]])
        assert f.rank(singular) == 1
        assert f.rank(np.zeros((3, 3), dtype=np.int64)) == 0
        # rank can differ from the rational rank: det = 7 = 0 mod 7
        wraps = np.array([[1, 3], [2, 13 % 7]])
        assert f.rank(wraps) == 1

    def test_inv_vec(self):
        f = PrimeField(7)
        vals = np.array([1, 2, 3, 4, 5, 6])
        assert np.array_equal(vals * f.inv_vec(vals) % 7, np.ones(6, dtype=np.int64))
        with pytest.raises(ZeroDivisionError):
            f.inv_vec(np.array([1, 0]))
