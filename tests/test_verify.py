"""Grading a code: pinned verify_params failure transcripts, the module
boundary, and the rank conditions over random valid coefficient sets."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hadamard_msr
from hadamard_msr import repair, verify
from hadamard_msr.codec import CodeParams, _candidate_pairs, _cross_compatible
from hadamard_msr.field import is_prime
from hadamard_msr.verify import verify_params, verify_rank_conditions

# verify_params on two broken k=2 sets, line for line.  The first breaks the
# norm and cross constraints, which the rank conditions see at the second
# parity; the second has a zero coding-diagonal entry, so node 4's plan
# pieces have no inverse and its rank condition is the sentinel.
BROKEN_TRANSCRIPTS = [
    (
        CodeParams(2, 7, (3, 1), (1, 4), check=False),
        [
            "parameters: k=2 q=7 a=3,1 b=1,4",
            "FAIL coefficient constraint: a_1^2 - b_1^2 != -1 (mod 7)",
            "FAIL coefficient constraint: s*a_1 + t*a_2 = +-(b_1 - b_2) (mod 7) "
            "for some signs s, t",
            "ok: coding matrix entries all nonzero",
            "FAIL coding matrices: shared entry between two nodes",
            "ok: inverse coding matrices verified",
            "FAIL erasure decoding: patterns [(1, 2)] do not round-trip",
            "FAIL rank condition: node 4 recover: expected rank 8, "
            "pairs inconsistent, elimination rank 6",
            "FAIL rank condition: node 4 interference from node 2: expected rank 4, "
            "pairs inconsistent, elimination rank 8",
        ],
    ),
    (
        CodeParams(2, 7, (1, 1), (5, 4), check=False),
        [
            "parameters: k=2 q=7 a=1,1 b=5,4",
            "FAIL coefficient constraint: a_1^2 - b_1^2 != -1 (mod 7)",
            "FAIL coding matrices: zero entry found",
            "ok: coding matrices pairwise distinct at every entry",
            "FAIL coding matrices: division by zero",
            "FAIL erasure decoding: patterns [(1, 3)] do not round-trip",
            "FAIL rank condition: node 4 coding diagonal not invertible: "
            "expected rank 8, pairs inconsistent, elimination rank 0",
        ],
    ),
]


@pytest.mark.parametrize("params, lines", BROKEN_TRANSCRIPTS, ids=["rank", "no-inverse"])
def test_broken_params_transcript(params, lines):
    assert verify_params(params) == (False, lines)


def test_repair_holds_no_verification():
    moved = (
        "encode",
        "decode",
        "coefficient_violations",
        "verify_params",
        "verify_rank_conditions",
        "RankCondition",
        "RankReport",
        "_rank_condition",
    )
    assert [name for name in moved if hasattr(repair, name)] == []
    assert hadamard_msr.verify_rank_conditions is verify.verify_rank_conditions
    # pair_ok is derived from the ranks, never stored beside them
    assert "pair_ok" not in {f.name for f in fields(verify.RankCondition)}


PRIMES = [q for q in range(7, 32750) if is_prime(q)]


@st.composite
def valid_sets(draw):
    """(k, q, a, b): k in 2..5, a prime q from 2k+3 to 32,749, and the pairs
    of _candidate_pairs(q) in random order, each kept when it is compatible
    with every pair kept before it."""
    k = draw(st.integers(2, 5))
    q = draw(st.sampled_from([p for p in PRIMES if p >= 2 * k + 3]))
    pairs = _candidate_pairs(q)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(pairs))
    chosen = []
    for i in order:
        if len(chosen) == k:
            break
        if all(_cross_compatible(q, *pairs[i], *c) for c in chosen):
            chosen.append(pairs[i])
    assume(len(chosen) == k)
    return k, q, tuple(a for a, _ in chosen), tuple(b for _, b in chosen)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(valid_sets())
def test_random_valid_sets_pass(case):
    k, q, a, b = case
    params = CodeParams(k, q, a, b)
    ok, lines = verify_params(params)
    assert ok, lines
    report = verify_rank_conditions(params)
    assert report.ok
    assert len(report.conditions) == k * (k + 2)
    assert all(c.methods_agree for c in report.conditions)
