"""Grading a code: its coefficients, its decoding and its repair rank conditions.

Failures are reported, not raised, so `hmsr verify` can grade a broken or
tampered parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import (
    CodeParams,
    coding_matrix,
    coefficient_violations,
    decode,
    encode,
    inverse_coding_matrix,
)
from .repair import RepairMatrix, _pair_blocks, _plan_pieces


@dataclass(frozen=True)
class RankCondition:
    """One rank requirement, checked by pair determinants and by elimination.

    The stacked matrix [S; S~ D] decomposes into per-pair 2x2 blocks, so its
    rank is N/2 plus the number of nonzero block determinants: full rank N
    demands all nonzero (recover), and interference alignment demands all
    zero (rank N/2).  `predicted_rank` comes from the determinants,
    `elim_rank` from Gaussian elimination on the dense stack.
    """

    failed: int
    label: str
    expected_rank: int
    predicted_rank: int
    elim_rank: int

    @property
    def pair_ok(self) -> bool:
        return self.predicted_rank == self.expected_rank

    @property
    def methods_agree(self) -> bool:
        return self.predicted_rank == self.elim_rank

    @property
    def ok(self) -> bool:
        return self.predicted_rank == self.elim_rank == self.expected_rank


@dataclass(frozen=True)
class RankReport:
    params: CodeParams
    conditions: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self) -> list:
        return [c for c in self.conditions if not c.ok]


def _rank_condition(
    params: CodeParams,
    failed: int,
    label: str,
    s: RepairMatrix,
    s_tilde: RepairMatrix,
    diag: np.ndarray,
    full_rank: bool,
) -> RankCondition:
    q, n = params.q, params.n
    half = n // 2
    nonzero = int(np.count_nonzero(_pair_blocks(s, s_tilde, diag, q)[2]))
    stack = np.vstack([s.dense(q), s_tilde.dense(q) * diag[None, :] % q])
    return RankCondition(
        failed=failed,
        label=label,
        expected_rank=n if full_rank else half,
        predicted_rank=half + nonzero,
        elim_rank=params.field.rank(stack),
    )


def verify_rank_conditions(params: CodeParams) -> RankReport:
    """Check every repair's recover and interference rank requirement.

    Per failed node: the recover stack [S; S~ D] must reach full rank N, and
    each interfering helper's stack must collapse to rank N/2.  Both the
    pair-determinant argument and an elimination oracle are run; a condition
    passes only when they agree and match the expectation.  Reports failures
    instead of raising, so deliberately broken parameter sets can be graded.

    One pass covers both strategies.  The "original" stacks are kron(I_2, H)
    times these, with H the Sylvester matrix of order N/2; H^2 = (N/2) I and
    N/2 is invertible mod the odd prime q, so that factor is invertible and
    leaves every rank unchanged.
    """
    conditions = []
    for failed in range(1, params.k + 3):
        try:
            s, s_tilde, _, cancel_nodes, diag_recover, interference, _ = _plan_pieces(
                params, failed
            )
        except ZeroDivisionError:
            conditions.append(
                RankCondition(
                    failed=failed,
                    label="coding diagonal not invertible",
                    expected_rank=params.n,
                    predicted_rank=0,
                    elim_rank=0,
                )
            )
            continue
        cases = [("recover", diag_recover, True)] + [
            (f"interference from node {l}", interference[l], False) for l in cancel_nodes
        ]
        conditions += (
            _rank_condition(params, failed, label, s, s_tilde, diag, full_rank)
            for label, diag, full_rank in cases
        )
    return RankReport(params=params, conditions=tuple(conditions))


def verify_params(params: CodeParams) -> tuple[bool, list]:
    """Grade a parameter set; returns (ok, report lines).

    Checks the coefficient constraints, the coding matrices and their
    inverses, that every erasure pattern of up to two nodes decodes exactly,
    and the rank conditions, checked once for both strategies (see
    verify_rank_conditions).  Failures are reported, not raised.
    """
    lines = [
        f"parameters: k={params.k} q={params.q} "
        f"a={','.join(map(str, params.a))} b={','.join(map(str, params.b))}"
    ]
    ok = True
    problems = coefficient_violations(params.k, params.q, params.a, params.b)
    if problems:
        ok = False
        for p in problems:
            lines.append(f"FAIL coefficient constraint: {p}")
    else:
        lines.append(f"ok: coefficient constraints hold for k={params.k}, q={params.q}")

    try:
        diagonals = [coding_matrix(params, i) for i in range(1, params.k + 1)]
        if any(int(d.min()) == 0 for d in diagonals):
            ok = False
            lines.append("FAIL coding matrices: zero entry found")
        else:
            lines.append("ok: coding matrix entries all nonzero")
        distinct = all(
            np.all(diagonals[i] != diagonals[j])
            for i in range(params.k)
            for j in range(i + 1, params.k)
        )
        if distinct:
            lines.append("ok: coding matrices pairwise distinct at every entry")
        else:
            ok = False
            lines.append("FAIL coding matrices: shared entry between two nodes")
        inverses_ok = True
        for i in range(1, params.k + 1):
            product = coding_matrix(params, i) * inverse_coding_matrix(params, i) % params.q
            if not np.all(product == 1):
                ok = inverses_ok = False
                lines.append(f"FAIL inverse coding matrix {i}: product not identity")
        if inverses_ok:
            lines.append("ok: inverse coding matrices verified")
    except (ValueError, ZeroDivisionError) as exc:
        ok = False
        lines.append(f"FAIL coding matrices: {exc}")

    rng = np.random.default_rng(20240915)
    parts = rng.integers(0, params.q, size=(params.k, params.n), dtype=np.int64)
    word = encode(params, parts)
    nodes = list(range(1, params.k + 3))
    patterns = [()] + [(x,) for x in nodes] + [
        (x, y) for x in nodes for y in nodes if x < y
    ]
    bad = []
    for pattern in patterns:
        available = {n: word[n - 1] for n in nodes if n not in pattern}
        try:
            if not np.array_equal(decode(params, available), word):
                bad.append(pattern)
        except (ValueError, ZeroDivisionError):
            bad.append(pattern)
    if bad:
        ok = False
        lines.append(f"FAIL erasure decoding: patterns {bad} do not round-trip")
    else:
        lines.append(
            f"ok: all {len(patterns)} erasure patterns (up to two nodes) decode exactly"
        )

    report = verify_rank_conditions(params)
    count = len(report.conditions)
    if report.ok:
        lines.append(f"ok: rank conditions: {count}/{count} pass")
    else:
        ok = False
        for c in report.failures():
            lines.append(
                f"FAIL rank condition: node {c.failed} {c.label}: "
                f"expected rank {c.expected_rank}, pairs "
                f"{'consistent' if c.pair_ok else 'inconsistent'}, "
                f"elimination rank {c.elim_rank}"
            )
    return ok, lines
