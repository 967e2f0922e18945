"""Bandwidth-optimal (k+2, k) erasure codes built on signed Hadamard structure.

The package covers the full pipeline: coefficient search and validation,
encode/decode over F_q, single-node repair that downloads half of each
helper's data under two interference-cancellation strategies, per-phase
field-operation costs derived from each repair plan, and a file-backed cluster with a CLI front end.
"""

from .codec import (
    CodeParams,
    DEMO_COEFFICIENTS,
    coefficient_violations,
    decode,
    demo_params,
    encode,
    find_coefficients,
    search_params,
    validate_coefficients,
)
from .design import fast_hadamard_apply, sign_vector, sylvester
from .field import PrimeField
from .metering import BenchTable, CostReport, emit_table, measure_repair
from .repair import RepairPlan, STRATEGIES, build_repair_plan, execute_repair
from .verify import verify_rank_conditions

__all__ = [
    "BenchTable",
    "CodeParams",
    "CostReport",
    "DEMO_COEFFICIENTS",
    "PrimeField",
    "RepairPlan",
    "STRATEGIES",
    "build_repair_plan",
    "coefficient_violations",
    "decode",
    "demo_params",
    "emit_table",
    "encode",
    "execute_repair",
    "fast_hadamard_apply",
    "find_coefficients",
    "measure_repair",
    "search_params",
    "sign_vector",
    "sylvester",
    "validate_coefficients",
    "verify_rank_conditions",
]

__version__ = "0.1.0"
