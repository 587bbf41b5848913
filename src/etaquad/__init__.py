"""Exact integer engine for the coefficients of
q * prod_k (1 - q^(a*k))^3 (1 - q^(b*k))^3 and for representations of
integers by positive-definite binary quadratic forms, plus a harness
that verifies the constructive identities tying the two together for
primes p = a*x^2 + b*y^2.
"""

from .arith import divisor_sums, is_prime, kronecker, sieve_primes
from .closed import CLOSED_FAMILIES, closed_form
from .errors import InternalInconsistencyError, PartitionCapError, ResourceLimitError
from .etaseries import (
    DEFAULT_PARTITION_CAP,
    METHODS,
    CoeffTable,
    LambdaParams,
    lambda_at,
    lambda_from_reps,
    lambda_multinomial,
    lambda_table,
    partition_terms,
)
from .quadform import (
    ClassGroup,
    QuadForm,
    RepSet,
    class_group,
    find_rep,
    lattice_points,
    normalized_reps,
    representations,
)
from .theorems import (
    FALSIFIED,
    HOLDS,
    NOT_APPLICABLE,
    ConstructionCase,
    RangeReport,
    TableCache,
    Verdict,
    case_arity,
    case_ids,
    make_case,
    range_report,
    verify_construction,
    verify_product,
    verify_thm53,
)

__version__ = "0.1.0"

__all__ = [
    "CLOSED_FAMILIES",
    "ClassGroup",
    "CoeffTable",
    "ConstructionCase",
    "DEFAULT_PARTITION_CAP",
    "FALSIFIED",
    "HOLDS",
    "InternalInconsistencyError",
    "LambdaParams",
    "METHODS",
    "NOT_APPLICABLE",
    "PartitionCapError",
    "QuadForm",
    "RangeReport",
    "RepSet",
    "ResourceLimitError",
    "TableCache",
    "Verdict",
    "case_arity",
    "case_ids",
    "class_group",
    "closed_form",
    "divisor_sums",
    "find_rep",
    "is_prime",
    "kronecker",
    "lambda_at",
    "lambda_from_reps",
    "lambda_multinomial",
    "lambda_table",
    "lattice_points",
    "make_case",
    "normalized_reps",
    "partition_terms",
    "range_report",
    "representations",
    "sieve_primes",
    "verify_construction",
    "verify_product",
    "verify_thm53",
]
