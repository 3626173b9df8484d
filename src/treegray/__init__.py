"""Gray code for ordered trees.

Lists all ordered trees with n vertices so that each tree follows from its
predecessor by deleting one leaf and appending one leaf, streamed in O(n)
memory, with an independent brute-force oracle for verification.
"""
from .tree import (
    InvalidLevelSequence,
    OrderedTree,
    decode_parens,
    encode_parens,
    parse_tree,
)
from .relations import (
    Delta,
    NotAdjacentError,
    apply_delta,
    delta,
    has_pony_tail,
    is_adjacent,
    is_copying,
)
from .ordering import (
    FORBIDDEN_CASES,
    AdjacencyViolationError,
    Case,
    CaseExhaustionError,
    ForbiddenCaseError,
    check_co1,
    format_case_histogram,
)
from .generator import (
    StreamStats,
    delta_stream,
    export_dot,
    gray_code,
)
from .oracle import (
    VerificationReport,
    catalan,
    enumerate_all,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyViolationError",
    "Case",
    "CaseExhaustionError",
    "Delta",
    "FORBIDDEN_CASES",
    "ForbiddenCaseError",
    "InvalidLevelSequence",
    "NotAdjacentError",
    "OrderedTree",
    "StreamStats",
    "VerificationReport",
    "apply_delta",
    "catalan",
    "check_co1",
    "decode_parens",
    "delta",
    "delta_stream",
    "encode_parens",
    "enumerate_all",
    "export_dot",
    "format_case_histogram",
    "gray_code",
    "has_pony_tail",
    "is_adjacent",
    "is_copying",
    "parse_tree",
    "verify",
]
