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
    FAMILY_TREE_CAP,
    FamilyTree,
    StreamStats,
    build_family_tree,
    delta_stream,
    export_dot,
    gray_code,
)
from .oracle import (
    ALL_CHECKS,
    ENUMERATION_CAP,
    VerificationReport,
    catalan,
    enumerate_all,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyViolationError",
    "ALL_CHECKS",
    "Case",
    "CaseExhaustionError",
    "Delta",
    "ENUMERATION_CAP",
    "FAMILY_TREE_CAP",
    "FORBIDDEN_CASES",
    "FamilyTree",
    "ForbiddenCaseError",
    "InvalidLevelSequence",
    "NotAdjacentError",
    "OrderedTree",
    "StreamStats",
    "VerificationReport",
    "apply_delta",
    "build_family_tree",
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
