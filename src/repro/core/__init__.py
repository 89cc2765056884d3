"""The paper's primary contribution: fragmentation, QEG and caching.

This package implements Sections 3 and 4 of the paper: IDable nodes
and local (ID) information, data partitioning with invariants I1/I2,
the per-node status scheme, query-evaluate-gather, generalized
(cacheable) subquery answers with invariants C1/C2, query-based
consistency, ownership migration and the nesting-depth extensions.
"""

from repro.core.answer import AnswerBuilder, Subquery
from repro.core.consistency import (
    extract_tolerance,
    has_consistency_predicates,
    rewrite_consistency_sugar,
    strip_consistency_predicates,
    tolerance_predicate,
    transform_expression,
)
from repro.core.database import SensorDatabase
from repro.core.evolution import (
    add_idable_child,
    remove_idable_child,
    rename_field,
)
from repro.core.errors import (
    CacheError,
    CoreError,
    InvariantViolation,
    PartitionError,
    QueryRoutingError,
    UnknownNodeError,
    UnsupportedDistributedQueryError,
)
from repro.core.executors import (
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)
from repro.core.gather import GatherDriver, GatherError, GatherOutcome
from repro.core.lru import LRUCache
from repro.core.idable import (
    find_by_id_path,
    format_id_path,
    id_path_of,
    id_stub,
    idable_children,
    is_idable,
    iter_idable,
    local_id_information,
    local_information,
    lowest_idable_ancestor_or_self,
    node_id,
    non_idable_children,
)
from repro.core.invariants import (
    fragment_violations,
    ownership_violations,
    structural_violations,
    validate_deployment,
    violations_against_reference,
)
from repro.core.ownership import (
    accept_ownership,
    export_local_information,
    relinquish_ownership,
)
from repro.core.partition import PartitionPlan, build_site_database
from repro.core.qeg import CompiledPattern, QEGResult, compile_pattern, run_qeg
from repro.core.schema import HierarchySchema
from repro.core.status import (
    Status,
    get_status,
    get_timestamp,
    set_status,
    set_timestamp,
)
from repro.core.subquery import render_id_path_query, render_residual_query

__all__ = [
    "SensorDatabase",
    "Status",
    "HierarchySchema",
    "PartitionPlan",
    "build_site_database",
    "GatherDriver",
    "GatherOutcome",
    "GatherError",
    "AnswerBuilder",
    "Subquery",
    "CompiledPattern",
    "QEGResult",
    "compile_pattern",
    "run_qeg",
    "LRUCache",
    "SerialExecutor",
    "ThreadedExecutor",
    "resolve_executor",
    "is_idable",
    "idable_children",
    "non_idable_children",
    "node_id",
    "id_path_of",
    "id_stub",
    "format_id_path",
    "find_by_id_path",
    "iter_idable",
    "local_information",
    "local_id_information",
    "lowest_idable_ancestor_or_self",
    "get_status",
    "set_status",
    "get_timestamp",
    "set_timestamp",
    "structural_violations",
    "violations_against_reference",
    "ownership_violations",
    "fragment_violations",
    "validate_deployment",
    "export_local_information",
    "accept_ownership",
    "relinquish_ownership",
    "rewrite_consistency_sugar",
    "strip_consistency_predicates",
    "has_consistency_predicates",
    "tolerance_predicate",
    "extract_tolerance",
    "transform_expression",
    "add_idable_child",
    "remove_idable_child",
    "rename_field",
    "render_id_path_query",
    "render_residual_query",
    "CoreError",
    "PartitionError",
    "InvariantViolation",
    "UnknownNodeError",
    "CacheError",
    "QueryRoutingError",
    "UnsupportedDistributedQueryError",
]
