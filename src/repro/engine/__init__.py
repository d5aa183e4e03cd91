"""Query engine: expressions, operators, planner, distributed executor.

The paper reuses Vertica's optimizer and execution engine unchanged
(section 4: "Eon runs Vertica's standard cost-based distributed optimizer,
generating query plans equivalent to Enterprise mode").  This package is
our stand-in: a columnar volcano-style engine over numpy with a
distributed planner that exploits co-segmentation for local joins and
group-bys, container/block pruning from min/max statistics, and the crunch
scaling mechanisms of section 4.4.
"""

from repro.engine.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    col,
    lit,
)
from repro.engine.operators import (
    AggregateSpec,
    JoinBuild,
    aggregate,
    hash_join,
    sort_limit,
)
from repro.engine.pipeline import EngineStats, PipelineCharges
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)

__all__ = [
    "Expr",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "FuncCall",
    "InList",
    "IsNull",
    "CaseWhen",
    "col",
    "lit",
    "AggregateSpec",
    "JoinBuild",
    "aggregate",
    "hash_join",
    "sort_limit",
    "EngineStats",
    "PipelineCharges",
    "PlanNode",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "JoinNode",
    "AggregateNode",
    "SortNode",
    "LimitNode",
]
