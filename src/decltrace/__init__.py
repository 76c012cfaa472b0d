"""Trace enumeration for declarative processes.

A declarative process pairs an activity alphabet with precedence, response,
and successor constraints; its traces are the duplicate-free activity
sequences violating none of them.  The library computes the full trace set
by enumerating the realizable trace images (down-sets of the occurrence
preorder with an antisymmetric internal order) and generating the linear
extensions of each image poset, merged lazily by length.
"""

from .linext import (
    Poset,
    count_linear_extensions,
    induced_subposet,
    iter_linear_extensions,
    linear_extensions,
    restrict_extension,
)
from .model import (
    Activity,
    Constraint,
    ConstraintKind,
    DeclarativeProcess,
    ParseError,
    ProcessClass,
    Trace,
    classify,
    expand_successors,
    make_process,
    parse_process,
    render_process,
    satisfies,
)
from .oracle import SizeLimitError, brute_force_traces, subperms
from .possim import (
    DownSet,
    Independence,
    PossimContext,
    downward_closure,
    enumerate_possim,
    is_independent,
    max_elements,
)
from .quotient import QuotientPoset, condense, expand_downset
from .relations import (
    BinaryRelation,
    closure,
    hasse_pairs,
    implied_occurrence,
    is_antisymmetric,
    is_partial_order,
    is_preorder,
    order_on_downset,
    order_preserving,
    restrict,
    transpose,
)
from .traces import (
    count_by_length,
    count_traces,
    iter_traces,
    maximum_image,
    traces,
    traces_general,
    traces_precedence_only,
    traces_response_only,
    traces_successor_only,
)

__version__ = "0.1.0"

__all__ = [
    "Activity",
    "BinaryRelation",
    "Constraint",
    "ConstraintKind",
    "DeclarativeProcess",
    "DownSet",
    "Independence",
    "ParseError",
    "Poset",
    "PossimContext",
    "ProcessClass",
    "QuotientPoset",
    "SizeLimitError",
    "Trace",
    "brute_force_traces",
    "classify",
    "closure",
    "condense",
    "count_by_length",
    "count_linear_extensions",
    "count_traces",
    "downward_closure",
    "enumerate_possim",
    "expand_downset",
    "expand_successors",
    "hasse_pairs",
    "implied_occurrence",
    "induced_subposet",
    "is_antisymmetric",
    "is_independent",
    "is_partial_order",
    "is_preorder",
    "iter_linear_extensions",
    "iter_traces",
    "linear_extensions",
    "make_process",
    "max_elements",
    "maximum_image",
    "order_on_downset",
    "order_preserving",
    "parse_process",
    "render_process",
    "restrict",
    "restrict_extension",
    "satisfies",
    "subperms",
    "traces",
    "traces_general",
    "traces_precedence_only",
    "traces_response_only",
    "traces_successor_only",
    "transpose",
    "__version__",
]
