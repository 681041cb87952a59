"""mmskit: exact maximin-share (MMS) allocation toolkit.

Computes allocations of indivisible goods guaranteeing every agent at least
alpha times her maximin share, for any alpha up to 3/4 + 3/3836, and verifies
every result against an exact branch-and-bound oracle. All arithmetic is
exact rational.
"""

__version__ = "0.1.0"

from .core import (
    Allocation,
    Bundle,
    Instance,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    is_ordered,
    rat,
    value,
)
from .errors import (
    BoundsError,
    ContractViolation,
    DomainError,
    GuaranteeViolation,
    MmsKitError,
    OracleBudgetExceeded,
)
from .oracle import mms, mms_exhaustive
from .transforms import (
    RuleId,
    apply_rule,
    lift_allocation,
    lift_ordered_allocation,
    normalize,
    order,
    reduce,
    to_delta_oni,
)
from .allocators import (
    ALPHA_MAX,
    DELTA_DEFAULT,
    SolveInfo,
    approx_mms1,
    approx_mms2,
    bag_fill,
    classify_agents,
    complete_allocation,
    solve,
)
from .verify import (
    VerificationReport,
    check_alpha_mms,
    check_oni,
    check_reduction_validity,
    check_structural_lemmas,
)
from .gen import generate

__all__ = [
    "__version__",
    "Allocation", "Bundle", "Instance",
    "allocation_from_json", "allocation_to_json",
    "instance_from_json", "instance_to_json",
    "is_ordered", "rat", "value",
    "BoundsError", "ContractViolation", "DomainError",
    "GuaranteeViolation", "MmsKitError", "OracleBudgetExceeded",
    "mms", "mms_exhaustive",
    "RuleId", "apply_rule", "lift_allocation", "lift_ordered_allocation",
    "normalize", "order", "reduce", "to_delta_oni",
    "ALPHA_MAX", "DELTA_DEFAULT", "SolveInfo",
    "approx_mms1", "approx_mms2", "bag_fill", "classify_agents",
    "complete_allocation", "solve",
    "VerificationReport", "check_alpha_mms", "check_oni",
    "check_reduction_validity", "check_structural_lemmas",
    "generate",
]
