"""Exact local arithmetic of elliptic curves over Q: Tate's algorithm,
component groups, local Selmer-structure orders, and the global order
identities they satisfy."""

from .curves import (
    FiniteFieldCurve,
    FiniteFieldPoint,
    SingularCurveError,
    Transformation,
    WeierstrassCurve,
    count_p_torsion_mod,
    parse_ainvs,
    transform,
)
from .euler import EulerLedger, global_torsion_order, verify_main_theorem
from .lmfdb import OracleRecord, fetch_curve
from .localorders import (
    InconsistentLocalData,
    LocalSelmerOrders,
    Place,
    assemble_local_orders,
    division_polynomial,
    local_torsion_order,
)
from .padic import (
    IntegerPolynomial,
    PadicRoot,
    PrecisionExhausted,
    find_roots_padic,
    valuation,
)
from .tate import (
    KodairaType,
    LocalData,
    phi_p_part_order,
    tate_local,
)

__version__ = "0.1.0"

__all__ = [
    "WeierstrassCurve", "Transformation", "transform", "parse_ainvs",
    "SingularCurveError", "FiniteFieldCurve", "FiniteFieldPoint",
    "count_p_torsion_mod",
    "KodairaType", "LocalData", "tate_local",
    "phi_p_part_order",
    "Place", "LocalSelmerOrders", "InconsistentLocalData",
    "division_polynomial", "local_torsion_order",
    "assemble_local_orders",
    "EulerLedger", "global_torsion_order", "verify_main_theorem",
    "OracleRecord", "fetch_curve",
    "IntegerPolynomial", "PadicRoot", "PrecisionExhausted",
    "valuation", "find_roots_padic",
    "__version__",
]
