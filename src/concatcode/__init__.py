"""Effective single-qubit channels under concatenated stabilizer coding.

The package derives, for an [n, 1] stabilizer code, the map that one
level of encode / product noise / syndrome recovery / decode induces on
single-qubit superoperators: its exact rational polynomial form on
diagonal (Pauli) channels, its full 4x4 Stokes form, the fixed points
and noise thresholds of its concatenated dynamics, and a dense
density-matrix simulator that validates all of it independently.
"""

from .channel import (
    DiagonalChannel,
    StokesChannel,
    depolarizing,
    dephasing,
    from_pauli_probs,
    is_valid_channel,
    max_entry_distance,
    parse_channel_literal,
    random_cptp,
    random_pauli_channel,
)
from .codingmap import (
    CConstants,
    DiagonalMapPolynomial,
    Monomial,
    c_constants,
    diagonal_map,
    general_map,
    general_map_exact,
)
from .dynamics import (
    FixedPointScan,
    GeneralBound,
    OrbitLevel,
    OrbitRecord,
    RaySpec,
    error_series,
    fixed_point_cross_check,
    fixed_points_1d,
    general_bound_check,
    iterate,
    jacobian_fd,
    jacobian_fd_full,
    threshold,
)
from .oracle import (
    LogicalBasis,
    build_logical_basis,
    extract_stokes,
    max_oracle_deviation,
)
from .pauli import PauliDimensionError, PauliString, eta
from .stabilizer import (
    CapabilityError,
    CodeSpecError,
    InvalidCodeError,
    StabilizerCode,
    ValidationReport,
    auto_recovery,
    builtin_names,
    get_code,
    load_code,
    parse_code_spec,
)

__version__ = "0.1.0"

__all__ = [
    "CConstants",
    "CapabilityError",
    "CodeSpecError",
    "DiagonalChannel",
    "DiagonalMapPolynomial",
    "FixedPointScan",
    "GeneralBound",
    "InvalidCodeError",
    "LogicalBasis",
    "Monomial",
    "OrbitLevel",
    "OrbitRecord",
    "PauliDimensionError",
    "PauliString",
    "RaySpec",
    "StabilizerCode",
    "StokesChannel",
    "ValidationReport",
    "auto_recovery",
    "build_logical_basis",
    "builtin_names",
    "c_constants",
    "dephasing",
    "depolarizing",
    "diagonal_map",
    "error_series",
    "eta",
    "extract_stokes",
    "fixed_point_cross_check",
    "fixed_points_1d",
    "from_pauli_probs",
    "general_bound_check",
    "general_map",
    "general_map_exact",
    "get_code",
    "is_valid_channel",
    "iterate",
    "jacobian_fd",
    "jacobian_fd_full",
    "load_code",
    "max_entry_distance",
    "max_oracle_deviation",
    "parse_channel_literal",
    "parse_code_spec",
    "random_cptp",
    "random_pauli_channel",
    "threshold",
]
