"""holoball: modulus-gradient Schwarz-Pick bounds for holomorphic maps
between complex unit balls.

The gradient of |f| for a holomorphic map f between unit balls satisfies
the sharp bound (1 - |f(z)|^2) / (1 - |z|^2); this package computes that
gradient in closed form, checks the bound, constructs and diagnoses the
equality cases, and stress-tests everything against a finite-difference
oracle over randomized certified maps.
"""

from .complexcore import (
    herm_inner,
    sample_unit_sphere,
    spectral_norm,
    vnorm,
)
from .errors import (
    CertificationError,
    DomainError,
    InputError,
    PreconditionError,
    SchemaError,
)
from .extremal import (
    Diagnosis,
    ExtremalSpec,
    diagnose_equality_form,
    extremal_nonzero_case,
    extremal_zero_case,
)
from .geometry import BoundFactor, DiskSlice, bound_factor, disk_slice
from .harness import (
    CampaignReport,
    FuzzConfig,
    counterexample_map,
    force_zero_at,
    fuzz_campaign,
    gen_random_polymap,
    sample_ball_points,
)
from .holomap import (
    AffineScalar,
    HoloMap,
    LineEmbed,
    LinearFunctional,
    MobiusDisk,
    MobiusQuotient,
    Pipeline,
    PolyMap,
    ScalarTimesVector,
    emit_spec,
    parse_spec,
)
from .schwarzpick import (
    BoundReport,
    GradResult,
    equality_gap,
    mod_grad,
    mod_grad_fd,
    mod_grad_fd_many,
    sp_bound,
    sp_bound_many,
    sp_bound_slice,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "herm_inner",
    "vnorm",
    "spectral_norm",
    "sample_unit_sphere",
    "InputError",
    "SchemaError",
    "DomainError",
    "PreconditionError",
    "CertificationError",
    "HoloMap",
    "PolyMap",
    "MobiusDisk",
    "MobiusQuotient",
    "LineEmbed",
    "LinearFunctional",
    "ScalarTimesVector",
    "AffineScalar",
    "Pipeline",
    "parse_spec",
    "emit_spec",
    "DiskSlice",
    "disk_slice",
    "BoundFactor",
    "bound_factor",
    "GradResult",
    "BoundReport",
    "mod_grad",
    "mod_grad_fd",
    "mod_grad_fd_many",
    "sp_bound",
    "sp_bound_many",
    "sp_bound_slice",
    "equality_gap",
    "ExtremalSpec",
    "extremal_zero_case",
    "extremal_nonzero_case",
    "Diagnosis",
    "diagnose_equality_form",
    "FuzzConfig",
    "CampaignReport",
    "gen_random_polymap",
    "force_zero_at",
    "sample_ball_points",
    "fuzz_campaign",
    "counterexample_map",
]
