"""Exact spherical Hecke algebra toolkit.

Exact-arithmetic model of graded bi-invariant elements for split root
data: the transform to Weyl-character coordinates, basic elements whose
transform is the graded L-series, Fourier kernels with their truncated
identity verifiers, and a numeric toolkit for the gamma-based
archimedean factors and decay thresholds.
"""

import sys

from .errors import (
    GradeMismatchError,
    InvalidInput,
    LengthMismatchError,
    NonDominantError,
    PoleError,
    WeylCapError,
    WindowError,
)
from .kostka import kostant_q, lusztig_q_analogue
from .laurent import Laurent
from .rootdata import (
    RepSpec,
    RootDatum,
    build_gl,
    build_preset,
    datum_from_json,
    datum_to_json,
    dominant_below,
    l_constant,
    sigma_grade,
)
from .satake import (
    GradedElement,
    Window,
    cell,
    convolve,
    dual,
    eval_numeric,
    identity_element,
    inverse_satake,
    specialize,
    twist,
)
from .lseries import (
    SchwartzElement,
    VerifyReport,
    basic_function,
    fourier,
    gamma_kernel,
    inverse_l_element,
    l_series,
    membership_witness,
    verify_fixed_point,
    verify_gj_standard,
    verify_unitarity,
    zeta_closed_form,
    zeta_over_l,
)
from .characters import (
    dual_weight,
    ext_power_decomp,
    sym_power_decomp,
    weight_multiplicities,
    weyl_dim,
)
from .arch import (
    ArchParams,
    arch_params,
    c_rho_constant,
    cgamma,
    derivative_ratio,
    gamma_factor,
    lfactor_cplx,
    lfactor_real,
    seminorm_probe,
    stirling_ratio,
    threshold,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every ``functools.cache`` table in the package, the partition
    memo (held by ``kostka._context``) among them, for long-running library
    users; later calls refill them on demand with the same values."""
    for name, module in list(sys.modules.items()):
        if name == "sphecke" or name.startswith("sphecke."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
