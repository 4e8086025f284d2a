"""Exact spherical Hecke algebra toolkit.

Exact-arithmetic model of graded bi-invariant elements for split root
data: the transform to Weyl-character coordinates, basic elements whose
transform is the graded L-series, Fourier kernels with their truncated
identity verifiers, and a numeric toolkit for the gamma-based
archimedean factors and decay thresholds.
"""

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
    dominance_leq,
    dominant_below,
    l_constant,
    pair_rho_b,
    sigma_grade,
    validate_rho,
    weyl_elements,
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
    satake,
    satake_basis,
    specialize,
    twist,
)
from .lseries import (
    BasicFunction,
    KernelElement,
    SchwartzElement,
    VerifyReport,
    basic_coeff,
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
    decompose,
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
