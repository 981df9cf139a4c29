"""Quantum and classical ergotropy through independent routes: direct sorted
rearrangement, relative-entropy identities, and geometric-state constructions,
plus conditional-thermal-state work bounds on desk-scale systems."""

from types import ModuleType as _ModuleType

from .classical import (
    GridDistribution,
    JointDistribution,
    PhaseGrid,
    StationarityProbeResult,
    TransitionKernel,
    classical_ergotropy,
    classical_relative_entropy,
    ergotropy_via_phi,
    grid_gibbs,
    inhomogeneity_phi,
    joint_from_kernel,
    joint_relative_entropy,
    microcanonical,
    permutation_min_bruteforce,
    sorted_pairing_divergence,
    stationarity_probe,
)
from .ergotropy import (
    ErgotropyReport,
    coherent_ergotropy_eq11,
    dephased_ergotropy,
    ergotropy_direct,
    ergotropy_report,
    ergotropy_via_entropies,
    passive_energy,
    passive_state,
)
from .errors import (
    EmptyShell,
    ErgokitError,
    NotConverged,
    SupportViolation,
)
from .geometric import (
    GeometricState,
    aligned_geometric_state,
    ergotropy_geometric,
    geometric_partition_closed_form,
    geometric_partition_function,
    geometric_relative_entropy,
    geometric_state_of,
    manifold_volume,
)
from .quantum import (
    DensityMatrix,
    GibbsState,
    HermitianOperator,
    SortedSpectrum,
    coherence_relative_entropy,
    dephase,
    eigendecompose,
    expectation,
    gibbs_state,
    quantum_relative_entropy,
    spectral_relative_entropy,
    von_neumann_entropy,
)
from .sampling import random_density, random_hermitian, stream
from .workbench import (
    ConditionalThermalState,
    DrivingProtocol,
    WorkReport,
    conditional_thermal_state,
    evolve_unitary,
    sharpened_bound_report,
    step_product,
)

__version__ = "0.1.0"

# Everything imported above is public; each name is listed once.
__all__ = sorted(
    name for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
