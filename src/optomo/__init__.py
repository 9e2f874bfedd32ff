"""optomo: optical tomograms of single-mode photon states, tomographic
uncertainty-relation checks, purity classification, and simulated homodyne
detection."""

from .errors import (
    ExtrapolationError,
    InputError,
    NumericalError,
    QuadratureError,
    ResolutionError,
    TruncationWarning,
)
from .homodyne import (
    HomodyneDataset,
    MomentEstimate,
    empirical_trifonov,
    estimate_moments,
    load_dataset_csv,
    sample,
    save_dataset_csv,
)
from .inequalities import (
    BOUND,
    InequalityReport,
    heisenberg_lhs,
    operator_trifonov_lhs,
    trifonov_lhs,
    trifonov_sweep,
)
from .moments import (
    moments_from_state,
    row_mean,
    row_variance,
    tomographic_mean,
    tomographic_moments,
    tomographic_variance,
)
from .purity import PurityReport, purity_classify, purity_overlap
from .states import (
    FockSuperposition,
    GaussianState,
    MixedState,
    MomentSet,
    analytic_moments,
    eval_momentum_wavefunction,
    eval_position_wavefunction,
    fock,
    load_state,
    save_state,
    state_from_dict,
    state_label,
    state_to_dict,
    thermal_state,
    vacuum,
)
from .tomography import (
    TomogramGrid,
    gaussian_row,
    load_tomogram_csv,
    optical_tomogram,
    save_tomogram_csv,
    symplectic_tomogram,
    tomogram_characteristic,
    tomogram_grid,
    uniform_phases,
)

__version__ = "0.1.0"
