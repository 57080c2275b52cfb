"""Vacuum radiation pressure on a scattering mirror in 1+1 dimensions.

Frequency-domain response (scattering amplitudes, motional susceptibility,
dispersion relations), mechanical impedance with stability and passivity
analysis, and time-domain dynamics with energy bookkeeping.  The mirror
mass is 1, and frequencies and times share one unit of the caller's
choosing (a Lorentzian mirror's reflectivity scale Omega is 1 by default).
The config key and JSON field ``tau_omega`` hold the response time tau in
the unit of 1/(those frequencies), not tau Omega; a Lorentzian mirror's
induced mass is mu/m = 3 Omega tau.
"""

from .analysis import (
    MirrorMechanics,
    StabilityReport,
    admittance,
    count_rhp_zeros,
    default_probes,
    impedance,
    laplace_impedance,
    passivity_check,
    refine_root,
    sample_gamma_real,
    spectral_impedance,
    stability_report,
)
from .dispersion import (
    TimeKernel,
    acceleration_weights,
    build_time_kernel,
    consistency_check,
    continue_upper_half,
    kk_reconstruct,
    model_time_kernel,
)
from .dynamics import (
    EnergyLedger,
    ForceProfile,
    Trajectory,
    energy_ledger,
    fit_runaway_rate,
    simulate_perfect_mirror,
    simulate_with_memory,
)
from .errors import (
    AccuracyError,
    AdmittanceSingularityError,
    BranchCutError,
    ConfigError,
    ContinuationError,
    ContourError,
    CutoffDivergenceError,
    FitError,
    FrequencyRangeError,
    ImpedancePoleError,
    KernelWindowError,
    RegularizationError,
    RootConvergenceError,
    VacMirrorError,
)
from .numerics import QuadratureSettings
from .scattering import (
    MirrorModel,
    load_table,
    lorentzian_gamma,
    lorentzian_mirror,
    perfect_mirror,
    reflectivity,
    save_table,
    tabulated_mirror,
    transmissivity,
    validate_model,
)
from .susceptibility import (
    ResponseCurve,
    SusceptibilityResult,
    alpha,
    beta,
    compute_susceptibility,
    gamma,
    gamma_samples,
    induced_mass,
    reflection_cutoff,
    susceptibility,
)

__version__ = "0.1.0"
