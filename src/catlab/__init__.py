"""catlab: a numerical laboratory for quantized hyperbolic torus maps.

Classical layer: exact validation, hyperbolic frame decomposition, and
periodic-orbit enumeration on rational lattices.  Quantum layer: the
finite Hilbert space H_{N,theta}, quantum translations, the fast cat-map
propagator, squeezed torus coherent states, Husimi densities, Weyl and
anti-Wick quantization, and orbit quasimodes with their concentration and
non-equidistribution diagnostics.
"""

__version__ = "0.1.0"

from .classical import (
    CatMap,
    Orbit,
    Orbits,
    decompose_hyperbolic,
    enumerate_prime_orbits,
    fixed_point_count,
    orbit_fourier_coefficient,
    orbit_through,
    validate_cat_map,
)
from .coherent import (
    HusimiGrid,
    TorusGaussian,
    axis_variances,
    ball_mass,
    evolve_coherent,
    husimi,
    torus_coherent,
    z_parameter,
)
from .errors import (
    BallsOverlap,
    CatlabError,
    ConfigError,
    EnumerationTooLarge,
    NoInvariantTheta,
    NotHyperbolic,
    NotUnimodular,
    NTooLarge,
    PreconditionError,
    RadiusOutOfRange,
    ResolutionTooCoarse,
    TruncationFailure,
    UnsupportedMatrix,
)
from .hilbert import (
    LinearMap,
    PlanckGrid,
    QuantumState,
    choose_theta,
    egorov_defect,
    propagator,
    translation,
)
from .quantize import (
    Symbol,
    antiwick_expectation,
    antiwick_plane_waves,
    bump_masses,
    bump_symbols,
    position_interval_mass,
    position_interval_masses,
    weyl_antiwick_gap,
    weyl_quantize,
)
from .quasimodes import (
    Experiment,
    QuasimodeSpec,
    build_quasimode,
    choose_N,
    ehrenfest_time,
    husimi_ball_report,
    nonequidistribution_report,
    residual,
    return_amplitude,
    run_pipeline,
    scmeasure_error,
)

__all__ = [name for name in dir() if not name.startswith("_")]
