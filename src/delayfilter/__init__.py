"""Delayed unknown-input and state reconstruction filters for
discrete-time linear systems.

The central object is a filter that, given measurements up to time k,
reconstructs the state at time k-r and the unknown input at time k-r-1,
where the delay r is the smallest horizon over which the stacked output
map becomes left-invertible in the unknown input. The package covers

  * feasibility analysis over candidate delays (`analyze_delays`),
  * invariant zeros of the (A, H, C) pencil, which govern whether the
    reconstruction error decays (`invariant_zeros`, `classify_zeros`),
  * gain design: exact inversion for square systems and minimum-variance
    constrained gains otherwise (`square_gain`, `minvar_gain`),
  * the online filter itself (`init_filter`, `step`), and the same
    filter over a whole record or a batch of trials (`run_filter`),
  * simulation and reproduction of the bundled reference systems.
"""

from .errors import (
    BadCoefficient,
    BadIndices,
    ConstraintViolated,
    DelayFilterError,
    DelayOutOfRange,
    DimensionMismatch,
    EstimatesNotFinite,
    InfeasibleDelay,
    InnovationCovarianceSingular,
    MeasurementFileError,
    ModelFileError,
    NonFiniteSample,
    NotSquare,
    NotSymmetric,
    PencilDegenerate,
    PreconditionViolated,
    QIndefinite,
    RankDeficientH,
    RNotPositiveDefinite,
    TooManyInputs,
    TooManyOutputs,
    UnknownExample,
)
from .model import (
    NoiseSpec,
    SystemModel,
    load_model_file,
    parse_model_document,
    validate_model,
    validate_noise,
)
from .markov import (
    DelayAnalysis,
    analyze_delays,
    exists_unbiased_gain,
    markov_blocks,
    markov_parameter,
    markov_row_stack,
    markov_toeplitz,
    minimal_delay,
)
from .zeros import (
    ALL_INSIDE,
    NO_ZEROS,
    ON_CIRCLE,
    OUTSIDE,
    ZeroReport,
    classify_zeros,
    invariant_zeros,
    rosenbrock_pencil,
)
from .gain import (
    CovarianceState,
    GainResult,
    MINVAR_LAGRANGIAN,
    NO_DELAY_CLASSICAL,
    SIMPLIFIED_MINVAR,
    SQUARE_INVERSE,
    covariance_update,
    minvar_gain,
    simplified_minvar_gain,
    square_gain,
    steady_state_gain,
    unbiasedness_residual,
)
from .filtering import (
    ASYMPTOTIC,
    DEADBEAT,
    DIVERGENT,
    FIXED_SQUARE,
    FIXED_USER_SUPPLIED,
    PERSISTENT,
    TIME_VARYING_MINVAR,
    FilterConfig,
    FilterState,
    StepOutput,
    classify_convergence,
    error_dynamics_matrix,
    gain_spectral_radius,
    FilterRun,
    init_filter,
    predicted_error_sequence,
    run_filter,
    step,
)
from .signals import (CONSTANT, GAUSSIAN, KINDS, PRBS, SAWTOOTH, SINE, STEP,
                      SignalSpec, parse_signal_spec, signal_values)
from .sim import (
    BiasReport,
    ErrorStats,
    Trajectory,
    compartmental_model,
    monte_carlo_bias,
    run_experiment,
    simulate,
)
from .registry import (
    EXAMPLE_IDS,
    check_example_facts,
    default_noise,
    example_signals,
    reference_example,
)
from .csvio import read_measurements, write_estimates, write_trajectory

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
