"""corrtomo: simulation and self-consistent tomography of temporally correlated qubit errors.

The package has three layers:

* ``ptm`` and ``noise`` build the objects: the ideal gate transfer matrices,
  and noise models in which gate errors are driven by a slowly drifting
  classical variable or by the previous operation (context dependence).
* ``device`` runs gate sequences on such a model, exactly or with shot noise,
  including the survival-probability experiment for random identity-equivalent
  circuits.
* ``tomography``, ``linear_inversion``, ``mle`` and ``bounds`` reconstruct
  self-consistent error models from measured data and certify the
  approximation errors of truncated reconstructions.

``experiments`` ties everything into reproducible, file-based batch runs.
"""

from .ptm import GATE_UNITARIES, ideal_qubit_ptms
from .noise import (
    LowFreqModel,
    ContextModel,
    MomentSequenceError,
    depolarizing_channel,
    depolarized_gates,
    gate_error_rate,
    gaussian_x_moments,
    discretize_from_moments,
    build_low_freq_model,
    frozen_model,
    dense_low_freq_model,
    constant_depolarizing_model,
    transition_decay,
    second_order_model,
)
from .device import (
    MeasurementRecord,
    run_circuit,
    exact_means,
    random_identity_sequences,
    survival_curve,
    analytic_survival,
)
from .tomography import (
    FiducialSet,
    TomographyData,
    ErrorModel,
    ProtocolFailure,
    select_fiducials,
    collect_data,
    verify_factorization,
    gauge_reconstruct,
    gauge_transform,
    predict,
)
from .linear_inversion import (
    TrialSpec,
    TruncationResult,
    trial_sequences,
    collect_trial_data,
    svd_truncate,
    singular_spectrum,
    lim_reconstruct,
    gauge_fit_to_ideal,
    ideal_seven_ptms,
)
from .mle import (
    FitResult,
    negative_log_likelihood,
    fit,
)
from .bounds import (
    Projection,
    BoundCheckReport,
    projection_from_vectors,
    invariance_defect,
    operation_norm,
    sequence_bound,
    lim_bound,
    empirical_bound_check,
    effective_dimension,
    min_support,
    cubature_count,
)

__version__ = "0.1.0"
