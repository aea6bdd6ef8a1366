"""Learning separable Hamiltonian dynamics from time series.

The package covers the full loop: generate trajectories of a
two-degree-of-freedom oscillator with cubic coupling, train symplectic
rollout models (and baselines) on them, each loss one node on the flat
parameters with a closed-form backward, reconstruct hidden coordinates from
partial observations with an LSTM encoder, and diagnose the results through
energy drift, Lyapunov spectra, and surface sections.
"""

__version__ = "0.1.0"

from .errors import (
    BadFactor,
    CorruptRecord,
    DegenerateR,
    DivergedTraining,
    EmptyBatch,
    EmptyDataset,
    FormatVersionMismatch,
    IntegrationDiverged,
    LengthMismatch,
    RejectionExhausted,
    ShapeMismatch,
    SymplecticMlError,
    TooShort,
    WindowLengthMismatch,
    ZeroEnergy,
)
from .autodiff import Tensor

from .dynamics import (
    ESCAPE_RADIUS,
    HH_FIELD,
    PhaseState,
    PotentialParams,
    Trajectory,
    hh_energy,
    hh_energy_batch,
    hh_grad_v,
    hh_potential,
    integrate,
    integrate_batch,
    leapfrog_step,
)
from .nets import (
    DenseNetSpec,
    forward,
    grad_inputs,
    grad_params_through,
    init_params,
)
from .models import (
    BaselineModel,
    HnnModel,
    SeparableModel,
    asrnn_rollout,
    baseline_derivatives,
    baseline_loss,
    baseline_rollout,
    conserved_quantity,
    hnn_derivatives,
    hnn_energy,
    hnn_loss,
    srnn_loss,
)
from .lstm import (
    EncoderModel,
    ParamEstimate,
    PartialPrediction,
    encode_window,
    encoder_loss,
    encoder_param_count,
    infer_param_ensemble,
    init_encoder_params,
    lstm_step,
    predict_from_partial,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    clip_gradient,
    init_adam,
    save_history_csv,
    split_dataset,
    train,
)
from .datapipe import (
    Dataset,
    GenerationConfig,
    generate_dataset,
    load_dataset,
    sample_initial_condition,
    save_dataset,
    window_dataset,
)
from .checkpoint import build_checkpoint, load_checkpoint, save_checkpoint
from .analysis import (
    LyapunovResult,
    SectionPoints,
    boundedness_check,
    energy_drift,
    lyapunov_spectra,
    lyapunov_spectrum,
    maximal_lyapunov,
    mean_energy_error,
    poincare_section,
    relative_energy_error,
    secular_growth_ratio,
)
