"""Implicit neural representations with B-spline-wavelet ReLU activations.

The package trains coordinate MLPs whose hidden activation is a compactly
supported second-order B-spline wavelet built from seven ReLUs, alongside
plain-ReLU, sine, Gaussian and ReLU+positional-encoding baselines. It also
carries the numerical diagnostics that explain the gap: exact Gram-matrix
spectra for the wavelet and ReLU systems, feature-Gram condition tracking
during training, and weight-space variation norms for model selection.
"""

from .activations import (
    Activation,
    WAVELET_COEFFS,
    WAVELET_SHIFTS,
    apply,
    positional_encoding,
    psi,
    psi_prime,
)
from .assets import shepp_logan, synthetic_scene, univariate_benchmark, univariate_target
from .diagnostics import (
    GramReport,
    VariationReport,
    build_dyadic_gram,
    build_relu_gram,
    dyadic_system,
    feature_gram_condition,
    psnr,
    variation_norm_deep,
    variation_norm_shallow,
)
from .errors import (
    BwinrError,
    ConfigurationError,
    DivergenceError,
    ImageIOError,
    InvalidInputError,
    NumericalError,
    ShapeError,
    UnsupportedActivationError,
)
from .images import load_image, save_image
from .linalg import (
    ConditionNumber,
    condition_number,
    gershgorin_discs,
    sym_eigvals,
)
from .network import (
    ForwardTrace,
    Gradients,
    LayerSpec,
    NetworkParams,
    backward,
    expand_to_relus,
    forward,
    init_network,
    load_checkpoint,
    mlp_specs,
    save_checkpoint,
)
from .operators import (
    Downsample,
    ForwardTask,
    ImageGrid,
    RadonTransform,
    grid_coords,
    make_signal_task,
    make_task,
)
from .training import (
    AdamState,
    LogEntry,
    TrainConfig,
    TrainLog,
    adam_step,
    grad_check,
    init_adam_state,
    lr_at,
    train,
)

__version__ = "0.1.0"
