"""Critical-scale initialization for deep Leaky ReLU networks.

The growth rate of activation norms in a deep width-d network with i.i.d.
random weights is governed by a single exponent with a closed integral
form for Gaussian and scaled-orthogonal ensembles.  This package evaluates
that integral to near machine precision, derives the scales that set the
exponent to zero, generates reproducible weight stacks at those scales,
and verifies the limit theorems behind the formulas by seeded Monte Carlo.
"""

from .analytic import (
    GAUSSIAN,
    ORTHOGONAL,
    ActivationSquareMoments,
    EnsembleSpec,
    LyapunovReport,
    activation_square_moments,
    asymptotic_activation_log_norm,
    asymptotic_lyapunov_orthogonal,
    critical_eta,
    critical_sigma,
    exponent_report,
    he_sigma,
    lyapunov,
    lyapunov_gaussian,
    lyapunov_orthogonal,
)
from .dynamics import (
    MCEstimate,
    Trajectory,
    counterexample_positive_cone,
    counterexample_relu,
    estimate_clt,
    estimate_lambda_deep,
    estimate_lambda_single_step,
    forward,
    stationarity_check,
)
from .ensembles import (
    RngStream,
    WeightStack,
    sample_haar_orthogonal,
    sample_stack,
    weight_stack_from_dict,
    weight_stack_to_dict,
)
from .errors import AccuracyError, DomainError
from .initgen import (
    CandidateDiagnostics,
    InputDistribution,
    lyapunov_init,
    sampled_lyapunov_init,
)
from .quad import (
    ActivationSlopes,
    activation_log_norm,
)

__version__ = "0.1.0"
