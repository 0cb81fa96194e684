"""The package's public names, pinned: adding or dropping one is deliberate.

Submodules are left out: importing ``lyapinit.cli`` anywhere in a session
adds ``cli`` to the package namespace.
"""

import subprocess
import sys
import types
from pathlib import Path

import lyapinit

PUBLIC_NAMES = [
    "AccuracyError",
    "ActivationSlopes",
    "ActivationSquareMoments",
    "CandidateDiagnostics",
    "DomainError",
    "EnsembleSpec",
    "GAUSSIAN",
    "InputDistribution",
    "LyapunovReport",
    "MCEstimate",
    "ORTHOGONAL",
    "RngStream",
    "Trajectory",
    "WeightStack",
    "activation_log_norm",
    "activation_square_moments",
    "asymptotic_activation_log_norm",
    "asymptotic_lyapunov_orthogonal",
    "counterexample_positive_cone",
    "counterexample_relu",
    "critical_eta",
    "critical_sigma",
    "estimate_clt",
    "estimate_lambda_deep",
    "estimate_lambda_single_step",
    "exponent_report",
    "forward",
    "he_sigma",
    "lyapunov",
    "lyapunov_gaussian",
    "lyapunov_init",
    "lyapunov_orthogonal",
    "sample_haar_orthogonal",
    "sample_stack",
    "sampled_lyapunov_init",
    "stationarity_check",
    "weight_stack_from_dict",
    "weight_stack_to_dict",
]


def test_public_names_are_pinned():
    names = [
        n for n in dir(lyapinit)
        if not n.startswith("_") and not isinstance(getattr(lyapinit, n), types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests' oracles
    src = str(Path(lyapinit.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import lyapinit, lyapinit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
