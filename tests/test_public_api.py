"""The package's public names, pinned: adding or dropping one is deliberate.

Submodules are left out: importing ``lyapinit.cli`` anywhere in a session
adds ``cli`` to the package namespace.  The README's library example runs
against those names.
"""

import ast
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import lyapinit
from lyapinit.ensembles import HaarReflectors

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


def test_the_package_imports_are_the_one_declaration():
    # a module __all__ would be a second list of the public names, free to drift
    package = Path(lyapinit.__file__).resolve().parent
    assigned = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    ]
    assert assigned == []


def test_float_array_is_the_one_array_coercion():
    # an array from outside becomes float64 in one place, which refuses what is not a real number
    package = Path(lyapinit.__file__).resolve().parent
    where = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        where += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.asarray", "np.array")
        ]
    assert where == [("ensembles.py", "_float_array")]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(block, namespace)
    shown, claims = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = re.fullmatch(r"\s*(-?\d+\.\d+)\.\.\.\s*", comment)
        if value:  # a commented value, to its seven significant digits
            shown.append((f"{eval(code, namespace):.7g}", value.group(1)))
        elif "==" in code:
            claims.append(eval(code, namespace))
    assert shown == [("2.262791", "2.262791"), ("-0.8215742", "-0.8215742"), ("-0.4345101", "-0.4345101")]
    assert claims == [True]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy and mpmath are for the
    # tests' oracles, so every subcommand must run with both unimportable
    src = str(Path(lyapinit.__file__).resolve().parent.parent)
    code = f"""if True:
        import contextlib, io, sys
        sys.path.insert(0, {src!r})
        import lyapinit, lyapinit.cli
        print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
        sys.modules["scipy"] = sys.modules["mpmath"] = None
        for argv in (
            "exponent --d 3 --alpha 0.1 --ensemble orthogonal --scale 1.2",
            "table --alpha 0.1 --dims 2 64 --format json",
            "simulate --experiment clt --depth 4 --trials 1000 --seed 1",
            "init --d 3 --alpha 0.1 --depth 4 --kind orthogonal --sampled --seed 1",
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                status = lyapinit.cli.main(argv.split())
            print(argv.split()[0], status)
    """
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "exponent 0", "table 0", "simulate 0", "init 0"], out.stderr


def test_records_holding_arrays_compare_by_identity():
    # generated __eq__ would compare arrays elementwise and raise, and a
    # frozen one would make __hash__ hash them
    one = np.ones(2)
    makers = [
        lambda: lyapinit.WeightStack(np.eye(2)[None], lyapinit.EnsembleSpec("gaussian", 2, 1.0), lyapinit.RngStream(1)),
        lambda: lyapinit.MCEstimate(np.array([1.0, 2.0])),
        lambda: lyapinit.Trajectory(1, one, one, 0.0),
        lambda: lyapinit.CandidateDiagnostics(one, one, one, 0, 1, "log"),
        lambda: lyapinit.InputDistribution.uniform_sphere(2),
        lambda: lyapinit.InputDistribution.uniform_box([0.0, 0.0], [1.0, 1.0]),
        lambda: lyapinit.InputDistribution.fixed_set([[1.0, 0.0]]),
        lambda: HaarReflectors(np.ones((2, 1)), np.ones((3, 1)), np.ones((1, 1))),
    ]
    for make in makers:
        first, second = make(), make()
        assert first == first and first != second
        assert hash(first) != hash(second)
