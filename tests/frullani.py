"""The logarithm by Frullani's integral, on the panel rule of ``lyapinit.quad``.

``log x = int_0^inf (e^{-t} - e^{-x t}) dt / t`` for x > 0.  On the log axis
(t = e^s) the integrand is ``e^{-t} - e^{-x t}``, the shape of the log-norm
integrand, so reproducing the built-in logarithm checks the panel rule and
its error control: the self test of acceptance criterion 3.
"""

import math

import numpy as np

from lyapinit import quad


def frullani_log(x: float) -> float:
    """log(x) for a positive finite ``x``, through its exponential-difference integral."""
    # Left tail behaves like (x-1) e^s, right tail needs t out to ~40/x.
    s_min = -40.0 - max(0.0, math.log1p(abs(x - 1.0)))
    s_max = 40.0 + max(0.0, -math.log(x))

    s, rule = quad._rule_nodes(s_min, s_max, quad._PANEL_WIDTH, quad._CHECK_WIDTH)
    t = np.exp(s)
    value, _ = quad._rule_sum(np.expm1(-t) - np.expm1(-x * t), rule)
    return value
