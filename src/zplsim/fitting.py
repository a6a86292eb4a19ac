"""The one optimizer behind every fit: bounded Fisher scoring with step halving.

``evaluate(theta)`` returns the objective to minimize, the (expected) Fisher
information and the score at ``theta``, so that ``info^-1 score`` is the
Newton-type step.  The Poisson deviance of ``correlator.fit_antibunching``
and the sum of squared residuals of the spectroscopic peak fits (Gauss-Newton:
``J^T J`` and ``J^T r``) both take this form (Baker & Cousins, NIM 221, 437
(1984)).
"""

from __future__ import annotations

import numpy as np


def fisher_scoring(evaluate, theta, lower, upper):
    """Minimize ``evaluate(theta)[0]`` on the box [lower, upper].

    Returns ``(theta, evaluate(theta), converged)``.  ``converged`` is true
    when the last accepted step moved no parameter by 1e-10 or more; it is
    false when the information is singular, when 40 halvings of a step do
    not lower the objective, or after 100 steps.
    """
    theta = np.asarray(theta, dtype=np.float64)
    fit = evaluate(theta)
    objective, info, score = fit
    for _ in range(100):
        # a parameter on a bound whose score points outward stays there
        free = ~(((theta <= lower) & (score < 0)) | ((theta >= upper) & (score > 0)))
        step = np.zeros(len(theta))
        try:
            step[free] = np.linalg.solve(info[np.ix_(free, free)], score[free])
        except np.linalg.LinAlgError:
            break
        for _ in range(40):  # step halving
            trial = np.clip(theta + step, lower, upper)
            trial_fit = evaluate(trial)
            if trial_fit[0] <= objective:
                break
            step /= 2.0
        else:
            break
        moved = np.abs(trial - theta).max()
        theta, fit = trial, trial_fit
        objective, info, score = fit
        if moved < 1e-10:
            return theta, fit, True
    return theta, fit, False
