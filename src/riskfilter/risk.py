"""Entropic risk of a sampled random variable.

The upper (cost-side) operator is

    R_beta[C] = (1 / beta) * log E[exp(beta * C)]

estimated on a finite sample by a max-shifted log-mean-exp; the shift is
mandatory, since naive exponentiation overflows already for beta = 100 on
values of order 10.  ``risk_lower`` is the certainty-equivalent lower
variant -R_beta[-C] used on the barrier side of the safety condition: it
lies between min and mean, whereas the upper operator lies between mean
and max.  beta = 0 is the explicit risk-neutral branch (plain mean);
beta -> infinity approaches the worst case.

Both reduce over the last axis: a 1-D sample gives a float, a (..., S)
stack one value per row, bit-identical to the row's own 1-D call.  The
means are ``np.mean``'s own arithmetic, an ``np.add.reduce`` and one
division, without its per-call overhead, which dominates on the filters'
short sample rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


def _as_sample(values) -> np.ndarray:
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape[-1] == 0:
        raise ContractViolationError("risk of an empty sample set is undefined")
    if not np.all(np.isfinite(v)):
        raise ContractViolationError("sample set contains non-finite values")
    return v


def entropic_risk(values, beta: float) -> float | np.ndarray:
    """(1/beta) * log(mean(exp(beta * values))), risk-neutral mean at beta = 0."""
    v = _as_sample(values)
    if beta < 0:
        raise ContractViolationError(f"risk parameter must be >= 0, got {beta}")
    n = v.shape[-1]
    if beta == 0:
        out = np.add.reduce(v, axis=-1) / n
    else:
        z = beta * v
        m = z.max(axis=-1, keepdims=True)
        out = (m[..., 0] + np.log(np.add.reduce(np.exp(z - m), axis=-1) / n)) / beta
    return float(out) if v.ndim == 1 else out


def risk_lower(values, beta: float) -> float | np.ndarray:
    """Lower certainty equivalent -R_beta[-values]; min <= result <= mean."""
    return -entropic_risk(-np.asarray(values, dtype=float), beta)
