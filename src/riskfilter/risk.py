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
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape[-1] == 0:
        raise ContractViolationError("risk of an empty sample set is undefined")
    if not np.isfinite(v).all():
        raise ContractViolationError("sample set contains non-finite values")
    return v


def _entropic(v: np.ndarray, beta: float, sign: float):
    """sign * R_beta[sign * v] of a checked sample stack, over its last axis,
    for sign = +1 or -1.  At beta > 0 the sign goes into beta, where it
    gives the bits of negating the samples and the result."""
    if beta < 0:
        raise ContractViolationError(f"risk parameter must be >= 0, got {beta}")
    n = v.shape[-1]
    if beta == 0:
        out = sign * (np.add.reduce(sign * v, axis=-1) / n)
    else:
        z = (sign * beta) * v
        m = np.maximum.reduce(z, axis=-1, keepdims=True)
        out = (m[..., 0] + np.log(np.add.reduce(np.exp(z - m), axis=-1) / n)) / (sign * beta)
    return float(out) if v.ndim == 1 else out


def entropic_risk(values, beta: float) -> float | np.ndarray:
    """(1/beta) * log(mean(exp(beta * values))), risk-neutral mean at beta = 0."""
    return _entropic(_as_sample(values), beta, 1.0)


def risk_lower(values, beta: float) -> float | np.ndarray:
    """Lower certainty equivalent -R_beta[-values]; min <= result <= mean."""
    return _entropic(_as_sample(values), beta, -1.0)
