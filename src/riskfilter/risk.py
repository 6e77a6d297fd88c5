"""Entropic risk of a sampled random variable.

The upper (cost-side) operator is

    R_beta[C] = (1 / beta) * log E[exp(beta * C)]

estimated on a finite sample by a max-shifted log-mean-exp; the shift is
mandatory, since naive exponentiation overflows already for beta = 100 on
values of order 10.  ``risk_lower`` is the certainty-equivalent lower
variant -R_beta[-C] used on the barrier side of the safety condition: it
lies between min and mean, whereas the upper operator lies between mean
and max.  beta = 0 is the explicit risk-neutral branch (plain mean);
beta -> infinity approaches the worst case, which a row takes where
beta times its minimum overflows (``entropic_risk`` is ``-risk_lower(-v)``,
bit for bit, so it takes the maximum there).

Both reduce over the last axis: a 1-D sample gives a float, a (..., S)
stack one value per row, bit-identical to the row's own 1-D call.  The
means are ``np.mean``'s own arithmetic, an ``np.add.reduce`` and one
division, without its per-call overhead, which dominates on the filters'
short sample rows.
"""

from __future__ import annotations

import math

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


def _lower(v: np.ndarray, beta: float):
    """-R_beta[-v] of a checked sample stack, over its last axis.  The
    beta = 0 mean negates twice, so that ``-_lower(-v)`` has the bits of
    the plain mean of v, signed zeros included.  The formula runs under
    ``np.errstate``, with the per-row fallback, only where 2 * beta *
    max|v|, the widest span of its shifted exponents, overflows: on 5
    samples that path took 11 us a call against 7 us for the check and
    the plain formula (2-core box)."""
    if not beta >= 0:
        raise ContractViolationError(f"risk parameter must be >= 0, got {beta}")
    if beta == 0:
        out = -(np.add.reduce(-v, axis=-1) / v.shape[-1])
    elif math.isfinite(2 * float(beta) * float(np.maximum.reduce(np.abs(v), axis=None))):
        out = _shifted(v, beta)[0]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out, m = _shifted(v, beta)
        out = np.where(np.isfinite(m), out, np.minimum.reduce(v, axis=-1))
    return float(out) if v.ndim == 1 else out


def _shifted(v: np.ndarray, beta: float) -> tuple:
    """The max-shifted log-mean-exp of -R_beta[-v] at beta > 0, and its
    shift m, beta times each row's minimum, negated."""
    z = -beta * v
    m = np.maximum.reduce(z, axis=-1)
    out = (m + np.log(np.add.reduce(np.exp(z - m[..., None]), axis=-1) / v.shape[-1])) / -beta
    return out, m


def entropic_risk(values, beta: float) -> float | np.ndarray:
    """(1/beta) * log(mean(exp(beta * values))), risk-neutral mean at beta = 0."""
    return -_lower(-_as_sample(values), beta)


def risk_lower(values, beta: float) -> float | np.ndarray:
    """Lower certainty equivalent -R_beta[-values]; min <= result <= mean."""
    return _lower(_as_sample(values), beta)
