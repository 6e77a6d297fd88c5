"""Entropic risk of a sampled random variable.

The upper (cost-side) operator is

    R_beta[C] = (1 / beta) * log E[exp(beta * C)]

and ``risk_lower`` is the certainty-equivalent lower variant -R_beta[-C]
used on the barrier side of the safety condition: it lies between min and
mean, whereas the upper operator lies between mean and max
(``entropic_risk`` is ``-risk_lower(-v)``, bit for bit).  On a finite
sample, every 0 < beta < inf runs one formula, shifted by the sample
minimum in value space,

    min(v) - log1p(mean(expm1(-beta * (v - min(v))))) / beta,

whose exponents are never positive, so nothing overflows into a NaN: a
product past overflow gives expm1(-inf) = -1 exactly, and a row whose
products all overflow reaches its minimum, the beta -> infinity limit,
through the formula itself.  expm1 and log1p keep the small-beta end
accurate, where log(mean(exp(.))) takes the log of a number within a few
ulps of 1.  beta = 0 is the explicit risk-neutral branch (plain mean);
beta = inf returns the minimum.

Both reduce over the last axis: a 1-D sample gives a float, a (..., S)
stack one value per row, bit-identical to the row's own 1-D call.  The
means are ``np.mean``'s own arithmetic, an ``np.add.reduce`` and one
division, without its per-call overhead, which dominates on the filters'
short sample rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError

# A row whose mean expm1 term lies above -_TINY has products beta * (v -
# min) at or below S * _TINY, some possibly subnormal, which would carry
# too few bits into the formula; such a row takes the beta -> 0 limit
# min + mean(v - min), from which its exact value differs by less than
# beta * (max - min) relative, far below an ulp.
_TINY = 2.0 ** -960


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
    the plain mean of v, signed zeros included.

    Each row is at or above its minimum exactly, since its log1p term is
    never positive.  For S samples whose range max - min is finite, the
    computed value differs from the exact one by at most

        (S + 2)**2 * u * (max - min) + u * max|v| + 2**-1074,   u = 2**-53:

    the expm1 terms carry a relative error of at most 4u each (two
    roundings in their products, one ulp in expm1), their mean (S + 4)u
    in all, which log1p scales by |m| / (1 + m) <= S * beta * mean(v - min),
    since 1 + m >= 1/S; log1p, the division and the subtraction round once
    each, and 2**-1074, the spacing of subnormal numbers, covers samples
    near 2**-1022 or below.  So the value exceeds the mean by at most that
    bound.  The 1 + m >= 1/S is also the cost of this form: where most
    samples sit far above the minimum, m is near -1, and the error, about
    S * u / beta, exceeds that of log(mean(exp(.))).
    """
    if not beta >= 0:
        raise ContractViolationError(f"risk parameter must be >= 0, got {beta}")
    n = v.shape[-1]
    if beta == 0:
        out = -(np.add.reduce(-v, axis=-1) / n)
    elif beta == np.inf:
        out = np.minimum.reduce(v, axis=-1)
    else:
        vmin = np.minimum.reduce(v, axis=-1)
        with np.errstate(over="ignore"):
            d = v - vmin[..., None]
            m = np.add.reduce(np.expm1(d * -beta), axis=-1) / n
            out = vmin - np.log1p(m) / beta
            tiny = m > -_TINY
            if beta >= 1:
                # A nonzero difference has a nonzero product here, so m = 0
                # only where mean(v - min) <= 2**-1075, and the formula's
                # minimum is the limit too: constant rows skip the limit.
                tiny &= m < 0
            if np.count_nonzero(tiny):
                out = np.where(tiny, vmin + np.add.reduce(d, axis=-1) / n, out)
    return float(out) if v.ndim == 1 else out


def entropic_risk(values, beta: float) -> float | np.ndarray:
    """(1/beta) * log(mean(exp(beta * values))), risk-neutral mean at beta = 0."""
    return -_lower(-_as_sample(values), beta)


def risk_lower(values, beta: float) -> float | np.ndarray:
    """Lower certainty equivalent -R_beta[-values]; min <= result <= mean,
    the upper bound up to the rounding bound of ``_lower``."""
    return _lower(_as_sample(values), beta)
