"""Complex special functions and Pochhammer-type products.

Everything downstream (weights, kernels, density constants) is built from the
principal branch of log Gamma, the digamma function psi = Gamma'/Gamma, the
trigamma function psi', and finite Pochhammer products.  Pochhammer symbols are
always evaluated as explicit products, never as ratios of Gamma values, so that
complex parameters never touch a branch cut.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import scipy.special as _sp

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "sinpi",
    "pochhammer",
    "pochhammer_lambda",
]

# Bernoulli numbers B_2, B_4, ..., B_16 for the trigamma asymptotic series
# psi'(w) ~ 1/w + 1/(2 w^2) + sum_k B_2k / w^(2k+1).
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_ASYMPTOTIC_RADIUS = 10.0


def _reject_poles(w: complex, name: str) -> complex:
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"{name}: argument must be finite, got {w}")
    if w.imag == 0.0 and w.real <= 0.0 and w.real == int(w.real):
        raise ValueError(f"{name}: pole at non-positive integer {w.real}")
    return w


def log_gamma(w: complex) -> complex:
    """Principal branch of log Gamma(w).

    Accepts any complex w away from the poles {0, -1, -2, ...}.  Real negative
    non-integer arguments are routed through the complex implementation so the
    result satisfies exp(log_gamma(w)) == Gamma(w) including the sign.
    """
    w = _reject_poles(w, "log_gamma")
    out = complex(_sp.loggamma(complex(w)))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ValueError(f"log_gamma: non-finite result at {w}")
    return out


def digamma(w: complex) -> complex:
    """psi(w) = Gamma'(w)/Gamma(w) on the complex plane minus the poles."""
    w = _reject_poles(w, "digamma")
    out = complex(_sp.digamma(complex(w)))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ValueError(f"digamma: non-finite result at {w}")
    return out


def sinpi(w: complex) -> complex:
    """sin(pi*w) computed with exact integer argument reduction.

    Plain sin(pi*w) loses relative accuracy near the zeros at large |Re w|
    because pi*w is rounded before reduction; subtracting the nearest
    integer first keeps full precision.
    """
    w = complex(w)
    n = math.floor(w.real + 0.5)
    r = complex(w.real - n, w.imag)
    s = cmath.sin(cmath.pi * r)
    return -s if n % 2 else s


def trigamma(w: complex) -> complex:
    """psi'(w), the derivative of digamma, for complex w away from poles.

    Strategy: reflection psi'(w) = pi^2/sin^2(pi w) - psi'(1-w) for
    Re w < 1/2, upward recurrence psi'(w) = psi'(w+1) + 1/w^2 until
    |w| >= 10, then the Bernoulli asymptotic series.
    """
    w = _reject_poles(w, "trigamma")
    if w.real < 0.5:
        s = sinpi(w)
        return (cmath.pi / s) ** 2 - trigamma(1.0 - w)
    shift = 0.0 + 0.0j
    while abs(w) < _ASYMPTOTIC_RADIUS:
        shift += 1.0 / (w * w)
        w = w + 1.0
    # Asymptotic expansion at large |w| with Re w > 0.
    inv = 1.0 / w
    inv2 = inv * inv
    total = inv + 0.5 * inv2
    power = inv * inv2
    for b in _BERNOULLI:
        total += b * power
        power *= inv2
    return shift + total


def pochhammer(x: complex, k: int) -> complex:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), as an explicit product."""
    if k < 0 or k != int(k):
        raise ValueError(f"pochhammer: order must be a nonnegative integer, got {k}")
    out: complex = 1.0
    for j in range(int(k)):
        out *= x + j
    return out


def pochhammer_lambda(x: complex, rows: Iterable[int]) -> complex:
    """Generalized Pochhammer (x)_lambda = prod over boxes (i,j) of (x + j - i).

    ``rows`` are the row lengths of a partition (weakly decreasing).  Computed
    row-wise as prod_i (x - i + 1)_(lambda_i), an explicit finite product.
    """
    out: complex = 1.0
    for i, row in enumerate(rows, start=1):
        out *= pochhammer(x - i + 1, int(row))
    return out
