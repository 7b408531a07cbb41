"""Independent high-precision reference evaluator for the closed-form bounds.

Everything here is written directly against the bound definitions with
mpmath arbitrary-precision arithmetic (60 working digits) and deliberately
shares no code with the ``chebbound`` package: plain loops, no numpy, no
clever summation.  Test modules treat these values as ground truth.
"""

from __future__ import annotations

import itertools

from mpmath import mp, mpf

DPS = 60


def _to_mpf(xs):
    return [mpf(x) for x in xs]


def univariate(rho, n, v):
    """4 V rho^-N / (rho - 1)."""
    with mp.workdps(DPS):
        rho, v = mpf(rho), mpf(v)
        return 4 * v * rho ** (-mpf(n)) / (rho - 1)


def exp(x):
    """e^x for the double ``x``."""
    with mp.workdps(DPS):
        return mp.exp(mpf(x))


def bound_b(rho, n, v):
    """Tensor (Fourier-style) bound: 2^(D/2+1) V (sum_i rho_i^-2Ni prod_j 1/(1-rho_j^-2))^(1/2)."""
    with mp.workdps(DPS):
        rho = _to_mpf(rho)
        v = mpf(v)
        d = len(rho)
        inner = mpf(0)
        for i in range(d):
            term = rho[i] ** (-2 * mpf(n[i]))
            for j in range(d):
                term *= 1 / (1 - rho[j] ** mpf(-2))
            inner += term
        return 2 ** (mpf(d) / 2 + 1) * v * mp.sqrt(inner)


def bound_a_for_sigma(rho, n, v, sigma, variant="consistent"):
    """Inductive bound for one axis ordering.

    ``sigma`` is a 0-based tuple: position p processes axis sigma[p].
    ``variant="consistent"`` pairs (rho, N) jointly through sigma;
    ``variant="literal"`` keeps the mixed indexing exactly as printed
    (sigma applied to the power's base only in the first sum).
    """
    with mp.workdps(DPS):
        rho = _to_mpf(rho)
        v = mpf(v)
        d = len(rho)
        total = mpf(0)
        for i in range(1, d + 1):
            s = sigma[i - 1]
            if variant == "consistent":
                total += 4 * v * rho[s] ** (-mpf(n[s])) / (rho[s] - 1)
            elif variant == "literal":
                total += 4 * v * rho[s] ** (-mpf(n[i - 1])) / (rho[i - 1] - 1)
            else:
                raise ValueError(variant)
        for k in range(2, d + 1):
            s = sigma[k - 1]
            exponent = n[s] if variant == "consistent" else n[k - 1]
            term = 4 * v * rho[s] ** (-mpf(exponent)) / (rho[s] - 1)
            term *= mpf(2) ** (k - 1) * ((k - 1) + 2 ** (k - 1) - 1)
            for j in range(1, k):
                term /= 1 - 1 / rho[sigma[j - 1]]
            total += term
        return total


def bound_a(rho, n, v, variant="consistent"):
    """Exhaustive min over all axis orderings."""
    with mp.workdps(DPS):
        return min(
            bound_a_for_sigma(rho, n, v, sigma, variant)
            for sigma in itertools.permutations(range(len(rho)))
        )


def m_upper_bound(rho, n, v, eps=0):
    """Sup-norm majorant M(D) with s_i = 1 + eps.

    2^D V [ sum_i (s_i/rho_i)^(Ni+1)
            + sum over nonzero binary masks of
              prod_{mask 0} (1 - (s/rho)^(N+1)) * prod_{mask 1} (s/rho)^(N+1) ]
        / prod_j (1 - s_j/rho_j)
    """
    with mp.workdps(DPS):
        rho = _to_mpf(rho)
        v = mpf(v)
        s = 1 + mpf(eps)
        d = len(rho)
        x = [(s / rho[i]) ** (mpf(n[i]) + 1) for i in range(d)]
        num = mpf(0)
        for i in range(d):
            num += x[i]
        for mask in itertools.product((0, 1), repeat=d):
            if not any(mask):
                continue
            term = mpf(1)
            for delta in range(d):
                term *= x[delta] if mask[delta] else (1 - x[delta])
            num += term
        den = mpf(1)
        for j in range(d):
            den *= 1 - s / rho[j]
        return 2 ** mpf(d) * v * num / den


def m_upper_bound_telescoped(rho, n, v, eps=0):
    """M(D) with its mask sum written as 1 - prod_i (1 - x_i), for any D.

    The sum over the nonzero masks of prod_{mask 1} x prod_{mask 0} (1 - x)
    is 1 minus the empty mask's term, so this equals :func:`m_upper_bound`
    without its 2^D loop.
    """
    with mp.workdps(DPS):
        rho = _to_mpf(rho)
        s = 1 + mpf(eps)
        x = [(s / rho[i]) ** (mpf(n[i]) + 1) for i in range(len(rho))]
        num = sum(x) + 1 - mp.fprod(1 - xi for xi in x)
        den = mp.fprod(1 - s / r for r in rho)
        return 2 ** mpf(len(rho)) * mpf(v) * num / den


def recursive_bound_B(rho, n, v, eps=0, m_bound=m_upper_bound):
    """Recursive bound: sum_i 4V rho_i^-Ni/(rho_i-1) + sum_k 4 M(k-1) rho_k^-Nk/(rho_k-1).

    ``m_bound`` evaluates M; :func:`m_upper_bound_telescoped` takes any D.
    """
    with mp.workdps(DPS):
        rho = _to_mpf(rho)
        v = mpf(v)
        d = len(rho)
        total = mpf(0)
        for i in range(d):
            total += 4 * v * rho[i] ** (-mpf(n[i])) / (rho[i] - 1)
        for k in range(2, d + 1):
            m_prev = m_bound(rho[: k - 1], n[: k - 1], v, eps)
            total += 4 * m_prev * rho[k - 1] ** (-mpf(n[k - 1])) / (rho[k - 1] - 1)
        return total
