"""Closed-form derivatives of the Coulomb pair potential 1/|r|.

Derivatives are taken with respect to the components of the separation
vector r = r_i - r_j, which has three components, or one for a linear chain
(its on-axis case); derivatives with respect to ion coordinates follow by
flipping the sign once per index taken on ion j.
"""

import numpy as np


_EYE = {k: np.eye(k) for k in (1, 3)}  # the component counts a pair can have


def inv_r_derivatives(r, r2, orders) -> list:
    """d^m(1/|r|)/dr_a1 ... dr_am for each m in ``orders`` (0 to 4).

    ``r`` has shape (..., k) with k = 1 or 3 and ``r2`` is its squared norm,
    shape (...); the leading axes (a pair axis, say) broadcast, and the m-th
    result has shape (...,) + (k,) * m.
    """
    r = np.asarray(r, dtype=float)
    rn = np.sqrt(r2)
    return [_derivative(r, rn[(...,) + (None,) * m], m) for m in orders]


def _derivative(r, rn, order):
    """One order of d^m(1/|r|), given |r| broadcast to the result's rank."""
    k = r.shape[-1]
    # r with its component axis on each derivative axis in turn
    ra = [r[(...,) + (None,) * a + (slice(None),) + (None,) * (order - 1 - a)]
          for a in range(order)]

    def v(*axes):  # r_a r_b ... on the given derivative axes
        out = ra[axes[0]]
        for ax in axes[1:]:
            out = out * ra[ax]
        return out

    def d(a, b):  # Kronecker delta on derivative axes a and b
        shape = [1] * order
        shape[a] = shape[b] = k
        return _EYE[k].reshape(shape)

    if order == 0:
        return 1.0 / rn
    if order == 1:
        return -v(0) / rn**3
    if order == 2:
        return (3.0 * v(0, 1) - rn**2 * d(0, 1)) / rn**5
    if order == 3:
        deltas = d(0, 1) * v(2) + d(0, 2) * v(1) + d(1, 2) * v(0)
        return -3.0 * (5.0 * v(0, 1, 2) - rn**2 * deltas) / rn**7
    if order == 4:
        pair = (d(0, 1) * v(2, 3) + d(0, 2) * v(1, 3) + d(0, 3) * v(1, 2)
                + d(1, 2) * v(0, 3) + d(1, 3) * v(0, 2) + d(2, 3) * v(0, 1))
        dd = d(0, 1) * d(2, 3) + d(0, 2) * d(1, 3) + d(0, 3) * d(1, 2)
        return (105.0 * v(0, 1, 2, 3) - 15.0 * rn**2 * pair
                + 3.0 * rn**4 * dd) / rn**9
    raise ValueError(f"derivative order must be 0..4, got {order}")
