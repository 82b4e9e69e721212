"""Closed-form derivatives of the Coulomb pair potential 1/|r|.

Derivatives are taken with respect to the components of the separation
vector r = r_i - r_j, which has three components, or one for a linear chain
(its on-axis case); derivatives with respect to ion coordinates follow by
flipping the sign once per index taken on ion j.
"""

import numpy as np


def _delta_sum(k, axes, *terms):
    """Sum of the k-component delta products ``terms`` (einsum) on ``axes``."""
    return sum(np.einsum(f"{t}->{axes}", *(np.eye(k),) * (t.count(",") + 1))
               for t in terms)


# per component count: the identity, then the sums over delta placements of
# orders 3 and 4 on flat axes, acting on r and r⊗r (e, f), and the pairings
_TABLES = {k: (np.eye(k),
               _delta_sum(k, "eabc", "ab,ce", "ac,be", "bc,ae").reshape(k, -1),
               _delta_sum(k, "efabcd", "ab,ce,df", "ac,be,df", "ad,be,cf",
                          "bc,ae,df", "bd,ae,cf", "cd,ae,bf").reshape(k * k, -1),
               _delta_sum(k, "abcd", "ab,cd", "ac,bd", "ad,bc").ravel())
           for k in (1, 3)}


def inv_r_derivatives(r, r2, orders) -> list:
    """d^m(1/|r|)/dr_a1 ... dr_am for each m in ``orders`` (0 to 4).

    ``r`` has shape (..., k) with k = 1 or 3 and ``r2`` is its squared norm,
    shape (...); the leading axes (a pair axis, say) broadcast, and the m-th
    result has shape (...,) + (k,) * m.
    """
    r = np.asarray(r, dtype=float)
    rn = np.sqrt(r2)
    return [_derivative(r, rn, m) for m in orders]


def _derivative(r, rn, order):
    """One order of d^m(1/|r|), given |r| of shape r.shape[:-1]."""
    lead, k = r.shape[:-1], r.shape[-1]
    eye, delta_r, delta_rr, delta_delta = _TABLES[k]
    if order == 0:
        return 1.0 / rn
    if order == 1:
        return -r / rn[..., None]**3
    rr = r[..., :, None] * r[..., None, :]
    if order == 2:
        return (3.0 * rr - rn[..., None, None]**2 * eye) / rn[..., None, None]**5
    if order not in (3, 4):
        raise ValueError(f"derivative order must be 0..4, got {order}")
    # r_a r_b r_c ... over the flattened derivative axes, times |r| powers
    rn, rr = rn[..., None], rr.reshape(lead + (k * k,))
    rrr = (rr[..., :, None] * r[..., None, :]).reshape(lead + (k**3,))
    if order == 3:
        out = -3.0 * (5.0 * rrr - rn**2 * (r @ delta_r)) / rn**7
    else:
        rrrr = (rrr[..., :, None] * r[..., None, :]).reshape(lead + (k**4,))
        out = (105.0 * rrrr - 15.0 * rn**2 * (rr @ delta_rr)
               + 3.0 * rn**4 * delta_delta) / rn**9
    return out.reshape(lead + (k,) * order)
