"""Reference integrals evaluated one pair, one nucleus and one quartet at a
time, and the Boys series as it sums every element of a batch.

The batched engine in `qelectra.integrals` must reproduce these bit for
bit: the CO2 window turns a 1e-16 change in one integral into a
milli-Hartree change in the FCI energy. The loops here keep the operation
order the batched code copies, so a regrouped sum shows as a byte change.
"""

from types import SimpleNamespace

import numpy as np

from qelectra.basis import load_basis
from qelectra.integrals import (_boys_argument, _hermite_coulomb, boys,
                                hermite_coefficients)

BOYS_SWITCH = 35.0


# ---- Boys function -----------------------------------------------------------

def boys_all_elements(m_max, x):
    """F_m(x) for m = 0..m_max; the series runs until every element of the
    batch has converged, so no element stops early."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    small = x < BOYS_SWITCH
    if np.any(small):
        out[:, small] = _boys_series(m_max, x[small])
    if np.any(~small):
        out[:, ~small] = _boys_asymptotic(m_max, x[~small])
    return out


def _boys_series(m_max, x):
    two_x = 2.0 * x
    term = np.full_like(x, 1.0 / (2 * m_max + 1))
    acc = term.copy()
    k = 0
    while True:
        k += 1
        term = term * two_x / (2 * m_max + 2 * k + 1)
        acc += term
        if np.all(term <= 1e-17 * acc) or k > 300:
            break
    ex = np.exp(-x)
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    out[m_max] = ex * acc
    for m in range(m_max - 1, -1, -1):
        out[m] = (two_x * out[m + 1] + ex) / (2 * m + 1)
    return out


def _boys_asymptotic(m_max, x):
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    out[0] = 0.5 * np.sqrt(np.pi / x)
    for m in range(1, m_max + 1):
        out[m] = out[m - 1] * (2 * m - 1) / (2.0 * x)
    return out


# ---- one basis-function pair -------------------------------------------------

def pair_data(fa, fb):
    """Primitive-pair quantities, one Hermite coefficient call per
    primitive pair and axis."""
    A, B = fa.center, fb.center
    la, lb = fa.powers, fb.powers
    pairs = [(a1, c1, a2, c2)
             for a1, c1 in zip(fa.alphas, fa.coeffs)
             for a2, c2 in zip(fb.alphas, fb.coeffs)]
    ab = A - B

    def coefficients(axis):
        # shape (n_pairs, t_range)
        return np.array([hermite_coefficients(la[axis], lb[axis], a1, a2,
                                              ab[axis])
                         for a1, _, a2, _ in pairs])

    return SimpleNamespace(
        la=la, lb=lb,
        p=np.array([a1 + a2 for a1, _, a2, _ in pairs]),
        coeff=np.array([c1 * c2 for _, c1, _, c2 in pairs]),
        P=np.array([(a1 * A + a2 * B) / (a1 + a2) for a1, _, a2, _ in pairs]),
        Ex=coefficients(0), Ey=coefficients(1), Ez=coefficients(2))


def overlap_pair(fa, fb):
    s = 0.0
    A, B = fa.center, fb.center
    ab = A - B
    for a1, c1 in zip(fa.alphas, fa.coeffs):
        for a2, c2 in zip(fb.alphas, fb.coeffs):
            p = a1 + a2
            ex = hermite_coefficients(fa.powers[0], fb.powers[0], a1, a2, ab[0])[0]
            ey = hermite_coefficients(fa.powers[1], fb.powers[1], a1, a2, ab[1])[0]
            ez = hermite_coefficients(fa.powers[2], fb.powers[2], a1, a2, ab[2])[0]
            s += c1 * c2 * ex * ey * ez * (np.pi / p) ** 1.5
    return s


def kinetic_pair(fa, fb):
    # Apply the 1D second-derivative expansion to the ket and reuse overlaps.
    t_total = 0.0
    A, B = fa.center, fb.center
    ab = A - B
    la = fa.powers

    def s1d(i, j, a1, a2, axis):
        if i < 0 or j < 0:
            return 0.0
        return hermite_coefficients(i, j, a1, a2, ab[axis])[0] * np.sqrt(np.pi / (a1 + a2))

    for a1, c1 in zip(fa.alphas, fa.coeffs):
        for a2, c2 in zip(fb.alphas, fb.coeffs):
            sx = [s1d(la[0], fb.powers[0] + d, a1, a2, 0) for d in (-2, 0, 2)]
            sy = [s1d(la[1], fb.powers[1] + d, a1, a2, 1) for d in (-2, 0, 2)]
            sz = [s1d(la[2], fb.powers[2] + d, a1, a2, 2) for d in (-2, 0, 2)]

            def t1d(j, s_list):
                lo, mid, hi = s_list
                val = -2.0 * a2 * (2 * j + 1) * mid + 4.0 * a2 * a2 * hi
                if j >= 2:
                    val += j * (j - 1) * lo
                return -0.5 * val

            tx = t1d(fb.powers[0], sx)
            ty = t1d(fb.powers[1], sy)
            tz = t1d(fb.powers[2], sz)
            t_total += c1 * c2 * (tx * sy[1] * sz[1]
                                  + sx[1] * ty * sz[1]
                                  + sx[1] * sy[1] * tz)
    return t_total


def nuclear_pair(pair, coords, charges):
    la, lb = pair.la, pair.lb
    tmax = la[0] + lb[0]
    umax = la[1] + lb[1]
    vmax = la[2] + lb[2]
    total = 0.0
    for C, Z in zip(coords, charges):
        PC = pair.P - C[None, :]
        F = boys(tmax + umax + vmax, _boys_argument(pair.p, PC))
        R = _hermite_coulomb(tmax, umax, vmax, pair.p, PC, F)
        acc = np.zeros_like(pair.p)
        for t in range(tmax + 1):
            for u in range(umax + 1):
                for v in range(vmax + 1):
                    acc += pair.Ex[:, t] * pair.Ey[:, u] * pair.Ez[:, v] * R[t, u, v]
        total += -Z * np.sum(pair.coeff * (2.0 * np.pi / pair.p) * acc)
    return total


def one_electron_pair_by_pair(molecule):
    """S, T and V, one basis-function pair at a time."""
    funcs = load_basis(molecule)
    n = len(funcs)
    coords = molecule.coordinates()
    charges = molecule.charges()
    S, T, V = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            S[i, j] = S[j, i] = overlap_pair(funcs[i], funcs[j])
            T[i, j] = T[j, i] = kinetic_pair(funcs[i], funcs[j])
            V[i, j] = V[j, i] = nuclear_pair(pair_data(funcs[i], funcs[j]),
                                             coords, charges)
    return S, T, V


# ---- one quartet -------------------------------------------------------------

def signed_convolution(Ea, Eb):
    """entry [i, j, s] = sum_{t + tau = s} Ea[i, t] * Eb[j, tau] * (-1)^tau"""
    na, ta = Ea.shape
    nb, tb = Eb.shape
    out = np.zeros((na, nb, ta + tb - 1))
    for t in range(ta):
        for tau in range(tb):
            sign = -1.0 if tau % 2 else 1.0
            out[:, :, t + tau] += sign * Ea[:, t][:, None] * Eb[:, tau][None, :]
    return out


def eri_quartet(bra, ket):
    p = bra.p
    q = ket.p
    np_, nq = p.shape[0], q.shape[0]
    pq = p[:, None] * q[None, :]
    psum = p[:, None] + q[None, :]
    alpha = (pq / psum).ravel()
    PQ = (bra.P[:, None, :] - ket.P[None, :, :]).reshape(-1, 3)

    Gx = signed_convolution(bra.Ex, ket.Ex)
    Gy = signed_convolution(bra.Ey, ket.Ey)
    Gz = signed_convolution(bra.Ez, ket.Ez)
    smax_x = Gx.shape[2] - 1
    smax_y = Gy.shape[2] - 1
    smax_z = Gz.shape[2] - 1

    F = boys(smax_x + smax_y + smax_z, _boys_argument(alpha, PQ))
    R = _hermite_coulomb(smax_x, smax_y, smax_z, alpha, PQ, F)
    R = R.reshape(smax_x + 1, smax_y + 1, smax_z + 1, np_, nq)

    acc = np.zeros((np_, nq))
    for s1 in range(smax_x + 1):
        for s2 in range(smax_y + 1):
            for s3 in range(smax_z + 1):
                acc += Gx[:, :, s1] * Gy[:, :, s2] * Gz[:, :, s3] * R[s1, s2, s3]

    pref = 2.0 * np.pi ** 2.5 / (pq * np.sqrt(psum))
    weights = bra.coeff[:, None] * ket.coeff[None, :]
    return float(np.sum(weights * pref * acc))


def eri_quartet_by_quartet(molecule):
    """Each canonical (bra|ket) on its own, mirrored into its eight images."""
    funcs = load_basis(molecule)
    n = len(funcs)
    pairs = {(i, j): pair_data(funcs[i], funcs[j])
             for i in range(n) for j in range(i + 1)}
    pair_list = list(pairs)
    eri = np.zeros((n, n, n, n))
    for index, (i, j) in enumerate(pair_list):
        for (k, l) in pair_list[:index + 1]:
            val = eri_quartet(pairs[(i, j)], pairs[(k, l)])
            for (a, b) in ((i, j), (j, i)):
                for (c, d) in ((k, l), (l, k)):
                    eri[a, b, c, d] = val
                    eri[c, d, a, b] = val
    return eri
