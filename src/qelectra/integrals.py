"""Analytic one- and two-electron integrals over contracted Gaussians.

Uses Hermite-Gaussian expansion recurrences for overlap, kinetic, nuclear
attraction and electron repulsion. The Boys function is evaluated by a
downward-recursion series below x = 35 and the asymptotic closed form above,
accurate to about 1e-13 across the switch.

Electron repulsion integrals are returned as a dense (n, n, n, n) array in
chemists' notation (ij|kl); only canonical index quartets are computed and
the eight symmetry images are filled from each one. The canonical quartets
are batched by angular class: basis-function pairs are keyed by primitive
count and per-axis Hermite lengths, and every quartet of one (bra class,
ket class) is evaluated in one Hermite Coulomb call over all its primitive
quartets, up to a fixed number per call.

Batching follows one rule: the tensor is bit-identical to evaluating the
quartets one at a time. Each primitive quartet goes through the same
elementwise operations in the same order (the Hermite products summed in a
fixed s1/s2/s3 order, then one sum over each quartet's primitives), and no
reduction is regrouped. The rule matters because a split degenerate shell
(the shipped CO2 window) turns a 1e-16 change in the integrals into a
milli-Hartree change in the correlation energy.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .basis import ContractedGaussian, load_basis
from .molecule import Molecule, nuclear_repulsion

MAX_BASIS_FUNCTIONS = 32
_BOYS_SWITCH = 35.0
# Primitive quartets per Hermite Coulomb call: caps the working memory of
# one batch (compute_integrals on CO2 peaks at about 4 MB).
_PRIMITIVE_QUARTETS_PER_CALL = 1 << 15


def boys(m_max: int, x) -> np.ndarray:
    """Boys function F_m(x) for m = 0..m_max, vectorized over x.

    Returns an array of shape (m_max + 1,) + x.shape.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    small = x < _BOYS_SWITCH
    if np.any(small):
        out[:, small] = _boys_series(m_max, x[small])
    if np.any(~small):
        out[:, ~small] = _boys_asymptotic(m_max, x[~small])
    return out


def _boys_series(m_max: int, x: np.ndarray) -> np.ndarray:
    # F_m(x) = exp(-x) * sum_k (2x)^k (2m-1)!! / (2m+2k+1)!!, evaluated at the
    # highest order, then recurred downward (stable direction).
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


def _boys_asymptotic(m_max: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    out[0] = 0.5 * np.sqrt(np.pi / x)
    # upward recursion; the exp(-x) term is below double precision here
    for m in range(1, m_max + 1):
        out[m] = out[m - 1] * (2 * m - 1) / (2.0 * x)
    return out


def hermite_coefficients(i: int, j: int, a: float, b: float, ab: float) -> np.ndarray:
    """1D Hermite expansion coefficients E_t for x^i, x^j Gaussians.

    `ab` is (A - B) along the axis. Includes the pair prefactor
    exp(-mu * ab^2), so E[0] for i = j = 0 is the full 1D overlap kernel.
    """
    p = a + b
    mu = a * b / p
    # E[iprime, jprime, t]; recursion over one index at a time
    E = np.zeros((i + 1, j + 1, i + j + 2))
    E[0, 0, 0] = np.exp(-mu * ab * ab)
    pa = -b * ab / p   # P - A with P = (aA + bB)/p; A - B = ab
    pb = a * ab / p    # P - B
    for ii in range(1, i + 1):
        for t in range(ii + 1):
            val = pa * E[ii - 1, 0, t]
            if t > 0:
                val += E[ii - 1, 0, t - 1] / (2.0 * p)
            if t + 1 <= ii - 1:
                val += (t + 1) * E[ii - 1, 0, t + 1]
            E[ii, 0, t] = val
    for ii in range(i + 1):
        for jj in range(1, j + 1):
            for t in range(ii + jj + 1):
                val = pb * E[ii, jj - 1, t]
                if t > 0:
                    val += E[ii, jj - 1, t - 1] / (2.0 * p)
                if t + 1 <= ii + jj - 1:
                    val += (t + 1) * E[ii, jj - 1, t + 1]
                E[ii, jj, t] = val
    return E[i, j, : i + j + 1]


def _hermite_coulomb(tmax: int, umax: int, vmax: int, p, PC) -> np.ndarray:
    """Hermite Coulomb tensor R_{tuv}(p, PC), vectorized over a leading axis.

    `p` has shape (k,), `PC` shape (k, 3). Returns (tmax+1, umax+1, vmax+1, k).
    """
    p = np.asarray(p, dtype=float)
    PC = np.asarray(PC, dtype=float)
    k = p.shape[0]
    n_tot = tmax + umax + vmax
    r2 = np.einsum("ki,ki->k", PC, PC)
    F = boys(n_tot, p * r2)                      # (n_tot+1, k)
    minus_2p = -2.0 * p
    base = np.empty_like(F)
    scale = np.ones_like(p)
    for n in range(n_tot + 1):
        base[n] = scale * F[n]                   # (-2p)^n F_n
        scale = scale * minus_2p
    # R[n][t,u,v] built downward in n
    R_prev = {(0, 0, 0): base[n_tot]}
    for n in range(n_tot - 1, -1, -1):
        R_cur = {(0, 0, 0): base[n]}
        limit = n_tot - n
        for t in range(min(tmax, limit) + 1):
            for u in range(min(umax, limit - t) + 1):
                for v in range(min(vmax, limit - t - u) + 1):
                    if t == u == v == 0:
                        continue
                    if t > 0:
                        val = PC[:, 0] * R_prev.get((t - 1, u, v), 0.0)
                        if t > 1:
                            val = val + (t - 1) * R_prev.get((t - 2, u, v), 0.0)
                    elif u > 0:
                        val = PC[:, 1] * R_prev.get((t, u - 1, v), 0.0)
                        if u > 1:
                            val = val + (u - 1) * R_prev.get((t, u - 2, v), 0.0)
                    else:
                        val = PC[:, 2] * R_prev.get((t, u, v - 1), 0.0)
                        if v > 1:
                            val = val + (v - 1) * R_prev.get((t, u, v - 2), 0.0)
                    R_cur[(t, u, v)] = val
        R_prev = R_cur
    out = np.zeros((tmax + 1, umax + 1, vmax + 1, k))
    for (t, u, v), val in R_prev.items():
        out[t, u, v] = val
    return out


class _PairData:
    """Precomputed primitive-pair quantities for one basis-function pair."""

    __slots__ = ("p", "P", "coeff", "Ex", "Ey", "Ez", "la", "lb")

    def __init__(self, fa: ContractedGaussian, fb: ContractedGaussian):
        A, B = fa.center, fb.center
        la, lb = fa.powers, fb.powers
        self.la, self.lb = la, lb
        pairs = [(a1, c1, a2, c2)
                 for a1, c1 in zip(fa.alphas, fa.coeffs)
                 for a2, c2 in zip(fb.alphas, fb.coeffs)]
        n = len(pairs)
        self.p = np.array([a1 + a2 for a1, _, a2, _ in pairs])
        self.coeff = np.array([c1 * c2 for _, c1, _, c2 in pairs])
        self.P = np.array([(a1 * A + a2 * B) / (a1 + a2)
                           for a1, _, a2, _ in pairs])
        ab = A - B
        # per-axis Hermite coefficient arrays, shape (n_pairs, t_range)
        self.Ex = np.array([hermite_coefficients(la[0], lb[0], a1, a2, ab[0])
                            for a1, _, a2, _ in pairs])
        self.Ey = np.array([hermite_coefficients(la[1], lb[1], a1, a2, ab[1])
                            for a1, _, a2, _ in pairs])
        self.Ez = np.array([hermite_coefficients(la[2], lb[2], a1, a2, ab[2])
                            for a1, _, a2, _ in pairs])


def _overlap_pair(fa: ContractedGaussian, fb: ContractedGaussian) -> float:
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


def _kinetic_pair(fa: ContractedGaussian, fb: ContractedGaussian) -> float:
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


def _nuclear_pair(pair: _PairData, coords: np.ndarray, charges: np.ndarray) -> float:
    la, lb = pair.la, pair.lb
    tmax = la[0] + lb[0]
    umax = la[1] + lb[1]
    vmax = la[2] + lb[2]
    total = 0.0
    for C, Z in zip(coords, charges):
        PC = pair.P - C[None, :]
        R = _hermite_coulomb(tmax, umax, vmax, pair.p, PC)
        acc = np.zeros_like(pair.p)
        for t in range(tmax + 1):
            for u in range(umax + 1):
                for v in range(vmax + 1):
                    acc += pair.Ex[:, t] * pair.Ey[:, u] * pair.Ez[:, v] * R[t, u, v]
        total += -Z * np.sum(pair.coeff * (2.0 * np.pi / pair.p) * acc)
    return total


def _signed_convolution(Ea: np.ndarray, Eb: np.ndarray) -> np.ndarray:
    """Combine bra/ket Hermite coefficients along one axis with the ket sign.

    Ea has shape (m, na, ta), Eb (m, nb, tb) for m quartets; the result has
    shape (ta + tb - 1, m, na, nb) with entry [s, q, i, j] =
    sum_{t + tau = s} Ea[q, i, t] * Eb[q, j, tau] * (-1)^tau.
    """
    m, na, ta = Ea.shape
    nb, tb = Eb.shape[1:]
    out = np.zeros((ta + tb - 1, m, na, nb))
    for t in range(ta):
        for tau in range(tb):
            sign = -1.0 if tau % 2 else 1.0
            out[t + tau] += sign * Ea[:, :, t, None] * Eb[:, None, :, tau]
    return out


class _PairClass:
    """The pairs of one angular class, stacked along a leading axis."""

    def __init__(self, pairs: List[_PairData]):
        self.p = np.stack([pair.p for pair in pairs])          # (n, K)
        self.P = np.stack([pair.P for pair in pairs])          # (n, K, 3)
        self.coeff = np.stack([pair.coeff for pair in pairs])  # (n, K)
        self.E = tuple(np.stack([getattr(pair, axis) for pair in pairs])
                       for axis in ("Ex", "Ey", "Ez"))         # (n, K, t)


def _eri_batch(bra: _PairClass, ket: _PairClass,
               rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(bra[rows[q]] | ket[cols[q]]) for every quartet q of one class pair."""
    p = bra.p[rows]
    q = ket.p[cols]
    m, kb = p.shape
    kk = q.shape[1]
    pq = p[:, :, None] * q[:, None, :]
    psum = p[:, :, None] + q[:, None, :]
    alpha = (pq / psum).ravel()
    PQ = (bra.P[rows][:, :, None, :] - ket.P[cols][:, None, :, :]).reshape(-1, 3)

    Gx, Gy, Gz = (_signed_convolution(Eb[rows], Ek[cols])
                  for Eb, Ek in zip(bra.E, ket.E))
    sx, sy, sz = Gx.shape[0], Gy.shape[0], Gz.shape[0]
    R = _hermite_coulomb(sx - 1, sy - 1, sz - 1, alpha, PQ)
    R = R.reshape(sx, sy, sz, m, kb, kk)

    acc = np.zeros((m, kb, kk))
    for s1 in range(sx):
        for s2 in range(sy):
            for s3 in range(sz):
                acc += Gx[s1] * Gy[s2] * Gz[s3] * R[s1, s2, s3]

    pref = 2.0 * np.pi ** 2.5 / (pq * np.sqrt(psum))
    weights = bra.coeff[rows][:, :, None] * ket.coeff[cols][:, None, :]
    return np.sum((weights * pref * acc).reshape(m, kb * kk), axis=1)


def _eri_table(pairs: List[_PairData]) -> np.ndarray:
    """(bra|ket) for every two pairs, as a symmetric (pairs x pairs) table.

    Each canonical quartet (ket index <= bra index) is computed once, in
    one batch per (bra class, ket class), and mirrored.
    """
    members = defaultdict(list)
    for index, pair in enumerate(pairs):
        # angular class: primitive count and per-axis Hermite lengths
        key = (pair.p.size, pair.Ex.shape[1], pair.Ey.shape[1],
               pair.Ez.shape[1])
        members[key].append(index)
    classes = {key: (np.array(idx), _PairClass([pairs[i] for i in idx]))
               for key, idx in members.items()}

    table = np.zeros((len(pairs), len(pairs)))
    for bra_index, bra in classes.values():
        for ket_index, ket in classes.values():
            rows, cols = np.nonzero(ket_index[None, :] <= bra_index[:, None])
            per_quartet = bra.p.shape[1] * ket.p.shape[1]
            step = max(1, _PRIMITIVE_QUARTETS_PER_CALL // per_quartet)
            for lo in range(0, rows.size, step):
                r, c = rows[lo:lo + step], cols[lo:lo + step]
                vals = _eri_batch(bra, ket, r, c)
                table[bra_index[r], ket_index[c]] = vals
                table[ket_index[c], bra_index[r]] = vals
    return table


@dataclass
class IntegralSet:
    """All molecular integrals over one basis, plus layout metadata."""

    overlap: np.ndarray        # S, (n, n)
    kinetic: np.ndarray        # T, (n, n)
    nuclear: np.ndarray        # V, (n, n)
    eri: np.ndarray            # (ij|kl) chemists' notation, (n, n, n, n)
    basis_name: str
    n_basis: int
    basis_functions: List[ContractedGaussian] = field(default_factory=list)
    nuclear_repulsion: float = 0.0

    @property
    def core_hamiltonian(self) -> np.ndarray:
        return self.kinetic + self.nuclear


def compute_integrals(molecule: Molecule, basis_name: str = "sto-3g") -> IntegralSet:
    """Compute S, T, V and the full ERI tensor for a molecule.

    Deterministic: the basis ordering is fixed by the input, every loop runs
    in a fixed order, and no threading is involved.
    """
    funcs = load_basis(molecule, basis_name)
    n = len(funcs)
    if n > MAX_BASIS_FUNCTIONS:
        raise ValueError(
            f"{n} basis functions exceeds the dense-ERI cap of {MAX_BASIS_FUNCTIONS}")

    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    coords = molecule.coordinates()
    charges = molecule.charges()

    pair_list = []
    pair_of = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i + 1):
            pair = _PairData(funcs[i], funcs[j])
            pair_of[i, j] = pair_of[j, i] = len(pair_list)
            pair_list.append(pair)
            S[i, j] = S[j, i] = _overlap_pair(funcs[i], funcs[j])
            T[i, j] = T[j, i] = _kinetic_pair(funcs[i], funcs[j])
            V[i, j] = V[j, i] = _nuclear_pair(pair, coords, charges)

    table = _eri_table(pair_list)
    eri = table[pair_of[:, :, None, None], pair_of[None, None, :, :]]

    return IntegralSet(overlap=S, kinetic=T, nuclear=V, eri=eri,
                       basis_name=basis_name, n_basis=n,
                       basis_functions=funcs,
                       nuclear_repulsion=nuclear_repulsion(molecule))
