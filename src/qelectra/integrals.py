"""Analytic one- and two-electron integrals over contracted Gaussians.

Uses the McMurchie-Davidson Hermite-Gaussian recurrences for overlap,
kinetic, nuclear attraction and electron repulsion. The Boys function is
evaluated by a downward-recursion series below x = 35 and the asymptotic
closed form above, accurate to about 1e-13 across the switch.

Basis-function pairs are grouped into angular classes, keyed by primitive
count and per-axis Hermite lengths. Each pair's Hermite coefficients come
from one call per axis over all its primitive pairs. S and T are summed per
class; V takes one Hermite Coulomb call per class over all its pairs,
nuclei and primitive pairs. Electron repulsion integrals are returned as a
dense (n, n, n, n) array in chemists' notation (ij|kl); only canonical
index quartets are computed and the eight symmetry images are filled from
each one. Every quartet of one (bra class, ket class) is evaluated in one
Hermite Coulomb call over all its primitive quartets, up to a fixed number
per call.

Batching follows one rule: S, T, V and the ERI tensor are bit-identical to
evaluating one primitive pair, pair, nucleus or quartet at a time. This
holds because:
- every primitive pair or quartet goes through the same elementwise
  operations in the same order (Hermite products in a fixed t/u/v order,
  and (pi/p)^1.5 as a scalar power, since numpy's array power can round
  differently);
- no reduction is regrouped: S, T and the sum over nuclei add one term at
  a time from 0.0 as the loops did, and V and the ERIs take np.sum over
  each row of primitives, as the loops' np.sum did;
- the Boys series stops summing an element once its term is at most 1e-17
  of its sum, not when the slowest element of the batch converges. Such a
  term is below half an ulp of the sum and every later term is smaller, so
  the additions it skips changed nothing, and an element's value does not
  depend on the others in its batch.
The rule matters because a split degenerate shell (the shipped CO2 window)
turns a 1e-16 change in the integrals into a milli-Hartree change in the
correlation energy.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import List

import numpy as np

from .basis import ContractedGaussian, load_basis
from .molecule import Molecule, nuclear_repulsion

MAX_BASIS_FUNCTIONS = 32
_BOYS_SWITCH = 35.0
# The Boys series compacts its working set only while it holds more than
# this many elements. Its masks take a byte per element, and numpy keeps
# freed buffers under 1 KB for reuse, one set per size: compacting further
# left about 0.15 MB of such buffers held after CO2's integrals.
_BOYS_MIN_COMPACTION = 1024
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
    acc = np.full_like(x, 1.0 / (2 * m_max + 1))
    # Every fourth term, once at least half of the working set has a term
    # at most 1e-17 of its sum, those elements leave it. Such a term is
    # below half an ulp of the sum, and it lies past the largest term (up
    # to there each term is at least 1/(k+1) of the sum), so the terms only
    # shrink after it and summing on would change no bit. Leaving only in
    # halves keeps the copies few: a copy at every check grew the peak
    # memory of CO2's integrals by 0.4 MB.
    live = np.arange(x.size)
    term, part, ratio = acc.copy(), acc.copy(), two_x
    for k in range(1, 302):
        term *= ratio
        term /= 2 * m_max + 2 * k + 1
        part += term
        if k % 4 == 0:
            done = term <= 1e-17 * part
            converged = np.count_nonzero(done)
            if converged == live.size:
                break
            if 2 * converged >= live.size > _BOYS_MIN_COMPACTION:
                acc[live[done]] = part[done]
                keep = ~done
                live, term = live[keep], term[keep]
                part, ratio = part[keep], ratio[keep]
    acc[live] = part
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


def hermite_coefficients(i: int, j: int, a, b, ab: float) -> np.ndarray:
    """1D Hermite expansion coefficients E_t for x^i, x^j Gaussians.

    `a` and `b` are the exponents, scalars or arrays of one shape (one entry
    per primitive pair); the result has shape (i + j + 1,) + that shape.
    `ab` is (A - B) along the axis. Includes the pair prefactor
    exp(-mu * ab^2), so E[0] for i = j = 0 is the full 1D overlap kernel.
    """
    p = a + b
    mu = a * b / p
    # E[iprime, jprime, t]; recursion over one index at a time
    E = np.zeros((i + 1, j + 1, i + j + 2) + np.shape(p))
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
    base = boys(n_tot, p * r2)                   # (n_tot+1, k)
    minus_2p = -2.0 * p
    scale = np.ones_like(p)
    for n in range(n_tot + 1):
        base[n] *= scale                         # (-2p)^n F_n
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
    """Primitive-pair quantities for one basis-function pair.

    Primitive pairs run along the leading axis of every array, bra primitive
    major. `overlap` and `kinetic` are the pair's S and T terms per primitive
    pair, in the operation order of the one-primitive-pair formulas.
    """

    __slots__ = ("p", "P", "coeff", "Ex", "Ey", "Ez", "overlap", "kinetic")

    def __init__(self, fa: ContractedGaussian, fb: ContractedGaussian):
        A, B = fa.center, fb.center
        na, nb = fa.alphas.size, fb.alphas.size
        a1, c1 = np.repeat(fa.alphas, nb), np.repeat(fa.coeffs, nb)
        a2, c2 = np.tile(fb.alphas, na), np.tile(fb.coeffs, na)
        self.p = a1 + a2
        self.coeff = c1 * c2
        self.P = (a1[:, None] * A + a2[:, None] * B) / self.p[:, None]
        ab = A - B
        # per-axis Hermite coefficient arrays, shape (n_pairs, t_range);
        # copied, so that they do not hold the whole recursion table
        self.Ex, self.Ey, self.Ez = (
            hermite_coefficients(i, j, a1, a2, d).T.copy()
            for i, j, d in zip(fa.powers, fb.powers, ab))

        # (pi / p)^1.5 as one scalar power per element: numpy's array power
        # can round differently in the last bit
        gaussian = np.array([(np.pi / p) ** 1.5 for p in self.p])
        self.overlap = (self.coeff * self.Ex[:, 0] * self.Ey[:, 0]
                        * self.Ez[:, 0] * gaussian)

        # kinetic: the ket's 1D second derivative, as 1D overlaps (s) with
        # the ket power moved by -2, 0 and +2, giving 1D kinetic terms (t)
        root = np.sqrt(np.pi / self.p)
        s = [E[:, 0] * root for E in (self.Ex, self.Ey, self.Ez)]
        t = []
        for axis, (i, j, d) in enumerate(zip(fa.powers, fb.powers, ab)):
            hi = hermite_coefficients(i, j + 2, a1, a2, d)[0] * root
            val = -2.0 * a2 * (2 * j + 1) * s[axis] + 4.0 * a2 * a2 * hi
            if j >= 2:
                lo = hermite_coefficients(i, j - 2, a1, a2, d)[0] * root
                val += j * (j - 1) * lo
            t.append(-0.5 * val)
        self.kinetic = self.coeff * (t[0] * s[1] * s[2] + s[0] * t[1] * s[2]
                                     + s[0] * s[1] * t[2])


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis one term at a time, starting from 0.0.

    This is the order of a Python loop `total += term`; np.sum regroups the
    additions and np.cumsum can leave -0.0 where the loop gives 0.0.
    """
    return sum(np.moveaxis(terms, -1, 0), 0.0)


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
        self.overlap = np.stack([pair.overlap for pair in pairs])  # (n, K)
        self.kinetic = np.stack([pair.kinetic for pair in pairs])  # (n, K)


def _pair_classes(pairs: List[_PairData]):
    """Group pairs by angular class: primitive count and per-axis Hermite
    lengths. Returns (pair indices, _PairClass) per class."""
    members = defaultdict(list)
    for index, pair in enumerate(pairs):
        key = (pair.p.size, pair.Ex.shape[1], pair.Ey.shape[1],
               pair.Ez.shape[1])
        members[key].append(index)
    return [(np.array(idx), _PairClass([pairs[i] for i in idx]))
            for idx in members.values()]


def _nuclear_attraction(cls: _PairClass, coords: np.ndarray,
                        charges: np.ndarray) -> np.ndarray:
    """V for every pair of one class, from one Hermite Coulomb call over
    all its pairs, nuclei and primitive pairs."""
    PC = cls.P[:, None] - coords[None, :, None]       # (n, nuclei, K, 3)
    shape = PC.shape[:3]
    tmax, umax, vmax = (E.shape[2] - 1 for E in cls.E)
    p = np.broadcast_to(cls.p[:, None], shape).ravel()
    R = _hermite_coulomb(tmax, umax, vmax, p, PC.reshape(-1, 3))
    R = R.reshape(R.shape[:3] + shape)
    Ex, Ey, Ez = (E[:, None] for E in cls.E)          # (n, 1, K, t)
    acc = np.zeros(shape)
    for t in range(tmax + 1):
        for u in range(umax + 1):
            for v in range(vmax + 1):
                acc += Ex[..., t] * Ey[..., u] * Ez[..., v] * R[t, u, v]
    # np.sum over each (pair, nucleus) row of primitive pairs, then the
    # nuclei added in input order
    per_nucleus = np.sum(cls.coeff[:, None] * (2.0 * np.pi / cls.p[:, None])
                         * acc, axis=-1)
    return _sequential_sum(-charges * per_nucleus)


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


def _eri_table(classes, n_pairs: int) -> np.ndarray:
    """(bra|ket) for every two pairs, as a symmetric (pairs x pairs) table.

    Each canonical quartet (ket index <= bra index) is computed once, in
    one batch per (bra class, ket class), and mirrored.
    """
    table = np.zeros((n_pairs, n_pairs))
    for bra_index, bra in classes:
        for ket_index, ket in classes:
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
    n_basis: int
    nuclear_repulsion: float = 0.0

    @property
    def core_hamiltonian(self) -> np.ndarray:
        return self.kinetic + self.nuclear


def compute_integrals(molecule: Molecule) -> IntegralSet:
    """Compute S, T, V and the full ERI tensor for a molecule.

    Deterministic: the basis ordering is fixed by the input, every loop runs
    in a fixed order, and no threading is involved.
    """
    funcs = load_basis(molecule)
    n = len(funcs)
    if n > MAX_BASIS_FUNCTIONS:
        raise ValueError(
            f"{n} basis functions exceeds the dense-ERI cap of {MAX_BASIS_FUNCTIONS}")

    rows, cols = np.tril_indices(n)
    pairs = [_PairData(funcs[i], funcs[j]) for i, j in zip(rows, cols)]
    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[rows, cols] = pair_of[cols, rows] = np.arange(rows.size)

    classes = _pair_classes(pairs)
    coords = molecule.coordinates()
    charges = molecule.charges()
    s, t, v = (np.empty(len(pairs)) for _ in range(3))
    for index, cls in classes:
        s[index] = _sequential_sum(cls.overlap)
        t[index] = _sequential_sum(cls.kinetic)
        v[index] = _nuclear_attraction(cls, coords, charges)

    table = _eri_table(classes, len(pairs))
    eri = table[pair_of[:, :, None, None], pair_of[None, None, :, :]]

    return IntegralSet(overlap=s[pair_of], kinetic=t[pair_of],
                       nuclear=v[pair_of], eri=eri, n_basis=n,
                       nuclear_repulsion=nuclear_repulsion(molecule))
