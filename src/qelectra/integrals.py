"""Analytic one- and two-electron integrals over contracted Gaussians.

Uses the McMurchie-Davidson Hermite-Gaussian recurrences for overlap,
kinetic, nuclear attraction and electron repulsion. The Boys function is
evaluated by a downward-recursion series below x = 35 and the asymptotic
closed form above, accurate to about 1e-13 across the switch.

Every basis-function pair is one row of flat tables: p, P, contraction
weights, and per-axis Hermite coefficients E zero-padded to the longest
axis, beside the pair's per-axis Hermite lengths. Rows are filled per power
class (primitive counts and powers of both functions), one Hermite call per
axis and kinetic shift, with S and T. V takes one Hermite Coulomb call per
angular class (primitive pairs, Hermite lengths) and one Boys call for
each. The ERIs, a dense (n, n, n, n) array in chemists' notation
(ij|kl), are computed once per canonical quartet that no coordinate plane
makes zero (below) and batched by what the arithmetic depends on: Boys
order, primitive counts and box (sx, sy, sz), the per-axis bra plus ket
Hermite length less one. A batch holds at most
_PRIMITIVE_QUARTETS_PER_CALL Hermite Coulomb elements (primitive quartets
times box volume); its convolutions use the Hermite columns up to the
batch's longest bra and ket lengths, its Coulomb tensor the box.

Geometries of one basis layout (the same elements in the same order, as
along a bond scan) go through one set of these tables, classes, Boys calls
and batches: each geometry's pairs are rows of the same tables, attracted
only by their own geometry's nuclei, and quartets are formed only within
one geometry.

S, T, V and the ERIs are bit-identical to evaluating one primitive pair,
pair, nucleus or quartet at a time, because:
- each primitive pair or quartet sees the same elementwise operations in
  the same order (Hermite products in t/u/v order; (pi/p)^1.5 as a scalar
  power, as numpy's array power can round differently);
- no reduction is regrouped: S, T and the sum over nuclei add one term at
  a time from 0.0; V and the ERIs take np.sum over each primitive row;
- zero-padded Hermite columns add only exact zeros to the convolutions'
  sums, which start at +0.0 and so never hold -0.0: adding a zero changes
  no bit, and the real terms keep their relative order;
- the Boys series sums until every element's term is at most 1e-17 of
  its sum. Such a term is below half an ulp and every later term is
  smaller, so an element that converged first keeps its bits while the
  rest sum on: its value does not depend on the others in its batch;
- the ERIs evaluate each Boys value once per (Boys order, bra shell pair,
  ket shell pair). A shell, a function's center and exponents (an sp
  shell's 2s and 2p share one), fixes p and P per primitive pair, so all
  quartets of one shell-pair quartet have bitwise-equal Boys arguments.
  Orders are not shared: F_0 from a recursion started at m_max = 2 can
  differ in the last bit from F_0 at m_max = 0;
- geometries batched together change no bit: no quartet mixes two of
  them, and Boys rows are shared only between bitwise-equal arguments. An
  atom at the same place in two geometries (the fixed Li of a LiH scan)
  has the same shells in both, so its shell-pair quartets share their
  rows across the points;
- the ERIs skip each quartet whose total Cartesian power is odd along an
  axis on which every nucleus of its geometry sits at 0.0, and leave its
  +0.0. That is the computed value: there A - B, P, Q and P - Q are zero
  along the axis, so every term of its Hermite sum has an exact-zero
  factor (a pair's Hermite coefficient of the wrong parity, or R at odd
  t), the sum stays at its +0.0 start, and every STO-3G function has a
  positive contraction coefficient, so one primitive quartet has a
  positive weight and the contracted sum is +0.0. A shared coordinate
  c != 0 gives no such zeros: P = (a c + b c) / p need not be c bit for
  bit.

Bit identity matters because a split degenerate shell (the shipped CO2
window) turns a 1e-16 change in the integrals into a milli-Hartree change
in the correlation energy.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from typing import List, Sequence

import numpy as np

from .basis import ContractedGaussian, load_basis
from .molecule import Molecule, nuclear_repulsion

MAX_BASIS_FUNCTIONS = 32
_BOYS_SWITCH = 35.0
# Hermite Coulomb tensor elements (primitive quartets times box volume) per
# ERI call: caps the working memory of one batch (compute_integrals on CO2
# peaks at about 2.85 MB).
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
    # Every fourth term the sum stops once every element has a term at most
    # 1e-17 of its sum. Such a term is below half an ulp of the sum, and it
    # lies past the largest term (up to there each term is at least
    # 1/(k+1) of the sum), so the terms only shrink after it and the
    # elements that converged earlier keep every bit while the rest sum on.
    term = acc.copy()
    for k in range(1, 302):
        term *= two_x
        term /= 2 * m_max + 2 * k + 1
        acc += term
        if k % 4 == 0 and np.all(term <= 1e-17 * acc):
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


def hermite_coefficients(i: int, j: int, a, b, ab: float) -> np.ndarray:
    """1D Hermite expansion coefficients E_t for x^i, x^j Gaussians.

    `a` and `b` are the exponents, scalars or arrays of one shape (one entry
    per primitive pair); the result has shape (i + j + 1,) + that shape.
    `ab` is (A - B) along the axis, a scalar or an array that broadcasts
    against `a` (an (n, 1) column for n pairs). Includes the pair prefactor
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


def _boys_argument(p, PC) -> np.ndarray:
    """x = p |PC|^2 per row, the argument of the Boys function in R_{tuv}."""
    return p * np.einsum("ki,ki->k", PC, PC)


def _hermite_coulomb(tmax: int, umax: int, vmax: int, p, PC,
                     F) -> np.ndarray:
    """Hermite Coulomb tensor R_{tuv}(p, PC), vectorized over a leading axis.

    `p` has shape (k,), `PC` shape (k, 3). `F` holds
    boys(tmax + umax + vmax, _boys_argument(p, PC)) and is overwritten.
    Returns (tmax+1, umax+1, vmax+1, k).
    """
    p = np.asarray(p, dtype=float)
    PC = np.asarray(PC, dtype=float)
    k = p.shape[0]
    n_tot = tmax + umax + vmax
    minus_2p = -2.0 * p
    scale = np.ones_like(p)
    for n in range(n_tot + 1):
        F[n] *= scale                            # (-2p)^n F_n
        scale = scale * minus_2p
    # R[n][t,u,v] built downward in n
    R_prev = {(0, 0, 0): F[n_tot]}
    for n in range(n_tot - 1, -1, -1):
        R_cur = {(0, 0, 0): F[n]}
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


def _hermite_sum(Gx: np.ndarray, Gy: np.ndarray, Gz: np.ndarray,
                 R: np.ndarray) -> np.ndarray:
    """sum over the box of R of Gx[t] Gy[u] Gz[v] R[t, u, v], one term at a
    time in t/u/v order."""
    acc = np.zeros(R.shape[3:])
    for t in range(R.shape[0]):
        for u in range(R.shape[1]):
            GxGy = Gx[t] * Gy[u]
            for v in range(R.shape[2]):
                acc += GxGy * Gz[v] * R[t, u, v]
    return acc


class _PairTables:
    """Primitive-pair quantities of the function pairs (rows[r], cols[r]),
    one row r per pair. Primitive pairs run along axis 1, bra primitive
    major, padded to the widest pair (`K` holds each pair's count); the
    Hermite coefficients `E` along axis 2, zero-padded (`length` holds each
    pair's per-axis lengths). `overlap` and `kinetic` hold S and T."""

    def __init__(self, funcs: List[ContractedGaussian], rows: np.ndarray,
                 cols: np.ndarray):
        n_prim = np.array([f.alphas.size for f in funcs])
        powers = np.array([f.powers for f in funcs])
        self.K = n_prim[rows] * n_prim[cols]
        self.length = powers[rows] + powers[cols] + 1
        shape = (rows.size, self.K.max())
        self.p, self.coeff = np.ones(shape), np.zeros(shape)
        self.P = np.zeros(shape + (3,))
        self.E = tuple(np.zeros(shape + (self.length.max(),)) for _ in "xyz")
        self.overlap, self.kinetic = np.empty(rows.size), np.empty(rows.size)

        classes = defaultdict(list)     # power class -> pair indices
        for index, (i, j) in enumerate(zip(rows, cols)):
            classes[n_prim[i], n_prim[j], *powers[i], *powers[j]].append(index)
        for index in map(np.array, classes.values()):
            bra = [funcs[i] for i in rows[index]]
            ket = [funcs[j] for j in cols[index]]
            na, nb = bra[0].alphas.size, ket[0].alphas.size
            a1 = np.repeat([f.alphas for f in bra], nb, axis=1)
            c1 = np.repeat([f.coeffs for f in bra], nb, axis=1)
            a2 = np.tile([f.alphas for f in ket], (1, na))
            c2 = np.tile([f.coeffs for f in ket], (1, na))
            A, B = (np.array([f.center for f in side])[:, None]
                    for side in (bra, ket))
            k, p, coeff = na * nb, a1 + a2, c1 * c2
            self.p[index, :k], self.coeff[index, :k] = p, coeff
            self.P[index, :k] = (a1[..., None] * A
                                 + a2[..., None] * B) / p[..., None]
            # per axis: the powers, and A - B as an (n, 1) column
            axes = list(zip(bra[0].powers, ket[0].powers,
                            np.moveaxis(A - B, -1, 0)))
            E = [hermite_coefficients(i, j, a1, a2, d) for i, j, d in axes]
            for table, e in zip(self.E, E):
                table[index, :k, :e.shape[0]] = np.moveaxis(e, 0, -1)

            # (pi / p)^1.5 as one scalar power per element: numpy's array
            # power can round differently in the last bit
            gaussian = np.array([[(np.pi / x) ** 1.5 for x in r] for r in p])
            self.overlap[index] = _sequential_sum(
                coeff * E[0][0] * E[1][0] * E[2][0] * gaussian)

            # kinetic: the ket's 1D second derivative, as 1D overlaps (s) with
            # the ket power moved by -2, 0 and +2, giving 1D kinetic terms (t)
            root = np.sqrt(np.pi / p)
            s = [e[0] * root for e in E]
            t = []
            for axis, (i, j, d) in enumerate(axes):
                hi = hermite_coefficients(i, j + 2, a1, a2, d)[0] * root
                val = -2.0 * a2 * (2 * j + 1) * s[axis] + 4.0 * a2 * a2 * hi
                if j >= 2:
                    lo = hermite_coefficients(i, j - 2, a1, a2, d)[0] * root
                    val += j * (j - 1) * lo
                t.append(-0.5 * val)
            self.kinetic[index] = _sequential_sum(
                coeff * (t[0] * s[1] * s[2] + s[0] * t[1] * s[2]
                         + s[0] * s[1] * t[2]))


def _nuclear_attraction(tables: _PairTables, nuclei: np.ndarray,
                        charges: np.ndarray) -> np.ndarray:
    """V for every pair, attracted by its own geometry's nuclei (nuclei[r]
    for row r): one Boys call and one Hermite Coulomb call per angular
    class over all its pairs, nuclei and primitive pairs."""
    # angular classes (Boys order, K, lengths)
    key = np.column_stack((tables.length.sum(axis=1) - 3, tables.K,
                           tables.length))
    classes, of_pair = np.unique(key, axis=0, return_inverse=True)
    v = np.empty(tables.K.size)
    for c, (order, k, tx, ty, tz) in enumerate(classes.tolist()):
        index = np.flatnonzero(of_pair.ravel() == c)
        PC = tables.P[index, None, :k] - nuclei[index, :, None]
        p = np.broadcast_to(tables.p[index, None, :k], PC.shape[:3]).ravel()
        PC = PC.reshape(-1, 3)
        R = _hermite_coulomb(tx - 1, ty - 1, tz - 1, p, PC,
                             boys(order, _boys_argument(p, PC)))
        R = R.reshape(tx, ty, tz, index.size, charges.size, k)
        acc = _hermite_sum(*(np.moveaxis(E[index, None, :k], -1, 0)
                             for E in tables.E), R)   # E: (t, n, 1, K)
        # np.sum over each (pair, nucleus) row of primitive pairs, then
        # the nuclei added in input order
        coeff, p = (T[index, None, :k] for T in (tables.coeff, tables.p))
        per_nucleus = np.sum(coeff * (2.0 * np.pi / p) * acc, axis=-1)
        v[index] = _sequential_sum(-charges * per_nucleus)
    return v


class _SharedBoys:
    """Boys values of one order, evaluated once per shell-pair quartet.

    A quartet's key names its (bra shell pair, ket shell pair). Quartets of
    one key share their row of Boys arguments bit for bit, so a row is
    evaluated the first time its key is met and gathered after that.
    """

    def __init__(self, n_tot: int, per_quartet: int, n_keys: int):
        self.n_tot = n_tot
        self.slot = np.full(n_keys, -1)     # key -> row of `values`
        self.values = np.empty((n_tot + 1, 0, per_quartet))

    def __call__(self, keys: np.ndarray, x: np.ndarray) -> np.ndarray:
        """boys(n_tot, x) for one batch; `x` holds one row of primitive
        quartets per quartet, and `keys` each quartet's key."""
        x = x.reshape(keys.size, -1)
        missing = np.flatnonzero(self.slot[keys] < 0)
        if missing.size:
            new, first = np.unique(keys[missing], return_index=True)
            self.slot[new] = self.values.shape[1] + np.arange(new.size)
            fresh = boys(self.n_tot, x[missing[first]])
            self.values = np.concatenate((self.values, fresh), axis=1)
        return self.values[:, self.slot[keys]].reshape(self.n_tot + 1, -1)


def _eri_batch(tables: _PairTables, bra: np.ndarray, ket: np.ndarray,
               box, keys: np.ndarray, shared: _SharedBoys) -> np.ndarray:
    """(bra[q] | ket[q]) for every quartet q of one batch: one primitive
    pair count on each side and one box of Hermite lengths, with the Boys
    values of quartet q gathered by its key, keys[q]."""
    kb, kk = tables.K[bra[0]], tables.K[ket[0]]
    p, q = tables.p[bra, :kb], tables.p[ket, :kk]
    pq = p[:, :, None] * q[:, None, :]
    psum = p[:, :, None] + q[:, None, :]
    alpha = (pq / psum).ravel()
    # the prefactor first, so that pq and psum die before the largest arrays
    pref = 2.0 * np.pi ** 2.5 / (pq * np.sqrt(psum))
    del pq, psum
    PQ = (tables.P[bra, :kb][:, :, None]
          - tables.P[ket, :kk][:, None]).reshape(-1, 3)

    # up to the batch's longest Hermite lengths; padding adds exact zeros
    bra_len, ket_len = (tables.length[side].max(axis=0) for side in (bra, ket))
    Gx, Gy, Gz = (
        _signed_convolution(E[bra, :kb, :lb], E[ket, :kk, :lk])[:s]
        for E, lb, lk, s in zip(tables.E, bra_len, ket_len, box))
    F = shared(keys, _boys_argument(alpha, PQ))
    R = _hermite_coulomb(*(s - 1 for s in box), alpha, PQ, F)
    del alpha, PQ, F
    acc = _hermite_sum(Gx, Gy, Gz, R.reshape(*box, bra.size, kb, kk))
    weights = (tables.coeff[bra, :kb][:, :, None]
               * tables.coeff[ket, :kk][:, None, :])
    return np.sum((weights * pref * acc).reshape(bra.size, -1), axis=1)


def _eri_table(tables: _PairTables, shell_pair: np.ndarray,
               n_pairs: int, plane: np.ndarray) -> np.ndarray:
    """(bra|ket) for every two pairs of one geometry, as a (rows x n_pairs)
    table: the rows hold the geometries one after another, n_pairs each,
    and row r its pair against every pair of its own geometry.

    `shell_pair` holds each row's shell pair number, and `plane` one row of
    flags per geometry: the axes on which its every nucleus sits at 0.0.
    Each (Boys order, primitive quartets) run shares its Boys values
    through one _SharedBoys (one for the whole call would hold every order
    at once).
    """
    # canonical quartets of each geometry, bra >= ket, sorted by Boys order,
    # primitive quartets, bra primitive pairs, box and bra Hermite lengths
    bra, ket = np.tril_indices(n_pairs)
    offset = np.arange(0, tables.K.size, n_pairs)[:, None]
    bra, ket = bra + offset, ket + offset       # (geometries, quartets)
    box = tables.length[bra] + tables.length[ket] - 1
    # an odd total power (box - 1) along a plane axis: exactly +0.0, as
    # the table holds already
    keep = ~np.any(plane[:, None] & (box % 2 == 0), axis=2)
    bra, ket, box = bra[keep], ket[keep], box[keep]
    key = np.column_stack((box.sum(axis=1) - 3, tables.K[bra] * tables.K[ket],
                           tables.K[bra], box, tables.length[bra]))
    sort = np.lexsort(key.T[::-1])
    bra, ket, key = bra[sort], ket[sort], key[sort, :6]
    bounds = [0, *(np.flatnonzero(np.any(key[1:] != key[:-1], axis=1)) + 1),
              bra.size]
    groups = [(lo, hi, key[lo].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    del box, key, sort     # 0.5 MB of sort keys on CO2
    # each quartet's (bra shell pair, ket shell pair) numbered from 0, so
    # that a slot table grows with the distinct keys, not with the square
    # of the shell pairs of every geometry
    distinct, keys = np.unique(shell_pair[bra] * (shell_pair.max() + 1)
                               + shell_pair[ket], return_inverse=True)

    table = np.zeros((tables.K.size, n_pairs))
    for (n_tot, count), run in groupby(groups, key=lambda g: tuple(g[2][:2])):
        shared = _SharedBoys(n_tot, count, distinct.size)
        for lo, hi, (*_, sx, sy, sz) in run:
            step = max(1, _PRIMITIVE_QUARTETS_PER_CALL // (count * sx * sy * sz))
            for start in range(lo, hi, step):
                b, k = bra[start:hi][:step], ket[start:hi][:step]
                vals = _eri_batch(tables, b, k, (sx, sy, sz),
                                  keys[start:hi][:step], shared)
                table[b, k % n_pairs] = table[k, b % n_pairs] = vals
    return table


@dataclass
class IntegralSet:
    """All molecular integrals over one basis, plus layout metadata."""

    overlap: np.ndarray        # S, (n, n)
    kinetic: np.ndarray        # T, (n, n)
    nuclear: np.ndarray        # V, (n, n)
    eri: np.ndarray            # (ij|kl) chemists' notation, (n, n, n, n)
    n_basis: int
    nuclear_repulsion: float

    @property
    def core_hamiltonian(self) -> np.ndarray:
        return self.kinetic + self.nuclear


def compute_integrals(molecule: Molecule) -> IntegralSet:
    """Compute S, T, V and the full ERI tensor for a molecule.

    Deterministic: the basis ordering is fixed by the input, every loop runs
    in a fixed order, and no threading is involved.
    """
    return compute_integrals_batch([molecule])[0]


def compute_integrals_batch(molecules: Sequence[Molecule]
                            ) -> List[IntegralSet]:
    """compute_integrals of each geometry, through one set of batches.

    The geometries must share one basis layout: the same elements in the
    same order. Each result is bit-identical to compute_integrals of its
    geometry alone.
    """
    layout = [atom.symbol for atom in molecules[0].atoms]
    if any([atom.symbol for atom in m.atoms] != layout for m in molecules):
        raise ValueError("batched integrals need geometries of one basis "
                         "layout: the same elements in the same order")
    funcs = [f for molecule in molecules for f in load_basis(molecule)]
    n = len(funcs) // len(molecules)
    if n > MAX_BASIS_FUNCTIONS:
        raise ValueError(
            f"{n} basis functions exceeds the dense-ERI cap of {MAX_BASIS_FUNCTIONS}")

    # one row per pair of each geometry, n_pairs rows per geometry
    i, j = np.tril_indices(n)
    n_pairs = i.size
    offset = n * np.arange(len(molecules))[:, None]
    rows, cols = (i + offset).ravel(), (j + offset).ravel()
    tables = _PairTables(funcs, rows, cols)
    pair_of = np.empty((n, n), dtype=np.intp)
    pair_of[i, j] = pair_of[j, i] = np.arange(n_pairs)
    v = _nuclear_attraction(
        tables, np.repeat([m.coordinates() for m in molecules], n_pairs,
                          axis=0), molecules[0].charges())

    # a shell is a function's (center, exponents): an sp shell's 2s and 2p
    # share it, and with it every primitive pair's p and P; so does an atom
    # that sits at the same place in two geometries
    shells = {}
    shell = np.array([shells.setdefault(
        (f.center.tobytes(), f.alphas.tobytes()), len(shells)) for f in funcs])
    plane = np.array([np.all(m.coordinates() == 0.0, axis=0)
                      for m in molecules])
    table = _eri_table(tables, shell[rows] * len(shells) + shell[cols],
                       n_pairs, plane)

    out = []
    for g, molecule in enumerate(molecules):
        at = g * n_pairs + pair_of
        eri = table[at[:, :, None, None], pair_of[None, None, :, :]]
        out.append(IntegralSet(
            overlap=tables.overlap[at], kinetic=tables.kinetic[at],
            nuclear=v[at], eri=eri, n_basis=n,
            nuclear_repulsion=nuclear_repulsion(molecule)))
    return out
