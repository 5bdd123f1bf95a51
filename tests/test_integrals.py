"""Integral engine checks: Boys function against an arbitrary-precision
oracle, matrix symmetries, agreement with brute-force quadrature, and the
batched electron-repulsion tensor against a quartet-by-quartet oracle."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qelectra import integrals
from qelectra.basis import load_basis
from qelectra.integrals import (_hermite_coulomb, _PairData, boys,
                                compute_integrals)
from qelectra.molecule import from_atom_list
from qelectra.pipeline import shipped_geometry
from qelectra.quadrature import GridSpec, quadrature_one_electron

SHIPPED = ["h2", "lih", "h2o", "nh3", "ch4", "co2"]


def boys_reference(n, t):
    # F_n(t) = int_0^1 u^(2n) exp(-t u^2) du, evaluated at 50 digits
    with mpmath.workdps(50):
        val = mpmath.quad(lambda u: u ** (2 * n) * mpmath.exp(-t * u * u),
                          [0, 1])
        return float(val)


@pytest.mark.parametrize("t", [0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 5.0, 12.0,
                               25.0, 40.0, 120.0])
def test_boys_against_mpmath(t):
    n_max = 6
    table = boys(n_max, np.array([t]))
    for n in range(n_max + 1):
        assert table[n, 0] == pytest.approx(boys_reference(n, t),
                                            rel=1e-12, abs=1e-14)


def test_boys_downward_recursion_consistency():
    # 2t F_{n+1} = (2n+1) F_n - exp(-t)
    t = np.array([0.3, 3.0, 30.0])
    table = boys(5, t)
    for n in range(5):
        lhs = 2 * t * table[n + 1]
        rhs = (2 * n + 1) * table[n] - np.exp(-t)
        assert np.allclose(lhs, rhs, atol=1e-13)


def h2_integrals(r=1.388861):
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, r))])
    return compute_integrals(mol, "sto-3g")


def test_h2_golden_values():
    ints = h2_integrals()
    assert ints.overlap[0, 1] == pytest.approx(0.6631761251970036, abs=1e-12)
    assert ints.kinetic[0, 0] == pytest.approx(0.7600318799223883, abs=1e-12)
    assert ints.nuclear[0, 0] == pytest.approx(-1.8842798060578407, abs=1e-12)
    assert ints.eri[0, 0, 0, 0] == pytest.approx(0.7746059442114873, abs=1e-12)
    assert ints.eri[0, 0, 1, 1] == pytest.approx(0.5718944594680999, abs=1e-12)
    assert ints.nuclear_repulsion == pytest.approx(0.7200144578903145,
                                                   abs=1e-12)


def test_one_electron_matrices_symmetric():
    ints = compute_integrals(shipped_geometry("h2o"), "sto-3g")
    for m in (ints.overlap, ints.kinetic, ints.nuclear):
        assert np.allclose(m, m.T, atol=1e-12)
    assert np.allclose(np.diag(ints.overlap), 1.0, atol=1e-10)


def test_overlap_positive_definite_for_shipped():
    for key in ["h2", "lih", "h2o", "nh3", "ch4", "co2"]:
        ints = compute_integrals(shipped_geometry(key), "sto-3g")
        evals = np.linalg.eigvalsh(ints.overlap)
        assert evals.min() > 1e-7


def test_eri_eightfold_symmetry():
    ints = compute_integrals(shipped_geometry("lih"), "sto-3g")
    g = ints.eri
    rng = np.random.default_rng(4)
    n = ints.n_basis
    for _ in range(40):
        i, j, k, l = rng.integers(0, n, size=4)
        ref = g[i, j, k, l]
        for perm in [(j, i, k, l), (i, j, l, k), (j, i, l, k),
                     (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)]:
            assert g[perm] == pytest.approx(ref, abs=1e-12)


def test_quadrature_matches_analytic_h2():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.388861))])
    ints = compute_integrals(mol, "sto-3g")
    quad = quadrature_one_electron(mol, "sto-3g")
    assert not quad.accuracy_warning
    assert np.max(np.abs(quad.overlap - ints.overlap)) < 1e-4
    assert np.max(np.abs(quad.kinetic - ints.kinetic)) < 1e-4
    assert np.max(np.abs(quad.nuclear - ints.nuclear)) < 1e-4


def test_quadrature_flags_inadequate_grid():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    quad = quadrature_one_electron(mol, "sto-3g",
                                   GridSpec(points_per_axis=8, padding=30.0))
    assert quad.accuracy_warning
    assert "coarse" in quad.notes


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=4)
    with pytest.raises(ValueError):
        GridSpec(padding=0.0)


# Quartet-by-quartet oracle: each canonical (bra|ket) evaluated on its own,
# then mirrored into its eight images. The batched engine must reproduce
# it bit for bit, since the CO2 window turns a 1e-16 change in one
# integral into a milli-Hartree change in the FCI energy.

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

    R = _hermite_coulomb(smax_x, smax_y, smax_z, alpha, PQ)
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
    funcs = load_basis(molecule, "sto-3g")
    n = len(funcs)
    pairs = {(i, j): _PairData(funcs[i], funcs[j])
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


@pytest.mark.parametrize("key", SHIPPED)
def test_batched_eri_is_bit_identical_to_quartet_loop(key):
    molecule = shipped_geometry(key)
    assert np.array_equal(compute_integrals(molecule, "sto-3g").eri,
                          eri_quartet_by_quartet(molecule))


_LIGHT = ["H", "He"]
_HEAVY = ["Li", "Be", "B", "C", "N", "O", "F"]
_COORD = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_molecules(draw):
    """2-4 atoms from H-F, at least 0.5 Bohr apart, closed-shell charge.

    At most two atoms come from Li-F (five functions each), so the basis
    stays at 12 functions or fewer and the oracle at a few seconds.
    """
    heavy = draw(st.lists(st.sampled_from(_HEAVY), max_size=2))
    light = draw(st.lists(st.sampled_from(_LIGHT), min_size=2 - len(heavy),
                          max_size=4 - len(heavy)))
    symbols = draw(st.permutations(heavy + light))
    coords = np.array(draw(st.lists(st.tuples(_COORD, _COORD, _COORD),
                                    min_size=len(symbols),
                                    max_size=len(symbols))))
    gaps = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    assume(gaps.min() >= 0.5)
    z_total = sum((_LIGHT + _HEAVY).index(symbol) + 1 for symbol in symbols)
    return from_atom_list(list(zip(symbols, map(tuple, coords))),
                          charge=z_total % 2)


@settings(deadline=None, max_examples=8)
@given(small_molecules())
def test_batched_eri_is_bit_identical_on_random_geometries(molecule):
    assert np.array_equal(compute_integrals(molecule, "sto-3g").eri,
                          eri_quartet_by_quartet(molecule))


def test_batch_boundaries_do_not_change_the_eri(monkeypatch):
    # H2O: 28 pairs, 81 primitive quartets per quartet; a cap of 200 runs
    # two quartets per call and leaves ragged last batches
    molecule = shipped_geometry("h2o")
    want = compute_integrals(molecule, "sto-3g").eri
    monkeypatch.setattr(integrals, "_PRIMITIVE_QUARTETS_PER_CALL", 200)
    assert np.array_equal(compute_integrals(molecule, "sto-3g").eri, want)
