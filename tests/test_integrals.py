"""Integral engine checks: Boys function against an arbitrary-precision
oracle, matrix symmetries, agreement with brute-force quadrature, and the
batched integrals against pair-by-pair and quartet-by-quartet oracles, byte
for byte."""

import dataclasses
import tracemalloc
from collections import Counter, defaultdict

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from integral_oracle import (boys_all_elements, eri_quartet_by_quartet,
                             one_electron_pair_by_pair)
from qelectra import integrals
from qelectra.basis import load_basis
from qelectra.elements import SYMBOLS
from qelectra.integrals import (boys, compute_integrals,
                                compute_integrals_batch)
from qelectra.molecule import from_atom_list
from qelectra.pipeline import diatomic_geometry, shipped_geometry
from quadrature_oracle import GridSpec, quadrature_one_electron

SHIPPED = ["h2", "lih", "h2o", "nh3", "ch4", "co2"]
# the benchmark's LiH scan: seven points from 2.0 to 5.0 Bohr
LIH_SCAN = np.linspace(2.0, 5.0, 7).tolist()


def boys_reference(n, t):
    # F_n(t) = int_0^1 u^(2n) exp(-t u^2) du, evaluated at 50 digits
    with mpmath.workdps(50):
        val = mpmath.quad(lambda u: u ** (2 * n) * mpmath.exp(-t * u * u),
                          [0, 1])
        return float(val)


@pytest.mark.parametrize("t", [0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 5.0, 12.0,
                               25.0, 34.99, 35.0, 35.01, 40.0, 120.0])
def test_boys_against_mpmath(t):
    n_max = 6
    table = boys(n_max, np.array([t]))
    for n in range(n_max + 1):
        assert table[n, 0] == pytest.approx(boys_reference(n, t),
                                            rel=1e-12, abs=1e-14)


# x near 0, around the series/asymptotic switch at 35, far above it, and
# anywhere in the series range
_BOYS_X = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(34.9, 35.1),
                    st.floats(35.0, 1e4), st.floats(0.0, 35.0))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 8), st.lists(_BOYS_X, min_size=1, max_size=64),
       st.booleans())
def test_boys_is_bit_identical_to_the_all_elements_series(m_max, xs, large):
    # a large batch repeats the values, so each element keeps summing
    # until the slowest of 2,048 converges
    x = np.resize(xs, 2048 if large else len(xs))
    table = boys(m_max, x)
    assert table.tobytes() == boys_all_elements(m_max, x).tobytes()
    # an element's value does not depend on the rest of its batch
    alone = np.hstack([boys(m_max, value) for value in xs])
    assert table.tobytes() == alone[:, np.arange(x.size) % len(xs)].tobytes()


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
    return compute_integrals(mol)


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
    ints = compute_integrals(shipped_geometry("h2o"))
    for m in (ints.overlap, ints.kinetic, ints.nuclear):
        assert np.allclose(m, m.T, atol=1e-12)
    assert np.allclose(np.diag(ints.overlap), 1.0, atol=1e-10)


def test_overlap_positive_definite_for_shipped():
    for key in ["h2", "lih", "h2o", "nh3", "ch4", "co2"]:
        ints = compute_integrals(shipped_geometry(key))
        evals = np.linalg.eigvalsh(ints.overlap)
        assert evals.min() > 1e-7


def test_eri_eightfold_symmetry():
    ints = compute_integrals(shipped_geometry("lih"))
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
    ints = compute_integrals(mol)
    quad = quadrature_one_electron(mol)
    assert not quad.accuracy_warning
    assert np.max(np.abs(quad.overlap - ints.overlap)) < 1e-4
    assert np.max(np.abs(quad.kinetic - ints.kinetic)) < 1e-4
    assert np.max(np.abs(quad.nuclear - ints.nuclear)) < 1e-4


def test_quadrature_flags_inadequate_grid():
    mol = from_atom_list([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    quad = quadrature_one_electron(mol, GridSpec(points_per_axis=8,
                                                 padding=30.0))
    assert quad.accuracy_warning
    assert "coarse" in quad.notes


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=4)
    with pytest.raises(ValueError):
        GridSpec(padding=0.0)


# tobytes() rather than np.array_equal, which takes -0.0 for 0.0

def assert_one_electron_bytes_match(molecule):
    ints = compute_integrals(molecule)
    for got, want in zip((ints.overlap, ints.kinetic, ints.nuclear),
                         one_electron_pair_by_pair(molecule)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("key", SHIPPED)
def test_one_electron_matrices_are_bit_identical_to_pair_loop(key):
    assert_one_electron_bytes_match(shipped_geometry(key))


@pytest.mark.parametrize("r", LIH_SCAN)
def test_one_electron_matrices_are_bit_identical_on_the_lih_scan(r):
    assert_one_electron_bytes_match(diatomic_geometry(("Li", "H"), r))


@pytest.mark.parametrize("key", SHIPPED)
def test_batched_eri_is_bit_identical_to_quartet_loop(key):
    molecule = shipped_geometry(key)
    assert (compute_integrals(molecule).eri.tobytes()
            == eri_quartet_by_quartet(molecule).tobytes())


@pytest.mark.parametrize("r", LIH_SCAN)
def test_batched_eri_is_bit_identical_on_the_lih_scan(r):
    molecule = diatomic_geometry(("Li", "H"), r)
    assert (compute_integrals(molecule).eri.tobytes()
            == eri_quartet_by_quartet(molecule).tobytes())


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
    assert (compute_integrals(molecule).eri.tobytes()
            == eri_quartet_by_quartet(molecule).tobytes())


@settings(deadline=None, max_examples=8)
@given(small_molecules(), st.data())
def test_eri_odd_on_a_coordinate_plane_is_the_computed_plus_zero(molecule,
                                                                 data):
    """Every atom moved onto one or two coordinate planes, each coordinate
    set to 0.0 or -0.0: the engine skips the quartets whose total power is
    odd along such an axis, and the quartet loop computes +0.0 for each."""
    coords = molecule.coordinates()
    for axis in data.draw(st.sets(st.integers(0, 2), min_size=1,
                                  max_size=2)):
        coords[:, axis] = data.draw(st.lists(
            st.sampled_from([0.0, -0.0]), min_size=len(coords),
            max_size=len(coords)))
    gaps = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    np.fill_diagonal(gaps, np.inf)
    assume(gaps.min() >= 0.5)
    planar = from_atom_list(
        [(atom.symbol, tuple(c)) for atom, c in zip(molecule.atoms, coords)],
        charge=molecule.charge)
    funcs = load_basis(planar)
    plane = plane_axes(funcs)
    odd = [q for q in np.ndindex(*[len(funcs)] * 4)
           if odd_on_a_plane_axis(plane, [funcs[f] for f in q])]
    assume(odd)     # some p function has an odd power on a plane axis
    want = eri_quartet_by_quartet(planar)
    assert compute_integrals(planar).eri.tobytes() == want.tobytes()
    zeros = want[tuple(np.transpose(odd))]
    assert not zeros.any()
    assert not np.signbit(zeros).any()


@settings(deadline=None, max_examples=20)
@given(small_molecules())
def test_one_electron_matrices_are_bit_identical_on_random_geometries(
        molecule):
    assert_one_electron_bytes_match(molecule)


def test_batch_boundaries_do_not_change_the_eri(monkeypatch):
    # H2O: 28 pairs, 81 primitive quartets per quartet; a cap of 200 Hermite
    # Coulomb elements runs two quartets per call in the (ss|ss) box and one
    # in every larger box, and leaves ragged last batches
    molecule = shipped_geometry("h2o")
    want = compute_integrals(molecule).eri
    monkeypatch.setattr(integrals, "_PRIMITIVE_QUARTETS_PER_CALL", 200)
    assert compute_integrals(molecule).eri.tobytes() == want.tobytes()


def plane_axes(funcs):
    """The axes on which every function's center, and so every nucleus,
    sits at 0.0 (every element carries basis functions)."""
    return np.all([f.center == 0.0 for f in funcs], axis=0)


def odd_on_a_plane_axis(plane, quartet):
    """Whether the quartet's total Cartesian power is odd along a plane
    axis, which makes its integral exactly zero."""
    return any(flag and sum(f.powers[axis] for f in quartet) % 2
               for axis, flag in enumerate(plane))


def box_groups(funcs):
    """The canonical quartets the engine computes per (primitive quartets,
    box), the box being the quartet's per-axis Hermite lengths: how many of
    them fall in each bra class (primitive pairs, per-axis Hermite
    lengths), in the order the engine runs them. Within a group the bra
    class fixes the ket class, so each entry is the run of one class pair.
    Quartets odd on a plane axis are left out, as the engine skips them."""
    plane = plane_axes(funcs)
    pairs = [(fa, fb) for i, fa in enumerate(funcs) for fb in funcs[:i + 1]]
    classes = [(fa.alphas.size * fb.alphas.size,
                *(la + lb + 1 for la, lb in zip(fa.powers, fb.powers)))
               for fa, fb in pairs]
    groups = defaultdict(Counter)
    for index, bra in enumerate(classes):
        for ket, ket_pair in zip(classes[:index + 1], pairs):
            if odd_on_a_plane_axis(plane, pairs[index] + ket_pair):
                continue
            box = tuple(b + k - 1 for b, k in zip(bra[1:], ket[1:]))
            groups[bra[0] * ket[0], box][bra] += 1
    return {key: [runs[c] for c in sorted(runs)]
            for key, runs in groups.items()}


def batch_step(cap, per_quartet, box):
    return max(1, cap // (per_quartet * int(np.prod(box))))


def assert_call_counts(molecule, monkeypatch):
    """One Hermite Coulomb call per ERI batch and one per angular class
    (primitive pairs, per-axis Hermite lengths) for the nuclear attraction,
    and six Hermite coefficient calls per power class (three axes, and three
    for the kinetic term's raised ket power). Returns the three counts."""
    cap = 1 << 15
    monkeypatch.setattr(integrals, "_PRIMITIVE_QUARTETS_PER_CALL", cap)
    calls = Counter()
    for name in ("_hermite_coulomb", "hermite_coefficients"):
        def counted(*args, _name=name, _original=getattr(integrals, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(integrals, name, counted)
    compute_integrals(molecule)

    funcs = load_basis(molecule)
    pairs = [(fa, fb) for i, fa in enumerate(funcs) for fb in funcs[:i + 1]]
    batches = sum(-(-sum(runs) // batch_step(cap, count, box))
                  for (count, box), runs in box_groups(funcs).items())
    angular = {(fa.alphas.size * fb.alphas.size,
                *(la + lb for la, lb in zip(fa.powers, fb.powers)))
               for fa, fb in pairs}
    assert calls["_hermite_coulomb"] == batches + len(angular)
    power = {(fa.alphas.size, fb.alphas.size, fa.powers, fb.powers)
             for fa, fb in pairs}
    assert calls["hermite_coefficients"] == 6 * len(power) < 6 * len(pairs)
    return batches, len(angular), len(power)


def test_co2_calls_scale_with_batches_and_pairs_not_primitives(monkeypatch):
    """CO2: 33 ERI batches over the quartets not odd along x or y, 10
    angular classes and 16 power classes, so 96 Hermite coefficient calls
    where six per pair would be 720."""
    assert assert_call_counts(shipped_geometry("co2"), monkeypatch) == (
        33, 10, 16)


def test_lih_calls_scale_with_batches_and_pairs_not_primitives(monkeypatch):
    """LiH: one ERI batch per box of the quartets not odd along x or y
    (14), 10 angular classes and 13 power classes, so 78 Hermite
    coefficient calls where six per pair would be 126."""
    assert assert_call_counts(shipped_geometry("lih"), monkeypatch) == (
        14, 10, 13)


def test_ch4_calls_are_those_of_a_molecule_without_a_plane(monkeypatch):
    """CH4 has no coordinate plane free of nuclei, so it skips no quartet:
    one ERI batch per box (35), 10 angular classes and 13 power classes."""
    molecule = shipped_geometry("ch4")
    assert not plane_axes(load_basis(molecule)).any()
    assert assert_call_counts(molecule, monkeypatch) == (35, 10, 13)


@pytest.mark.parametrize("key, cap", [("co2", 81 * 57), ("lih", 81 * 8)])
def test_ragged_batches_across_class_pairs_do_not_change_the_eri(
        key, cap, monkeypatch):
    """A cap that cuts every box group with a class pair of two or more
    quartets inside such a run, so that batches start and end
    mid-class-pair, and that leaves batches spanning class pairs of
    different Hermite lengths, whose shorter columns the batch zero-pads
    (in 10 of the 14 box groups CO2 computes, and 12 of LiH's 35). LiH is
    the 3.0 Bohr scan point moved off the coordinate planes, so that it
    skips no quartet and keeps every box group."""
    molecule = (shipped_geometry(key) if key == "co2"
                else from_atom_list([("Li", (0.3, 0.4, 0.0)),
                                     ("H", (0.3, 0.4, LIH_SCAN[2]))]))
    spans = 0
    for (count, box), runs in box_groups(load_basis(molecule)).items():
        step = batch_step(cap, count, box)
        cuts = set(range(step, sum(runs), step))
        edges = set(np.cumsum(runs)[:-1].tolist())
        assert cuts - edges or max(runs) == 1
        spans += bool(edges - cuts)
    assert spans >= 10
    want = compute_integrals(molecule).eri
    monkeypatch.setattr(integrals, "_PRIMITIVE_QUARTETS_PER_CALL", cap)
    got = compute_integrals(molecule).eri
    assert got.tobytes() == want.tobytes()
    if key == "lih":
        assert got.tobytes() == eri_quartet_by_quartet(molecule).tobytes()


def test_co2_boys_values_are_evaluated_once_per_order_and_shell_pair_quartet(
        monkeypatch):
    """The ERIs evaluate F_m(x) once per (Boys order, bra shell pair, ket
    shell pair), a shell being a function's center and exponents: an sp
    shell's 2s and 2p share them, and so share every Boys argument. CO2
    computes 2,454 of its 7,260 canonical quartets (the rest are odd along
    x or y, on which every nucleus sits at 0.0), in 749 keys of 81
    primitive quartets; every quartet on its own evaluated 7,260 x 81, and
    the series took 507,716 elements then."""
    elements = Counter()
    for name in ("boys", "_boys_series"):
        def counted(m_max, x, _name=name, _original=getattr(integrals, name)):
            elements[_name] += np.size(x)
            return _original(m_max, x)
        monkeypatch.setattr(integrals, name, counted)
    molecule = shipped_geometry("co2")
    compute_integrals(molecule)

    funcs = load_basis(molecule)
    assert {f.alphas.size for f in funcs} == {3}
    shell = [(f.center.tobytes(), f.alphas.tobytes()) for f in funcs]
    pairs = [(i, j) for i in range(len(funcs)) for j in range(i + 1)]
    plane = plane_axes(funcs)
    keys = {(sum(sum(funcs[f].powers) for f in bra + ket),
             *(shell[f] for f in bra + ket))
            for index, bra in enumerate(pairs) for ket in pairs[:index + 1]
            if not odd_on_a_plane_axis(plane, [funcs[f] for f in bra + ket])}
    assert len(keys) == 749
    # the nuclear attraction: one element per nucleus and primitive pair
    nuclear = len(molecule.atoms) * 9 * len(pairs)
    assert elements["boys"] == 81 * len(keys) + nuclear
    # the rest lie at x >= 35, on the asymptotic form
    assert elements["_boys_series"] == 48_770


def test_co2_integrals_peak_below_3_3_megabytes():
    # 2,853,386 B with the ERIs batched by Boys order and Hermite box over
    # flat pair tables and the quartets odd on a coordinate plane skipped,
    # the same on repeated runs; the bound leaves about 15% for allocator
    # and numpy version drift
    molecule = shipped_geometry("co2")
    tracemalloc.start()
    try:
        compute_integrals(molecule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_300_000


# ---- several geometries of one layout through one set of batches ----------

def assert_batch_matches_one_at_a_time(molecules):
    """Every IntegralSet field of the batch, byte for byte, against
    compute_integrals of each geometry alone."""
    batch = compute_integrals_batch(molecules)
    assert len(batch) == len(molecules)
    for got, molecule in zip(batch, molecules):
        want = compute_integrals(molecule)
        for field in dataclasses.fields(want):
            assert (np.asarray(getattr(got, field.name)).tobytes()
                    == np.asarray(getattr(want, field.name)).tobytes()), \
                field.name


@settings(deadline=None, max_examples=12)
@given(st.tuples(*[st.sampled_from(SYMBOLS[:10])] * 2),
       st.lists(st.floats(0.5, 6.0), min_size=1, max_size=9, unique=True))
def test_batched_geometries_are_bit_identical_to_one_at_a_time(symbols,
                                                               radii):
    # the first atom sits at the origin in every geometry, so its shells
    # share Boys rows across the batch
    assert_batch_matches_one_at_a_time(
        [diatomic_geometry(symbols, r) for r in radii])


@pytest.mark.parametrize("symbols, grid", [
    (("Li", "H"), LIH_SCAN),     # the benchmark's scan
    (("H", "H"), [1.2, 1.6]),    # the benchmark's H2 probe
])
def test_batched_benchmark_grids_are_bit_identical(symbols, grid):
    assert_batch_matches_one_at_a_time(
        [diatomic_geometry(symbols, r) for r in grid])


def test_a_batch_mixing_coordinate_planes_is_bit_identical():
    # LiH with H at (0, 0, 3), (0.4, 0, 3) and (0.4, 0.2, 3) Bohr: the x and
    # y planes, the y plane alone and no plane, in one batch
    assert_batch_matches_one_at_a_time(
        [from_atom_list([("Li", (0.0, 0.0, 0.0)), ("H", h)])
         for h in [(0.0, 0.0, 3.0), (0.4, 0.0, 3.0), (0.4, 0.2, 3.0)]])


@pytest.mark.parametrize("second", [("H", "H"), ("H", "Li")])
def test_a_batch_of_mixed_layouts_is_refused(second):
    # another element list, or the same elements in another order
    with pytest.raises(ValueError, match="one basis layout"):
        compute_integrals_batch([diatomic_geometry(("Li", "H"), 3.0),
                                 diatomic_geometry(second, 1.4)])
