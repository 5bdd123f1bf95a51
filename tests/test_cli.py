"""Command-line interface: argument handling, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qelectra.cli as cli
from qelectra import oracle, pipeline, simulator, vqe
from qelectra.reference import REFERENCE_FOOTNOTE
from conftest import NEAR_EXACT_SHOTS
from fcidump_oracle import read_fcidump


def method_row(report, method):
    """The one row of `method` in a comparison report."""
    (row,) = [row for row in report.results if row.method == method]
    return row


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_point(capsys):
    code, out, err = run_cli(capsys, "--molecule", "h2")
    assert code == 0
    assert err == ""
    head = out.splitlines()[0]
    assert "molecule: H2" in head
    assert "basis: sto-3g" in head
    assert "mapping: parity" in head
    assert "active space: (2e, 2o)" in head
    assert "qubits: 4" in head
    assert "seed: 0" in head
    hf_line = [ln for ln in out.splitlines() if ln.startswith("hf")]
    assert len(hf_line) == 1
    assert "-1.1169989969" in hf_line[0]
    assert "yes" in hf_line[0]


def test_json_document_shape(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--method", "hf,fci", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["tool"]["name"] == "qelectra"
    assert doc["molecule"] == "H2"
    assert doc["formula"] == "H2"
    assert doc["basis"] == "sto-3g"
    assert doc["mapping"] == "parity"
    assert doc["active_space"] == {"n_electrons": 2, "n_orbitals": 2}
    assert doc["n_qubits"] == 4
    assert doc["seed"] == 0
    assert doc["shots"] is None
    assert doc["optimizer"] is None
    assert doc["notes"] == []
    assert set(doc["methods"]) == {"hf", "fci"}
    assert doc["methods"]["hf"]["energy_hartree"] == pytest.approx(
        -1.1169989968520082, abs=1e-10)
    assert doc["methods"]["fci"]["energy_hartree"] == pytest.approx(
        -1.1373060359051401, abs=1e-9)
    assert doc["methods"]["fci"]["converged"] is True
    # canonical serialization: re-dumping reproduces the exact bytes
    assert out.strip() == json.dumps(doc, indent=2, sort_keys=True)


def test_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--method", "hf,fci", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,energy_hartree,iterations,evaluations,converged"
    assert len(lines) == 3
    method, energy, iters, evals, converged = lines[1].split(",")
    assert method == "hf"
    assert float(energy) == pytest.approx(-1.1169989968520082, abs=1e-10)
    assert int(iters) >= 1
    assert converged == "true"
    assert lines[2].startswith("fci,")
    assert lines[2].endswith(",0,0,true")



# the layout of each output form, cell by cell; table cells are padded to
# the widest in their column, trailing spaces included
H2_TABLE = [
    "molecule: H2   basis: sto-3g   mapping: parity   active space: "
    "(2e, 2o)   qubits: 4   seed: 0",
    "",
    "method  energy (Ha)    converged  iterations  evaluations",
    "------  -------------  ---------  ----------  -----------",
    "hf      -1.1169989969  yes        2           2          ",
    "fci     -1.1373060359  yes        0           0          ",
]
H2_SCAN_TABLE = [
    "r (Bohr)  hf (Ha)        fci (Ha)     ",
    "--------  -------------  -------------",
    "1.200000  -1.1103338825  -1.1266988215",
    "1.600000  -1.1031409708  -1.1288156440",
]
LIH_REFERENCE_TABLE = [
    "molecule: LiH   basis: sto-3g   mapping: parity   active space: "
    "(2e, 5o)   qubits: 10   seed: 0",
    "",
    "method  energy (Ha)    converged  iterations  evaluations  "
    "published reference (Ha)",
    "------  -------------  ---------  ----------  -----------  "
    "------------------------",
    "hf      -7.8620269733  yes        8           8            "
    "-7.9817676644           ",
    "dft     -              -          -           -            "
    "-8.0681922929           ",
    f"note: {REFERENCE_FOOTNOTE}",
]


@pytest.mark.parametrize("argv, lines", [
    (["--molecule", "h2", "--method", "hf,fci"], H2_TABLE),
    (["--molecule", "h2", "--method", "hf,fci", "--scan", "1.2,1.6,2"],
     H2_SCAN_TABLE),
    (["--molecule", "lih", "--reference-table"], LIH_REFERENCE_TABLE)])
def test_table_layouts(capsys, argv, lines):
    assert run_cli(capsys, *argv) == (0, "\n".join(lines) + "\n", "")


def test_scan_csv_layout(capsys):
    # csv prints each energy's repr, whose last digits follow the linear
    # algebra underneath; the layout is pinned, the energies to 1e-9 Ha
    code, out, err = run_cli(capsys, "--molecule", "h2", "--method",
                             "hf,fci", "--scan", "1.2,1.6,2", "--output",
                             "csv")
    assert (code, err) == (0, "")
    header, *rows = out.split("\n")
    assert header == "r_bohr,method,energy"
    assert rows[-1] == ""
    cells = [row.split(",") for row in rows[:-1]]
    assert [cell[:2] for cell in cells] == [
        ["1.2", "hf"], ["1.2", "fci"], ["1.6", "hf"], ["1.6", "fci"]]
    assert [float(cell[2]) for cell in cells] == pytest.approx(
        [-1.1103338824934266, -1.126698821527972, -1.103140970810633,
         -1.1288156440268167], abs=1e-9)


def test_json_key_sets(capsys):
    _, out, _ = run_cli(capsys, "--molecule", "h2", "--method", "hf,fci",
                        "--output", "json")
    doc = json.loads(out)
    assert sorted(doc) == [
        "active_space", "basis", "formula", "mapping", "methods", "molecule",
        "n_qubits", "notes", "optimizer", "schema_version", "seed", "shots",
        "tool"]
    assert sorted(doc["methods"]["hf"]) == [
        "converged", "energy_hartree", "evaluations", "iterations"]
    _, out, _ = run_cli(capsys, "--molecule", "h2", "--method", "hf,fci",
                        "--scan", "1.2,1.6,2", "--output", "json")
    doc = json.loads(out)
    assert sorted(doc) == ["basis", "mapping", "molecule", "points", "scan",
                           "schema_version", "seed", "tool"]
    assert sorted(doc["points"][0]) == ["converged", "methods", "r_bohr"]
    assert sorted(doc["points"][0]["methods"]) == ["fci", "hf"]

def test_json_output_is_byte_stable(capsys):
    args = ("--molecule", "h2", "--method", "hf,vqe,fci",
            "--output", "json", "--seed", "3")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert doc["optimizer"] == "bfgs"
    assert doc["seed"] == 3
    assert doc["methods"]["vqe"]["energy_hartree"] == pytest.approx(
        doc["methods"]["fci"]["energy_hartree"], abs=1e-3)


def test_unconverged_vqe_sets_exit_code(capsys, monkeypatch):
    # H2 needs four BFGS iterations
    monkeypatch.setitem(vqe.DEFAULT_ITERATIONS, "bfgs", 1)
    code, out, _ = run_cli(capsys, "--molecule", "h2", "--method", "vqe",
                           "--output", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["methods"]["vqe"]["converged"] is False


def test_bfgs_optimizer_converges_tightly(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--method", "vqe,fci", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["optimizer"] == "bfgs"
    assert doc["methods"]["vqe"]["energy_hartree"] == pytest.approx(
        doc["methods"]["fci"]["energy_hartree"], abs=1e-6)


@pytest.mark.parametrize("shots,optimizer", [("exact", "bfgs"),
                                             ("64", "spsa")])
def test_default_optimizer_follows_the_shot_setting(capsys, shots,
                                                    optimizer):
    code, out, _ = run_cli(capsys, "--molecule", "h2", "--method", "vqe",
                           "--shots", shots, "--output", "json")
    assert code in (0, 2)
    assert json.loads(out)["optimizer"] == optimizer


def test_run_spec_with_shots_defaults_to_spsa(monkeypatch):
    # the optimizer follows the shot setting in the library too, not only
    # on the command line
    ran = []

    def recording(name, optimizer):
        def run(*args):
            ran.append(name)
            return optimizer(*args)
        return run

    for name in ("_bfgs", "_spsa"):
        monkeypatch.setattr(vqe, name, recording(name, getattr(vqe, name)))
    spec = cli.RunSpec(molecule=cli.load_molecule_argument("h2"),
                       methods=("vqe",), shots=64)
    report = cli.execute(spec)
    assert ran == ["_spsa"]
    assert method_row(report, "vqe").evaluations > 1



def test_run_spec_defaults_are_the_cli_defaults(capsys, monkeypatch):
    # a library RunSpec holding the molecule alone runs what the CLI runs
    # for --molecule alone
    specs = []

    def recording(spec, _original=cli.execute):
        specs.append(spec)
        return _original(spec)

    monkeypatch.setattr(cli, "execute", recording)
    assert run_cli(capsys, "--molecule", "h2")[0] == 0
    assert specs == [cli.RunSpec(molecule=cli.load_molecule_argument("h2"))]

def test_library_spsa_follows_the_cli_trajectory(capsys, assembled,
                                                 monkeypatch):
    # the SPSA schedule belongs to run_vqe: a library shot run on LiH (24
    # parameters, c = 0.051) retraces the CLI run step by step, here to
    # convergence at iteration 120 of 300
    system = assembled("lih")
    ansatz = vqe.build_uccsd(system.n_qubits,
                             system.spin_orbitals.n_electrons)
    library = vqe.run_vqe(system, ansatz, seed=0, shots=NEAR_EXACT_SHOTS)
    assert library.converged
    runs = []

    def recording(*args, **kwargs):
        runs.append(vqe.run_vqe(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_vqe", recording)
    _, out, _ = run_cli(capsys, "--molecule", "lih", "--method", "vqe",
                        "--shots", str(NEAR_EXACT_SHOTS), "--seed", "0",
                        "--output", "json")
    assert json.loads(out)["optimizer"] == "spsa"
    assert len(runs) == 1
    assert runs[0].energy_history == library.energy_history


def test_shot_counts_beyond_one_draw_are_refused_before_the_chain_runs(
        capsys, monkeypatch):
    # 2^63 reached Generator.binomial, which raised an OverflowError after
    # the integrals and the SCF had run. The count is refused for any
    # method; a vqe run and its scan are cases of
    # test_scan_refusals_come_before_any_integral
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a refused shot count")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    too_many = simulator.MAX_SHOTS + 1
    code, out, err = run_cli(capsys, "--molecule", "h2", "--method", "hf",
                             "--shots", str(too_many))
    assert (code, out) == (1, "")
    assert err == ("error: --shots must be positive and at most "
                   f"{simulator.MAX_SHOTS}, got {too_many}\n")
    # a library caller of execute is refused as early, at either end
    for shots in (0, too_many):
        with pytest.raises(ValueError, match="--shots must be positive"):
            cli.execute(cli.RunSpec(
                molecule=cli.load_molecule_argument("h2"), methods=("vqe",),
                shots=shots))


ROOT = Path(__file__).resolve().parents[1]

NO_SCIPY = """
import contextlib, io, sys
import numpy as np
from qelectra import cli
from qelectra.oracle import lowest_eigenvalues, pauli_to_sparse
from qelectra.pauli import PauliSum
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["--molecule", "h2", "--method", "hf,vqe,fci"])
# 12 qubits, 4,096 dimensions; Z_q and X_q by their masks (x, z)
ones = 1 << np.arange(12)
spins = PauliSum(12, np.concatenate([0 * ones, ones]),
                 np.concatenate([ones, 0 * ones]),
                 np.concatenate([1.0 + np.arange(12), np.full(12, 0.3)]))
lowest_eigenvalues(pauli_to_sparse(spins, np.arange(1 << 12)))
print(rc, *sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy"
                  or name.split(".")[:2] in (["numpy", "random"],
                                             ["numpy", "ma"])))
"""


def test_the_run_path_never_imports_scipy():
    # importing scipy.sparse.linalg takes about 0.3 s and 30 MB of
    # resident memory, more than a short run's own work; numpy.random,
    # which only shot and SPSA runs read, about 14 ms and several MB;
    # and numpy.ma, about 0.7 MB, which np.unique imports when it is asked
    # for the unique values alone
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, "-c", NO_SCIPY],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


@pytest.mark.parametrize("argv,fragment", [
    (("--molecule", "benzene"), "not a shipped molecule"),
    (("--molecule", "h2", "--method", "dft"), "out of scope"),
    (("--molecule", "h2", "--method", "ccsd"), "unknown method"),
    (("--molecule", "h2", "--method", " , "), "at least one"),
    (("--molecule", "h2", "--mapping", "steane"), "unknown mapping"),
    (("--molecule", "h2", "--active-space", "8"), "NE,NO"),
    (("--molecule", "h2", "--active-space", "a,b"), "two integers"),
    (("--molecule", "h2", "--active-space", "0,2"), "positive"),
    (("--molecule", "h2", "--shots", "0"), "positive"),
    (("--molecule", "h2", "--shots", "lots"), "exact"),
    (("--molecule", "h2", "--scan", "1.2,1.6"), "START,STOP,STEPS"),
    (("--molecule", "h2", "--scan", "1.2,1.6,zero"), "integer"),
    (("--molecule", "h2", "--scan", "0.0,1.6,3"), "positive"),
    (("--molecule", "h2", "--scan", "1.2,1.6,0"), "at least one step"),
    (("--molecule", "h2o", "--scan", "1.2,1.6,3"), "diatomic"),
    (("--molecule", "h2", "--scan", "1.2,1.6,3", "--fcidump", "x.fcidump"),
     "single-run"),
    (("--molecule", "ch4", "--method", "fci", "--active-space", "10,9"),
     "--active-space"),
])
def test_input_errors_exit_one(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err
    assert fragment in err


@pytest.mark.parametrize("bound", ["nan", "inf"])
def test_non_finite_scan_bounds_exit_one(capsys, recwarn, bound):
    # refused before the grid is spaced: numpy warns on an infinite span,
    # and a nan bond length would only fail later, at the geometry
    code, out, err = run_cli(capsys, "--molecule", "h2",
                             "--scan", f"{bound},2.0,2")
    assert code == 1
    assert out == ""
    assert "error: --scan bounds must be finite" in err
    assert "Warning" not in err
    assert len(recwarn) == 0


def test_degenerate_scan_grid_exit_one(capsys):
    # one geometry computed three times would print three identical rows
    code, out, err = run_cli(capsys, "--molecule", "h2", "--scan", "1.0,1.0,3")
    assert code == 1
    assert out == ""
    assert "error: --scan START equals STOP" in err


@pytest.mark.parametrize("method,seed", [("vqe", "-1"), ("hf", "-3")])
def test_negative_seed_is_refused_before_the_chain_runs(capsys, monkeypatch,
                                                       method, seed):
    # vqe used to fail after SCF with numpy's message, naming no flag, and
    # hf used to exit 0; a library caller of execute is refused as early
    calls = []
    compute = pipeline.compute_integrals

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compute_integrals", counting)
    code, out, err = run_cli(capsys, "--molecule", "h2", "--method", method,
                             "--seed", seed)
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be a non-negative integer\n"
    with pytest.raises(ValueError,
                       match="--seed must be a non-negative integer"):
        cli.execute(cli.RunSpec(molecule=cli.load_molecule_argument("h2"),
                                methods=(method,), seed=int(seed)))
    assert calls == []


def test_absurd_coordinates_are_refused_before_any_integral(
        capsys, tmp_path, monkeypatch, recwarn):
    # H2 at 1e300 Angstrom printed numpy overflow warnings and exited 2;
    # an XYZ file and a scan bound are refused against one stated bound
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    monkeypatch.setattr(cli, "compute_integrals_batch", refuse)
    xyz = tmp_path / "far.xyz"
    xyz.write_text("2\n\nH 0 0 0\nH 0 0 1e300\n")
    code, out, err = run_cli(capsys, "--molecule", str(xyz), "--method",
                             "hf,fci")
    assert (code, out) == (1, "")
    assert err.startswith("error: coordinate of H at (0.0, 0.0, 1.8897")
    assert err.endswith("Bohr lies beyond the 10000 Bohr bound\n")
    code, out, err = run_cli(capsys, "--molecule", "h2", "--scan",
                             "1,1e300,3")
    assert (code, out) == (1, "")
    assert err == ("error: --scan bounds must be at most 10000 Bohr; got "
                   "1.0, 1e+300\n")
    assert len(recwarn) == 0


def test_fci_cap_is_checked_before_the_chain_runs(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for an FCI run over the cap")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    code, _, err = run_cli(capsys, "--molecule", "ch4", "--method", "fci",
                           "--active-space", "10,9")
    assert code == 1
    assert "fci needs at most 8192 determinants, got 15876" in err


ETHYLENE = """6
ethylene
C 0.0 0.0 0.6695
C 0.0 0.0 -0.6695
H 0.0 0.9289 1.2321
H 0.0 -0.9289 1.2321
H 0.0 0.9289 -1.2321
H 0.0 -0.9289 -1.2321
"""


@pytest.fixture
def wide_systems(tmp_path):
    """Command lines of 28 and 30 qubits: ethylene in its full space (no
    shipped window), and CO2 with every electron in all 15 orbitals."""
    xyz = tmp_path / "c2h4.xyz"
    xyz.write_text(ETHYLENE)
    return {28: ["--molecule", str(xyz)],
            30: ["--molecule", "co2", "--active-space", "22,15"]}


@pytest.mark.parametrize("n_qubits", [28, 30])
def test_hf_builds_no_hamiltonian_and_has_no_qubit_cap(capsys, monkeypatch,
                                                       wide_systems,
                                                       n_qubits):
    # hf reads the SCF alone: it needs no operator and makes no register
    def refuse(*args, **kwargs):
        raise AssertionError("a Hamiltonian built for an hf run")

    monkeypatch.setattr(pipeline, "build_hamiltonian", refuse)
    monkeypatch.setattr(pipeline, "map_fermion", refuse)
    code, out, err = run_cli(capsys, *wide_systems[n_qubits], "--method",
                             "hf", "--output", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["n_qubits"] == n_qubits
    assert doc["methods"]["hf"]["converged"] is True
    if n_qubits == 30:
        # the CO2 HF energy of its default window: HF reads no window
        assert doc["methods"]["hf"]["energy_hartree"] == pytest.approx(
            -185.0652201647274, abs=1e-10)


@pytest.mark.parametrize("n_qubits", [28, 30])
def test_shot_vqe_qubit_cap_is_checked_before_the_chain_runs(
        capsys, monkeypatch, wide_systems, n_qubits):
    # a shot-sampled vqe works on the sector's amplitudes, as an exact one
    # does, so the same determinant cap refuses it
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for an oversized sector")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    code, out, err = run_cli(capsys, *wide_systems[n_qubits], "--method",
                             "vqe", "--shots", "64")
    assert code == 1
    assert out == ""
    # (8 of 14) and (11 of 15) orbitals per spin, squared
    determinants = {28: 9018009, 30: 1863225}[n_qubits]
    assert (f"vqe needs at most 8192 determinants, got {determinants}; "
            "restrict the problem with --active-space") in err


@pytest.mark.parametrize("method", ["fci", "vqe"])
def test_window_that_does_not_fit_keeps_its_own_message(capsys, method):
    # 7 frozen and 13 active orbitals exceed CO2's 15: the window check
    # runs before the caps, which would count 26 qubits and 511,225
    # determinants
    code, out, err = run_cli(capsys, "--molecule", "co2", "--active-space",
                             "8,13", "--method", method, "--shots",
                             "64" if method == "vqe" else "exact")
    assert code == 1
    assert out == ""
    assert ("active window (7 frozen + 13 active) exceeds 15 spatial "
            "orbitals") in err


@pytest.mark.parametrize("molecule, window, message", [
    ("co2", "8,13", "active window (7 frozen + 13 active) exceeds 15 "
                    "spatial orbitals"),
    ("h2o", "3,2", "cannot freeze 10 -> 3 electrons: need an even, "
                   "nonnegative difference"),
    ("co2", "20,9", "more active electrons than active spin orbitals")])
def test_window_that_does_not_fit_is_refused_before_any_integral(
        capsys, monkeypatch, molecule, window, message):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a window that "
                             "does not fit")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    code, out, err = run_cli(capsys, "--molecule", molecule,
                             "--active-space", window, "--method", "hf")
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


def test_exact_vqe_cap_is_checked_before_the_chain_runs(capsys,
                                                        monkeypatch):
    # exact vqe takes its energies on the same sector block as fci, and a
    # shot run measures on the same sector amplitudes
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    for shots in ("exact", "64"):
        code, _, err = run_cli(capsys, "--molecule", "ch4", "--method",
                               "vqe", "--active-space", "10,9", "--shots",
                               shots)
        assert code == 1
        assert "vqe needs at most 8192 determinants, got 15876" in err



# six lithium atoms 2.7 Angstrom apart: (2e, 16o) is 32 modes and 256
# determinants, under the determinant cap and over what the mapping packs
LITHIUM_CHAIN = "6\nLi6\n" + "".join(f"Li 0.0 0.0 {2.7 * k:.1f}\n"
                                       for k in range(6))


@pytest.mark.parametrize("method", ["fci", "vqe"])
def test_mapped_mode_cap_is_checked_before_the_chain_runs(
        capsys, monkeypatch, tmp_path, method):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a window over the "
                             "mapping's width")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    xyz = tmp_path / "li6.xyz"
    xyz.write_text(LITHIUM_CHAIN)
    code, out, err = run_cli(capsys, "--molecule", str(xyz), "--method",
                             method, "--active-space", "2,16")
    assert (code, out) == (1, "")
    assert err == (f"error: {method} needs at most 31 qubits, got 32; "
                   "restrict the problem with --active-space\n")

def test_fci_runs_on_a_sector_of_4900_determinants(capsys):
    # CH4 (8e, 8o): 16 qubits and 4,900 determinants, solved by Davidson
    code, out, err = run_cli(capsys, "--molecule", "ch4", "--method", "fci",
                             "--active-space", "8,8", "--output", "json")
    assert code == 0, err
    energy = json.loads(out)["methods"]["fci"]["energy_hartree"]
    assert energy == pytest.approx(-39.80526233501304, abs=1e-10)


def test_vqe_reaches_fci_on_a_wide_window(capsys):
    # NH3 (10e, 8o): 16 qubits, 3,136 determinants, and 11,257 fermion
    # terms through the mapping
    code, out, err = run_cli(capsys, "--molecule", "nh3", "--method",
                             "hf,vqe,fci", "--active-space", "10,8",
                             "--output", "json")
    assert code == 0, err
    methods = json.loads(out)["methods"]
    assert methods["vqe"]["converged"] is True
    gap = methods["vqe"]["energy_hartree"] - methods["fci"]["energy_hartree"]
    assert 0.0 < gap < 0.2e-3


def test_unknown_basis_name(capsys):
    # sto-3g is the one basis set; the flag stays for existing command lines
    code, out, _ = run_cli(capsys, "--molecule", "h2", "--basis", "STO-3G",
                           "--output", "json")
    assert code == 0
    assert json.loads(out)["basis"] == "sto-3g"
    with pytest.raises(SystemExit) as info:
        cli.main(["--molecule", "h2", "--basis", "cc-pvdz"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --basis: invalid choice: 'cc-pvdz'" in captured.err


@pytest.mark.parametrize("text,fragment", [
    ("2\n\nH 0 0 nan\nH 0 0 0\n", "non-finite coordinate"),
    ("2\n\nH 0 0 inf\nH 0 0 0\n", "non-finite coordinate"),
    ("-1\n\nH 0 0 0\nH 0 0 0.74\nH 0 0 1.48\n", "at least 1"),
    ("", "error: empty XYZ input"),
    ("two\n\nH 0 0 0\nH 0 0 0.74\n",
     "error: first XYZ line must be the atom count"),
    ("2\n\nH 0 0\nH 0 0 0.74\n",
     "error: malformed XYZ coordinate line: 'H 0 0'"),
    ("2\n\nH 0 0 x\nH 0 0 0.74\n",
     "error: non-numeric coordinate in line: 'H 0 0 x'"),
    # 1e-7 Angstrom apart: refused before any integral, since their 1s
    # functions would coincide
    ("2\n\nH 0 0 0\nH 0 0 1e-7\n",
     "error: nuclei 0 (H) and 1 (H) are 1.89e-07 Bohr apart, closer than "
     "the 0.1 Bohr minimum"),
])
def test_bad_xyz_files_exit_one(capsys, tmp_path, text, fragment):
    xyz = tmp_path / "bad.xyz"
    xyz.write_text(text)
    code, out, err = run_cli(capsys, "--molecule", str(xyz), "--method",
                             "fci")
    assert code == 1
    assert out == ""
    assert fragment in err


def test_near_coincident_nuclei_are_refused_before_any_integral(
        capsys, tmp_path, monkeypatch):
    # He-He 1e-3 Angstrom apart gets through SCF, and its nearly dependent
    # basis then makes the qubit Hamiltonian non-Hermitian
    def refuse(molecule):
        raise AssertionError("integrals computed")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    xyz = tmp_path / "he2.xyz"
    xyz.write_text("2\n\nHe 0 0 0\nHe 0 0 1e-3\n")
    code, out, err = run_cli(capsys, "--molecule", str(xyz), "--method",
                             "fci")
    assert (code, out) == (1, "")
    assert ("error: nuclei 0 (He) and 1 (He) are 0.00189 Bohr apart, closer "
            "than the 0.1 Bohr minimum") in err


def test_molecule_over_the_basis_cap_exits_one(capsys, tmp_path):
    # a small window does not lift the cap: the full basis holds the ERIs
    xyz = tmp_path / "c7.xyz"
    xyz.write_text("7\n\n" + "".join(f"C {1.5 * i} 0 0\n" for i in range(7)))
    code, out, err = run_cli(capsys, "--molecule", str(xyz),
                             "--active-space", "2,2")
    assert code == 1
    assert out == ""
    assert "error: 35 basis functions exceeds the dense-ERI cap of 32" in err


def test_shot_run_table_ends_with_the_sampling_note(capsys):
    code, out, err = run_cli(capsys, "--molecule", "h2", "--method", "vqe",
                             "--shots", "64")
    assert code in (0, 2), err
    assert out.splitlines()[-1] == ("note: vqe energies are sampled "
                                    "estimates at 64 shots per term")


def test_one_job_builds_one_sector_block(capsys, monkeypatch):
    # VQE and FCI read the same block, held on the assembled system
    built = []
    build = oracle.pauli_to_sparse

    def counting(observable, basis):
        built.append(basis.size)
        return build(observable, basis)

    monkeypatch.setattr(oracle, "pauli_to_sparse", counting)
    code, _, _ = run_cli(capsys, "--molecule", "lih", "--method",
                         "hf,vqe,fci", "--active-space", "2,4")
    assert code == 0
    assert built == [16]


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--molecule", "h2", "--frobnicate"])
    assert info.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_removed_optimizer_flag_is_unrecognized(capsys):
    # the shot setting picks the optimizer: bfgs for exact expectations,
    # spsa for sampled ones
    with pytest.raises(SystemExit) as info:
        cli.main(["--molecule", "h2", "--method", "vqe", "--optimizer",
                  "spsa"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --optimizer spsa" in captured.err


def test_missing_molecule_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert "qelectra" in capsys.readouterr().out


def test_scan_csv_grid(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--scan", "1.2,1.6,3", "--method", "hf,fci",
                           "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r_bohr,method,energy"
    assert len(lines) == 1 + 3 * 2
    grid = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert grid == sorted(grid)
    assert set(grid) == {1.2, 1.4, 1.6}
    for ln in lines[1:]:
        r, method, energy = ln.split(",")
        assert method in ("hf", "fci")
        assert -1.2 < float(energy) < -0.9


def test_scan_json_shape(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--scan", "1.2,1.6,3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scan"] == {"start_bohr": 1.2, "stop_bohr": 1.6, "steps": 3}
    assert len(doc["points"]) == 3
    first = doc["points"][0]
    assert first["r_bohr"] == 1.2
    assert first["converged"] is True
    assert "hf" in first["methods"]


def test_descending_scan_prints_ascending_r(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--scan", "1.6,1.2,3", "--output", "json")
    assert code == 0
    r = [point["r_bohr"] for point in json.loads(out)["points"]]
    assert len(r) == 3
    assert r == sorted(r)
    assert (r[0], r[-1]) == (1.2, 1.6)


def test_scan_table_columns(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2",
                           "--scan", "1.3,1.5,2")
    assert code == 0
    header = out.splitlines()[0]
    assert "r (Bohr)" in header
    assert "hf (Ha)" in header
    assert "1.300000" in out
    assert "1.500000" in out



def test_methods_are_listed_once_in_run_order(capsys):
    assert cli._parse_methods("fci, VQE,hf,fci,HF") == ("hf", "vqe", "fci")
    argv = ["--molecule", "h2", "--scan", "1.2,1.6,2"]
    _, table, _ = run_cli(capsys, *argv, "--method", "fci,hf,HF")
    assert table.splitlines()[0].split() == ["r", "(Bohr)", "hf", "(Ha)",
                                             "fci", "(Ha)"]
    _, csv, _ = run_cli(capsys, *argv, "--method", "hf,HF,fci", "--output",
                        "csv")
    assert [line.split(",")[1] for line in csv.splitlines()[1:]] == [
        "hf", "fci", "hf", "fci"]


def test_reference_table_is_noted_on_a_scan(capsys):
    argv = ["--molecule", "lih", "--scan", "2.5,3.5,2"]
    plain = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--reference-table")
    assert (code, out) == plain[:2]
    assert err == ("note: --reference-table applies to single runs; "
                   "ignored for --scan\n")

# N2 in its full space: 14 electrons in 10 orbitals, 14,400 determinants
NITROGEN = "2\nN2\nN 0.0 0.0 0.0\nN 0.0 0.0 1.1\n"


@pytest.mark.parametrize("argv, message", [
    (["--molecule", "h2", "--method", "vqe", "--shots", str(1 << 63)],
     f"--shots must be positive and at most {(1 << 63) - 1}, got "
     f"{1 << 63}"),
    (["--molecule", "lih", "--active-space", "4,9"],
     "active window (0 frozen + 9 active) exceeds 6 spatial orbitals"),
    (["--method", "hf,fci"],
     "fci needs at most 8192 determinants, got 14400"),
    (["--method", "vqe", "--shots", "64"],
     "vqe needs at most 8192 determinants, got 14400"),
])
def test_scan_refusals_come_before_any_integral(capsys, monkeypatch,
                                                tmp_path, argv, message):
    # the checks run once for the grid, and print what a single run prints
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a refused scan")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    monkeypatch.setattr(cli, "compute_integrals_batch", refuse)
    if "--molecule" not in argv:
        xyz = tmp_path / "n2.xyz"
        xyz.write_text(NITROGEN)
        argv = ["--molecule", str(xyz)] + argv
    single = run_cli(capsys, *argv)
    assert single[:2] == (1, "")
    assert single[2].startswith(f"error: {message}")
    assert run_cli(capsys, *argv, "--scan", "2.0,3.0,3") == single


def test_scan_passes_stay_under_the_byte_budget(capsys, monkeypatch):
    # 60 LiH points in passes of at most 48: a pass's size, and with it the
    # integral memory of a pass, does not grow with STEPS
    passes, built = [], []

    def recorded(molecules, _original=cli.compute_integrals_batch):
        passes.append([m.atoms[1].position[2] for m in molecules])
        built.append(geometries[0])
        return _original(molecules)

    def counted(*args, _original=cli.diatomic_geometry, **kwargs):
        geometries[0] += 1
        return _original(*args, **kwargs)

    geometries = [0]
    monkeypatch.setattr(cli, "compute_integrals_batch", recorded)
    monkeypatch.setattr(cli, "diatomic_geometry", counted)
    code, out, _ = run_cli(capsys, "--molecule", "lih", "--scan",
                           "2.0,5.0,60", "--output", "csv")
    assert code == 0
    point_bytes = cli._point_bytes(cli.load_molecule_argument("lih"))
    assert [len(p) for p in passes] == [48, 12]
    # each pass builds its own points' geometries, after the one the
    # checks read
    assert built == [1 + 48, 1 + 48 + 12]
    assert all(len(p) * point_bytes <= cli.SCAN_PASS_BYTES for p in passes)
    # every point once, in grid order
    grid = np.linspace(2.0, 5.0, 60).tolist()
    assert [r for p in passes for r in p] == grid
    assert [float(line.split(",")[0])
            for line in out.splitlines()[1:]] == grid


def test_fcidump_export(capsys, tmp_path):
    path = tmp_path / "lih_window.fcidump"
    code, _, _ = run_cli(capsys, "--molecule", "lih", "--fcidump", str(path))
    assert code == 0
    h, eri, core, norb, n_elec, ms2 = read_fcidump(str(path))
    assert norb == 5
    assert n_elec == 2
    assert ms2 == 0
    assert h.shape == (5, 5)
    # frozen lithium 1s pulls the core constant well below the bare
    # nuclear repulsion
    assert core < 0.0


def test_reference_table_rendering(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "lih", "--reference-table")
    assert code == 0
    assert "published reference (Ha)" in out
    assert "-7.9817676644" in out
    dft_rows = [ln for ln in out.splitlines() if ln.startswith("dft")]
    assert len(dft_rows) == 1
    assert "-8.0681922929" in dft_rows[0]
    assert "display-only" in out


def test_reference_table_without_data(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2", "--reference-table")
    assert code == 0
    assert "no published reference values for H2" in out
    assert "published reference (Ha)" not in out


def test_reference_table_json(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "lih", "--output", "json",
                           "--reference-table")
    assert code == 0
    doc = json.loads(out)
    assert doc["reference"]["hf"] == pytest.approx(-7.981767664359352)
    assert any("display-only" in note for note in doc["notes"])


def test_reference_table_ignored_for_csv(capsys):
    code, out, err = run_cli(capsys, "--molecule", "lih", "--output", "csv",
                             "--reference-table")
    assert code == 0
    assert "ignored for csv" in err
    assert "reference" not in out


def test_active_space_override(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "lih", "--method", "hf,fci",
                           "--active-space", "2,2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["active_space"] == {"n_electrons": 2, "n_orbitals": 2}
    assert doc["n_qubits"] == 4
    assert doc["methods"]["fci"]["energy_hartree"] < \
        doc["methods"]["hf"]["energy_hartree"]


def test_shot_based_run_is_labeled(capsys):
    code, out, _ = run_cli(capsys, "--molecule", "h2", "--method", "vqe",
                           "--shots", "64", "--output", "json")
    assert code in (0, 2)
    doc = json.loads(out)
    assert doc["shots"] == 64
    assert any("sampled estimates" in note for note in doc["notes"])


def test_xyz_file_argument(capsys, tmp_path):
    xyz = tmp_path / "stretched.xyz"
    xyz.write_text("2\nhydrogen at 0.80 Angstrom\n"
                   "H 0.0 0.0 0.0\nH 0.0 0.0 0.80\n")
    code, out, _ = run_cli(capsys, "--molecule", str(xyz),
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == "H2"
    assert doc["methods"]["hf"]["energy_hartree"] < -1.0
