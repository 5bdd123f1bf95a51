"""Command-line interface: argument handling, output formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qelectra.cli as cli
from qelectra import oracle, pipeline, vqe
from qelectra.fcidump import read_fcidump


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
                           "--method", "vqe,fci", "--optimizer", "bfgs",
                           "--output", "json")
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


def test_run_spec_with_shots_defaults_to_spsa():
    # the default optimizer follows the shot setting in the library too,
    # not only behind the --optimizer flag
    report = cli.execute(cli.RunSpec(
        molecule=cli.load_molecule_argument("h2"), methods=("vqe",),
        shots=64))
    assert report.optimizer == "spsa"
    assert report.result("vqe").evaluations > 1


def test_library_spsa_follows_the_cli_trajectory(capsys, assembled,
                                                 monkeypatch):
    # the SPSA schedule belongs to run_vqe: a library run on LiH (24
    # parameters, c = 0.051) retraces the CLI run step by step
    system = assembled("lih")
    ansatz = vqe.build_uccsd(system.n_qubits,
                             system.spin_orbitals.n_electrons)
    library = vqe.run_vqe(system, ansatz,
                          vqe.OptimizerConfig(kind="spsa", seed=0))
    runs = []

    def recording(*args, **kwargs):
        runs.append(vqe.run_vqe(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_vqe", recording)
    _, out, _ = run_cli(capsys, "--molecule", "lih", "--method", "vqe",
                        "--optimizer", "spsa", "--seed", "0",
                        "--output", "json")
    assert json.loads(out)["optimizer"] == "spsa"
    assert len(runs) == 1
    assert runs[0].energy_history == library.energy_history


@pytest.mark.parametrize("optimizer", ["bfgs"])
def test_gradient_optimizers_refuse_shots_before_the_chain_runs(
        capsys, monkeypatch, optimizer):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for a refused optimizer")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    code, out, err = run_cli(capsys, "--molecule", "h2", "--method", "vqe",
                             "--optimizer", optimizer, "--shots", "100")
    assert code == 1
    assert out == ""
    assert f"--optimizer {optimizer} needs exact expectations" in err
    # a library caller of execute is refused as early
    with pytest.raises(ValueError, match="needs exact expectations"):
        cli.execute(cli.RunSpec(molecule=cli.load_molecule_argument("h2"),
                                methods=("vqe",), optimizer=optimizer,
                                shots=100))


ROOT = Path(__file__).resolve().parents[1]

NO_SCIPY = """
import contextlib, io, sys
import numpy as np
from qelectra import cli
from qelectra.oracle import lowest_eigenvalues, pauli_to_sparse
from qelectra.pauli import PauliString, PauliSum
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["--molecule", "h2", "--method", "hf,vqe,fci"])
# 12 qubits, 4,096 dimensions: above the dense cutoff
spins = PauliSum(12)
for q in range(12):
    spins.add_string(PauliString("I" * q + "Z" + "I" * (11 - q)), 1.0 + q)
    spins.add_string(PauliString("I" * q + "X" + "I" * (11 - q)), 0.3)
lowest_eigenvalues(pauli_to_sparse(spins, np.arange(1 << 12)), k=2)
print(rc, *sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy.")))
"""


def test_the_run_path_never_imports_scipy():
    # importing scipy.sparse.linalg takes about 0.3 s and 30 MB of
    # resident memory, more than a short run's own work
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


def test_fci_cap_is_checked_before_the_chain_runs(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrals computed for an FCI run over the cap")

    monkeypatch.setattr(pipeline, "compute_integrals", refuse)
    code, _, err = run_cli(capsys, "--molecule", "ch4", "--method", "fci",
                           "--active-space", "10,9")
    assert code == 1
    assert "fci needs at most 8192 determinants, got 15876" in err


def test_fci_runs_on_a_sector_above_the_dense_cutoff(capsys):
    # CH4 (8e, 8o): 16 qubits and 4,900 determinants, solved by Davidson
    code, out, err = run_cli(capsys, "--molecule", "ch4", "--method", "fci",
                             "--active-space", "8,8", "--output", "json")
    assert code == 0, err
    energy = json.loads(out)["methods"]["fci"]["energy_hartree"]
    assert energy == pytest.approx(-39.80526233501304, abs=1e-10)


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
])
def test_bad_xyz_files_exit_one(capsys, tmp_path, text, fragment):
    xyz = tmp_path / "bad.xyz"
    xyz.write_text(text)
    code, out, err = run_cli(capsys, "--molecule", str(xyz), "--method",
                             "fci")
    assert code == 1
    assert out == ""
    assert fragment in err


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


def test_removed_gd_optimizer_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--molecule", "h2", "--method", "vqe", "--optimizer",
                  "gd"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --optimizer: invalid choice: 'gd'" in captured.err


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
