"""FCIDUMP text export of spatial MO integrals.

Layout follows the common convention: a namelist header, then `value i j k l`
records with 1-based indices in chemists' notation, two-electron values
first (canonical 8-fold quartets), one-electron values with k = l = 0, and
the core energy last with all indices 0. Values carry 17 significant digits
so a round trip preserves them bit-for-bit at double precision; the reader
in `tests/fcidump_oracle.py` checks that.
"""

import numpy as np

WRITE_THRESHOLD = 1e-14


def write_fcidump(path, h_mo: np.ndarray, eri_mo: np.ndarray, core_energy: float,
                  n_electrons: int) -> None:
    """Write closed-shell (MS2 = 0) integrals, as restricted HF gives them."""
    n = h_mo.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f" &FCI NORB={n:4d},NELEC={n_electrons:3d},MS2= 0,\n")
        fh.write("  ORBSYM=" + "1," * n + "\n")
        fh.write("  ISYM=1,\n")
        fh.write(" &END\n")

        def rec(value, i, j, k, l):
            fh.write(f" {value:23.16e} {i:4d} {j:4d} {k:4d} {l:4d}\n")

        for i in range(n):
            for j in range(i + 1):
                ij = i * (i + 1) // 2 + j
                for k in range(i + 1):
                    for l in range(k + 1):
                        kl = k * (k + 1) // 2 + l
                        if kl > ij:
                            continue
                        v = eri_mo[i, j, k, l]
                        if abs(v) > WRITE_THRESHOLD:
                            rec(v, i + 1, j + 1, k + 1, l + 1)
        for i in range(n):
            for j in range(i + 1):
                v = h_mo[i, j]
                if abs(v) > WRITE_THRESHOLD:
                    rec(v, i + 1, j + 1, 0, 0)
        rec(core_energy, 0, 0, 0, 0)
