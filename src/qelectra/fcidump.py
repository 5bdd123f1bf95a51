"""FCIDUMP text export and import for spatial MO integrals.

Layout follows the common convention: a namelist header, then `value i j k l`
records with 1-based indices in chemists' notation, two-electron values
first (canonical 8-fold quartets), one-electron values with k = l = 0, and
the core energy last with all indices 0. Values carry 17 significant digits
so a round trip preserves them bit-for-bit at double precision.
"""

import re

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


def read_fcidump(path):
    """Parse an FCIDUMP file.

    Returns (h_mo, eri_mo, core_energy, n_orbitals, n_electrons, ms2) with
    all 8-fold symmetric ERI slots filled.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.S | re.I)
    if not header_match:
        raise ValueError("missing &FCI header")
    header = header_match.group(1)

    def key(name):
        m = re.search(rf"{name}\s*=\s*(-?\d+)", header, re.I)
        if not m:
            raise ValueError(f"header missing {name}")
        return int(m.group(1))

    norb = key("NORB")
    nelec = key("NELEC")
    ms2 = key("MS2")

    h = np.zeros((norb, norb))
    eri = np.zeros((norb, norb, norb, norb))
    core = 0.0

    body = text[header_match.end():]
    for line in body.splitlines():
        parts = line.split()
        if len(parts) != 5:
            continue
        v = float(parts[0])
        i, j, k, l = (int(p) for p in parts[1:])
        if i == j == k == l == 0:
            core = v
        elif k == l == 0:
            h[i - 1, j - 1] = v
            h[j - 1, i - 1] = v
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for (p, q) in ((a, b), (b, a)):
                for (r, s) in ((c, d), (d, c)):
                    eri[p, q, r, s] = v
                    eri[r, s, p, q] = v
    return h, eri, core, norb, nelec, ms2
