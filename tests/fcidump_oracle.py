"""FCIDUMP reader: the check that a file `qelectra.fcidump` writes reads
back to the integrals it was written from."""

import re

import numpy as np


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
