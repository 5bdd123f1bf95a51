"""Contracted Cartesian Gaussian basis sets.

Ships the standard STO-3G parameterization as static data for H through Ne,
which covers every system bundled with the package. Elements beyond Ne are
recognized by the element table but have no basis data here; requesting them
raises a clear error rather than shipping digits that could not be verified.

Each shell is stored as (angular kind, [(exponent, coeff_s[, coeff_p]), ...]).
Shared-exponent "sp" shells expand to one s function plus px, py, pz in that
order. Basis functions are emitted atom by atom in input order, so the layout
of every matrix downstream is deterministic.
"""

import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .molecule import Molecule

_SQRT_PI_CUBED = np.pi ** 1.5

# exponent, c(s)
_S = "s"
# exponent, c(s), c(p)
_SP = "sp"

STO3G = {
    "H": [
        (_S, [(3.425250914, 0.1543289673),
              (0.6239137298, 0.5353281423),
              (0.1688554040, 0.4446345422)]),
    ],
    "He": [
        (_S, [(6.362421394, 0.1543289673),
              (1.158922999, 0.5353281423),
              (0.3136497915, 0.4446345422)]),
    ],
    "Li": [
        (_S, [(16.11957475, 0.1543289673),
              (2.936200663, 0.5353281423),
              (0.7946504870, 0.4446345422)]),
        (_SP, [(0.6362897469, -0.09996722919, 0.1559162750),
               (0.1478600533, 0.3995128261, 0.6076837186),
               (0.04808867840, 0.7001154689, 0.3919573931)]),
    ],
    "Be": [
        (_S, [(30.16787069, 0.1543289673),
              (5.495115306, 0.5353281423),
              (1.487192653, 0.4446345422)]),
        (_SP, [(1.314833110, -0.09996722919, 0.1559162750),
               (0.3055389383, 0.3995128261, 0.6076837186),
               (0.09937074560, 0.7001154689, 0.3919573931)]),
    ],
    "B": [
        (_S, [(48.79111318, 0.1543289673),
              (8.887362172, 0.5353281423),
              (2.405267040, 0.4446345422)]),
        (_SP, [(2.236956142, -0.09996722919, 0.1559162750),
               (0.5198204999, 0.3995128261, 0.6076837186),
               (0.1690617600, 0.7001154689, 0.3919573931)]),
    ],
    "C": [
        (_S, [(71.61683735, 0.1543289673),
              (13.04509632, 0.5353281423),
              (3.530512160, 0.4446345422)]),
        (_SP, [(2.941249355, -0.09996722919, 0.1559162750),
               (0.6834830964, 0.3995128261, 0.6076837186),
               (0.2222899159, 0.7001154689, 0.3919573931)]),
    ],
    "N": [
        (_S, [(99.10616896, 0.1543289673),
              (18.05231239, 0.5353281423),
              (4.885660238, 0.4446345422)]),
        (_SP, [(3.780455879, -0.09996722919, 0.1559162750),
               (0.8784966449, 0.3995128261, 0.6076837186),
               (0.2857143744, 0.7001154689, 0.3919573931)]),
    ],
    "O": [
        (_S, [(130.7093214, 0.1543289673),
              (23.80886605, 0.5353281423),
              (6.443608313, 0.4446345422)]),
        (_SP, [(5.033151319, -0.09996722919, 0.1559162750),
               (1.169596125, 0.3995128261, 0.6076837186),
               (0.3803889600, 0.7001154689, 0.3919573931)]),
    ],
    "F": [
        (_S, [(166.6791340, 0.1543289673),
              (30.36081233, 0.5353281423),
              (8.216820672, 0.4446345422)]),
        (_SP, [(6.464803249, -0.09996722919, 0.1559162750),
               (1.502281245, 0.3995128261, 0.6076837186),
               (0.4885884864, 0.7001154689, 0.3919573931)]),
    ],
    "Ne": [
        (_S, [(207.0156070, 0.1543289673),
              (37.70815124, 0.5353281423),
              (10.20529731, 0.4446345422)]),
        (_SP, [(8.246315120, -0.09996722919, 0.1559162750),
               (1.916266291, 0.3995128261, 0.6076837186),
               (0.6232292721, 0.7001154689, 0.3919573931)]),
    ],
}

# the one basis set; reports print this name
BASIS_NAME = "sto-3g"


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, powers: Tuple[int, int, int]) -> float:
    """L2 norm constant of x^l y^m z^n exp(-alpha r^2)."""
    l, m, n = powers
    total = l + m + n
    dfac = (_double_factorial(2 * l - 1)
            * _double_factorial(2 * m - 1)
            * _double_factorial(2 * n - 1))
    return ((2.0 * alpha / np.pi) ** 0.75) * np.sqrt((4.0 * alpha) ** total / dfac)


@dataclass
class ContractedGaussian:
    """Fixed linear combination of primitive Cartesian Gaussians on one center.

    `coeffs` already include the primitive norms and an overall factor that
    makes the contracted self-overlap exactly 1.
    """

    center: np.ndarray               # (3,) Bohr
    powers: Tuple[int, int, int]     # Cartesian angular momentum (l, m, n)
    alphas: np.ndarray               # primitive exponents
    coeffs: np.ndarray               # fully normalized contraction coefficients


def _contracted_self_overlap(alphas, coeffs, powers) -> float:
    l, m, n = powers
    total = l + m + n
    dfac = (_double_factorial(2 * l - 1)
            * _double_factorial(2 * m - 1)
            * _double_factorial(2 * n - 1))
    s = 0.0
    for ai, ci in zip(alphas, coeffs):
        for aj, cj in zip(alphas, coeffs):
            p = ai + aj
            s += ci * cj * dfac / ((2.0 * p) ** total) * _SQRT_PI_CUBED / p ** 1.5
    return s


def _normalized(powers, prims) -> Tuple[np.ndarray, np.ndarray]:
    """Exponents and fully normalized coefficients of one contraction,
    as read-only arrays."""
    alphas = np.array([p[0] for p in prims], dtype=float)
    raw = np.array([p[1] for p in prims], dtype=float)
    coeffs = raw * np.array([primitive_norm(a, powers) for a in alphas])
    # renormalize the contraction so the self-overlap is 1 to machine precision
    s = _contracted_self_overlap(alphas, coeffs, powers)
    coeffs = coeffs / np.sqrt(s)
    alphas.setflags(write=False)
    coeffs.setflags(write=False)
    return alphas, coeffs


_P_POWERS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@functools.lru_cache(maxsize=None)
def _element_functions(symbol: str):
    """(powers, alphas, coeffs) of each contracted function of an
    element's tabulated shells, in order, normalized once per process."""
    functions = []
    for kind, prims in STO3G[symbol]:
        if kind not in (_S, _SP):
            raise ValueError(f"unsupported shell kind {kind!r}")
        shells = [((0, 0, 0), [p[:2] for p in prims])]
        if kind == _SP:
            shells += [(powers, [(a, cp) for (a, _cs, cp) in prims])
                       for powers in _P_POWERS]
        functions += [(powers, *_normalized(powers, shell))
                      for powers, shell in shells]
    return tuple(functions)


def load_basis(molecule: Molecule) -> List[ContractedGaussian]:
    """Expand a molecule into its ordered list of contracted STO-3G functions.

    Ordering is deterministic: atoms in input order, shells in tabulated
    order, and p components always x, y, z. Each call builds new
    functions; they share their elements' read-only exponent and
    coefficient arrays.
    """
    functions: List[ContractedGaussian] = []
    for atom in molecule.atoms:
        if atom.symbol not in STO3G:
            raise ValueError(
                f"no {BASIS_NAME} data for element {atom.symbol}; "
                f"tabulated elements: {sorted(STO3G)}")
        functions += [ContractedGaussian(
            center=np.asarray(atom.position, dtype=float), powers=powers,
            alphas=alphas, coeffs=coeffs)
            for powers, alphas, coeffs in _element_functions(atom.symbol)]
    return functions
