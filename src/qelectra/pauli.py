"""Pauli-string algebra and fermion-to-qubit mappings.

Strings are stored in symplectic form: a pair of bitmasks (x, z) plus a
power of i, encoding i^p * X^x * Z^z with qubit k at bit k. Y on a qubit is
i * X Z on that qubit. A PauliSum keys its terms by (x, z) and keeps the
coefficient of the Hermitian letters-operator (the one with literal Y
matrices), so a sum is Hermitian exactly when every coefficient is real.

Three mappings are implemented: Jordan-Wigner, the full-register parity
transform and Bravyi-Kitaev, each as one linear encoding over GF(2) (Seeley,
Richard & Love, arXiv:1208.5986): qubit q stores the parity of the modes in
row q. Ladder images and encoded states both come from those rows, so
`sector_basis` lists one (N, S_z) sector by forward enumeration and no
inverse map is needed. A binary-code style transformation is out of scope
and requesting one raises immediately.

In a letters string, character k acts on qubit k.
"""

import itertools
from enum import Enum
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .fermion import FermionOperator

# terms at or below this magnitude are dropped from a mapped operator
DEFAULT_PRUNE_THRESHOLD = 1e-12
# largest imaginary coefficient a Hermitian sum may carry
HERMITIAN_TOL = 1e-10

_LETTER_FOR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PHASE_POWER = {1: 0, 1j: 1, -1: 2, -1j: 3}
_POWER_PHASE = (1, 1j, -1, -1j)


def bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (values must be < 2**63).

    With values = b & z this is the exponent of the sign (-1)^{|z & b|}
    that Z^z puts on basis state b.
    """
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(np.int8)


class MappingKind(Enum):
    JORDAN_WIGNER = "jw"
    PARITY = "parity"
    BRAVYI_KITAEV = "bk"


def mapping_from_name(name: str) -> MappingKind:
    key = name.strip().lower().replace("-", "_")
    aliases = {
        "jw": MappingKind.JORDAN_WIGNER,
        "jordan_wigner": MappingKind.JORDAN_WIGNER,
        "parity": MappingKind.PARITY,
        "bk": MappingKind.BRAVYI_KITAEV,
        "bravyi_kitaev": MappingKind.BRAVYI_KITAEV,
    }
    if key in ("binary", "binary_code", "binarycode"):
        raise ValueError("the binary-code transformation is out of scope; "
                         "choose jw, parity, or bk")
    if key not in aliases:
        raise ValueError(f"unknown mapping {name!r}; choose jw, parity, or bk")
    return aliases[key]


class PauliString:
    """Tensor product of single-qubit Paulis with a unit phase.

    `phase` is restricted to {1, i, -1, -i}; `letters` is a string over
    IXYZ with position k acting on qubit k.
    """

    __slots__ = ("n_qubits", "x", "z", "phase_power")

    def __init__(self, letters: str = "", phase: complex = 1):
        if phase not in _PHASE_POWER:
            raise ValueError(f"phase must be a fourth root of unity, got {phase!r}")
        x = z = 0
        n_y = 0
        for k, ch in enumerate(letters):
            try:
                bx, bz = _BITS_FOR[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            x |= bx << k
            z |= bz << k
            n_y += bx & bz
        self.n_qubits = len(letters)
        self.x = x
        self.z = z
        self.phase_power = (_PHASE_POWER[phase] + n_y) % 4

    @classmethod
    def from_masks(cls, n_qubits: int, x: int, z: int,
                   phase_power: int) -> "PauliString":
        obj = cls.__new__(cls)
        obj.n_qubits = n_qubits
        obj.x = x
        obj.z = z
        obj.phase_power = phase_power % 4
        return obj

    @property
    def letters(self) -> str:
        return "".join(_LETTER_FOR[((self.x >> k) & 1, (self.z >> k) & 1)]
                       for k in range(self.n_qubits))

    @property
    def phase(self) -> complex:
        n_y = (self.x & self.z).bit_count()
        return _POWER_PHASE[(self.phase_power - n_y) % 4]

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"length mismatch: {self.n_qubits} vs {other.n_qubits} qubits")
        power = (self.phase_power + other.phase_power
                 + 2 * (self.z & other.x).bit_count())
        return PauliString.from_masks(self.n_qubits, self.x ^ other.x,
                                      self.z ^ other.z, power)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n_qubits != other.n_qubits:
            raise ValueError("length mismatch")
        anti = ((self.x & other.z).bit_count()
                + (self.z & other.x).bit_count()) % 2
        return anti == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString)
                and self.n_qubits == other.n_qubits
                and self.x == other.x and self.z == other.z
                and self.phase_power == other.phase_power)

    def __hash__(self):
        return hash((self.n_qubits, self.x, self.z, self.phase_power))

    def __repr__(self):
        ph = {1: "+", 1j: "+i", -1: "-", -1j: "-i"}[self.phase]
        return f"PauliString({ph}{self.letters or 'I'})"


class PauliSum:
    """Complex linear combination of Pauli strings on a fixed register.

    Internally keyed by (x, z); the stored coefficient multiplies the
    Hermitian letters-operator, so `is_hermitian` is a real-coefficient
    check.
    """

    def __init__(self, n_qubits: int,
                 data: Dict[Tuple[int, int], complex] = None):
        self.n_qubits = n_qubits
        self._data: Dict[Tuple[int, int], complex] = dict(data) if data else {}

    # ---- construction ----------------------------------------------------
    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "PauliSum":
        out = cls(string.n_qubits)
        out.add_string(string, coeff)
        return out

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {(0, 0): coeff})

    def add_string(self, string: PauliString, coeff: complex = 1.0) -> None:
        if string.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        n_y = (string.x & string.z).bit_count()
        c = coeff * _POWER_PHASE[(string.phase_power - n_y) % 4]
        key = (string.x, string.z)
        self._data[key] = self._data.get(key, 0.0) + c

    # ---- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterable[Tuple[Tuple[int, int], complex]]:
        return self._data.items()

    def coefficient(self, letters: str) -> complex:
        s = PauliString(letters)
        if s.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        return self._data.get((s.x, s.z), 0.0)

    def strings(self) -> List[Tuple[PauliString, complex]]:
        """Terms as Hermitian letter strings with their coefficients."""
        out = []
        for (x, z), c in self._data.items():
            n_y = (x & z).bit_count()
            out.append((PauliString.from_masks(self.n_qubits, x, z, n_y), c))
        return out

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= HERMITIAN_TOL for c in self._data.values())

    def norm_l1(self) -> float:
        return sum(abs(c) for c in self._data.values())

    # ---- algebra -----------------------------------------------------------
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        data = dict(self._data)
        for k, c in other._data.items():
            data[k] = data.get(k, 0.0) + c
        return PauliSum(self.n_qubits, data)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PauliSum(self.n_qubits,
                            {k: c * other for k, c in self._data.items()})
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        data: Dict[Tuple[int, int], complex] = {}
        for (x1, z1), c1 in self._data.items():
            y1 = (x1 & z1).bit_count()
            for (x2, z2), c2 in other._data.items():
                y2 = (x2 & z2).bit_count()
                x3 = x1 ^ x2
                z3 = z1 ^ z2
                y3 = (x3 & z3).bit_count()
                power = (y1 + y2 - y3 + 2 * (z1 & x2).bit_count()) % 4
                key = (x3, z3)
                data[key] = data.get(key, 0.0) + c1 * c2 * _POWER_PHASE[power]
        return PauliSum(self.n_qubits, data)

    __rmul__ = __mul__

    def simplify(self, threshold: float = DEFAULT_PRUNE_THRESHOLD) -> "PauliSum":
        """Drop terms with |coefficient| <= threshold."""
        return PauliSum(self.n_qubits,
                        {k: c for k, c in self._data.items()
                         if abs(c) > threshold})


# ---- GF(2) encodings and ladder-operator images ------------------------------

def _encoding(kind: MappingKind, n_modes: int) -> List[int]:
    """Row masks of a mapping's encoding matrix over GF(2).

    Row q holds mode q and otherwise only lower modes: every encoding is
    lower-triangular with a unit diagonal, hence invertible.
    """
    if kind == MappingKind.JORDAN_WIGNER:
        return [1 << q for q in range(n_modes)]
    if kind == MappingKind.PARITY:
        return [(2 << q) - 1 for q in range(n_modes)]
    if kind != MappingKind.BRAVYI_KITAEV:
        raise ValueError(f"unsupported mapping {kind}")
    # qubit q stores modes [start[q], q]: the root n - 1 stores them all and
    # each midpoint split stores its left part up to the pivot
    start = [0] * n_modes

    def build(left: int, right: int) -> None:
        if left < right:
            pivot = (left + right) >> 1
            start[pivot] = left
            build(left, pivot)
            build(pivot + 1, right)

    build(0, n_modes - 1)
    return [(2 << q) - (1 << start[q]) for q in range(n_modes)]


def _flip_mask(rows: List[int], mode: int) -> int:
    """Qubits whose stored parity changes when `mode` is flipped."""
    return sum(1 << q for q, row in enumerate(rows) if (row >> mode) & 1)


def _occupation_masks(rows: List[int]) -> List[int]:
    """Qubits whose parity reads each mode's occupation, by back-substitution:
    n_q is b_q XOR the occupations of the lower modes in row q."""
    occ: List[int] = []
    for q, row in enumerate(rows):
        mask = 1 << q
        for m in range(q):
            if (row >> m) & 1:
                mask ^= occ[m]
        occ.append(mask)
    return occ


def _ladder_image(kind: MappingKind, index: int, dagger: bool,
                  n_modes: int) -> PauliSum:
    """Qubit image of a single creation or annihilation operator.

    Both branches are (X-like - i Y-like)/2 for a_i^ and the conjugate for
    a_i. X flips the qubits that store mode i; Z reads the parity of the
    modes below i (X-like) or up to and including i (Y-like).
    """
    if not 0 <= index < n_modes:
        raise ValueError(f"mode index {index} outside register of {n_modes}")
    rows = _encoding(kind, n_modes)
    flip = _flip_mask(rows, index)
    occ = _occupation_masks(rows)
    parity = 0
    for mask in occ[:index]:
        parity ^= mask
    out = PauliSum(n_modes)
    # coefficient of i^{y} X^x Z^z with y Ys, i.e. of the letters-operator
    for z, coeff in ((parity, 0.5),
                     (parity ^ occ[index], -0.5j if dagger else 0.5j)):
        out.add_string(PauliString.from_masks(n_modes, flip, z,
                                              (flip & z).bit_count()), coeff)
    return out


_IMAGE_CACHE: Dict[Tuple[MappingKind, int, int, bool], PauliSum] = {}


def ladder_image(kind: MappingKind, index: int, dagger: bool,
                 n_modes: int) -> PauliSum:
    key = (kind, n_modes, index, bool(dagger))
    if key not in _IMAGE_CACHE:
        _IMAGE_CACHE[key] = _ladder_image(kind, index, dagger, n_modes)
    return _IMAGE_CACHE[key]


def map_fermion(op: FermionOperator, kind: MappingKind,
                n_modes: int) -> PauliSum:
    """Map a fermionic operator to a qubit operator on n_modes qubits,
    dropping terms at or below DEFAULT_PRUNE_THRESHOLD."""
    data: Dict[Tuple[int, int], complex] = {}
    for key, coeff in op.terms.items():
        if not key:
            data[(0, 0)] = data.get((0, 0), 0.0) + coeff
            continue
        prod = None
        for index, dagger in key:
            img = ladder_image(kind, index, dagger, n_modes)
            prod = img if prod is None else prod * img
        for k, c in prod.items():
            data[k] = data.get(k, 0.0) + c * coeff
    return PauliSum(n_modes, data).simplify()


def anticommutation_check(kind: MappingKind, n_modes: int) -> float:
    """Largest violation of the canonical anticommutation relations.

    Checks {a_i, a_j^} = delta_ij, {a_i, a_j} = 0 and {a_i^, a_j^} = 0 for
    all pairs, measured as the l1 norm of the residual operator.
    """
    worst = 0.0
    lower = [ladder_image(kind, i, False, n_modes) for i in range(n_modes)]
    raise_ = [ladder_image(kind, i, True, n_modes) for i in range(n_modes)]
    for i in range(n_modes):
        for j in range(n_modes):
            d1 = lower[i] * raise_[j] + raise_[j] * lower[i]
            if i == j:
                d1 = d1 - PauliSum.identity(n_modes)
            worst = max(worst, d1.simplify(0.0).norm_l1())
            d2 = lower[i] * lower[j] + lower[j] * lower[i]
            worst = max(worst, d2.simplify(0.0).norm_l1())
            d3 = raise_[i] * raise_[j] + raise_[j] * raise_[i]
            worst = max(worst, d3.simplify(0.0).norm_l1())
    return worst


def encode_occupation(kind: MappingKind, occupied: Iterable[int],
                      n_modes: int) -> List[int]:
    """Qubits set to 1 in the encoded basis state of a given determinant.

    Qubit q is set when its encoding row holds an odd number of occupied
    modes.
    """
    occ = 0
    for m in occupied:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode {m} outside register")
        occ |= 1 << m
    return [q for q, row in enumerate(_encoding(kind, n_modes))
            if (row & occ).bit_count() & 1]


def sector_basis(kind: MappingKind, n_modes: int, n_alpha: int,
                 n_beta: int) -> np.ndarray:
    """Encoded basis states of the determinants in one (N, S_z) sector.

    `n_alpha` electrons sit on the even (alpha) modes and `n_beta` on the
    odd (beta) modes. The encoding is linear over GF(2), so each
    determinant's state is the XOR of its occupied modes' flip masks.
    Returns C(n/2, n_alpha) * C(n/2, n_beta) states as a sorted int64
    array.
    """
    if n_modes % 2 != 0:
        raise ValueError("spin layout needs an even number of modes")
    half = n_modes // 2
    if not (0 <= n_alpha <= half and 0 <= n_beta <= half):
        raise ValueError(
            f"({n_alpha}, {n_beta}) electrons do not fit {half} spatial "
            "orbitals per spin")
    rows = _encoding(kind, n_modes)
    unit = np.array([_flip_mask(rows, m) for m in range(n_modes)],
                    dtype=np.int64)

    def spin_states(first: int, count: int) -> np.ndarray:
        picks = np.array(list(itertools.combinations(
            range(first, n_modes, 2), count)), dtype=np.int64)
        return np.bitwise_xor.reduce(unit[picks], axis=1)

    states = spin_states(0, n_alpha)[:, None] ^ spin_states(1, n_beta)
    return np.sort(states, axis=None)

