"""Pauli sums and fermion-to-qubit mappings.

A `PauliSum` is the one qubit-operator form: three arrays holding each
Pauli string's symplectic masks (x, z), qubit k at bit k, and the
coefficient of its Hermitian letters-operator (the one with literal Y
matrices), which is i^{|x & z|} X^x Z^z because Y = i X Z on one qubit.
A sum is Hermitian exactly when every coefficient is real. Strings
multiply as (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^{|z1 & x2|} X^x Z^z with
x = x1 ^ x2, z = z1 ^ z2; `I_POWERS` is the one table of the phases.

Three mappings are implemented: Jordan-Wigner, the full-register parity
transform and Bravyi-Kitaev, each as one linear encoding over GF(2) (Seeley,
Richard & Love, arXiv:1208.5986): qubit q stores the parity of the modes in
row q. Ladder images and encoded states come from those rows. The
image of a_j^ is (X-like - i Y-like)/2 and that of a_j its
conjugate: both strings flip the qubits whose row holds mode j, and their
Z-masks read the parity of the modes below j (X-like) or up to and
including j (Y-like). `map_fermion` multiplies these images as bit
operations on their masks, reading a `FermionOperator`'s runs of
equal-length terms and returning the strings' arrays; `sector_basis`
encodes one (N, S_z) sector in alpha-beta string order, one order under
every mapping. `tests/pauli_oracle.py` keeps the images and their
product as whole sums, the oracle `map_fermion` is checked against bit
for bit, and the decoding of states. A binary-code style
transformation is out of scope and requesting one raises immediately.
"""

import itertools
import operator
from enum import Enum
from typing import Iterable, List, Tuple

import numpy as np

from .fermion import FermionOperator

# terms at or below this magnitude are dropped from a mapped operator
DEFAULT_PRUNE_THRESHOLD = 1e-12
# largest imaginary coefficient a Hermitian sum may carry
HERMITIAN_TOL = 1e-10

# I_POWERS[p] is i**p
I_POWERS = (1, 1j, -1, -1j)


def bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry (values in [0, 2**63)).

    With values = b & z this is the exponent of the sign (-1)^{|z & b|}
    that Z^z puts on basis state b.
    """
    return (np.bitwise_count(values) & 1).astype(np.int8)


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


class PauliSum:
    """Complex linear combination of distinct Pauli strings on a fixed
    register.

    Held as three arrays of one length, in the order the strings were
    given: string j has the masks (x[j], z[j]) (int64) and the coefficient
    coeffs[j] (complex128). The coefficient multiplies the Hermitian
    letters-operator, so `is_hermitian` is a real-coefficient check.
    """

    def __init__(self, n_qubits: int, x: np.ndarray, z: np.ndarray,
                 coeffs: np.ndarray):
        self.n_qubits = n_qubits
        self.x = np.asarray(x, dtype=np.int64)
        self.z = np.asarray(z, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if not (self.coeffs.ndim == 1
                and self.x.shape == self.z.shape == self.coeffs.shape):
            raise ValueError("need one x-mask, one z-mask and one "
                             "coefficient per string")

    def __len__(self) -> int:
        return self.coeffs.size

    def items(self) -> Iterable[Tuple[Tuple[int, int], complex]]:
        """((x, z), coefficient) per string, in order."""
        return zip(zip(self.x.tolist(), self.z.tolist()),
                   self.coeffs.tolist())

    def is_hermitian(self) -> bool:
        return bool(np.all(np.abs(self.coeffs.imag) <= HERMITIAN_TOL))

    def simplify(self) -> "PauliSum":
        """Drop terms with |coefficient| <= DEFAULT_PRUNE_THRESHOLD."""
        kept = np.abs(self.coeffs) > DEFAULT_PRUNE_THRESHOLD
        return PauliSum(self.n_qubits, self.x[kept], self.z[kept],
                        self.coeffs[kept])


# ---- GF(2) encodings and ladder-operator masks -------------------------------

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


def _mode_masks(kind: MappingKind,
                n_modes: int) -> Tuple[List[int], List[int], List[int]]:
    """Qubit masks per mode: (flip, below, occ).

    A ladder operator on mode i flips the qubits `flip[i]`; its Z-mask is
    `below[i]`, the parity of the modes below i (X-like), or
    `below[i] ^ occ[i]`, the parity up to and including i (Y-like).
    """
    rows = _encoding(kind, n_modes)
    occ = _occupation_masks(rows)
    below = list(itertools.accumulate(occ, operator.xor, initial=0))
    return ([_flip_mask(rows, m) for m in range(n_modes)], below[:n_modes],
            occ)


# widest register `map_fermion` takes: it packs each string's masks into
# one int64, x << n_modes | z
MAX_MAPPED_MODES = 31
# choices (terms times 2^length) mapped per array pass, which bounds the
# pass's temporaries
MAP_CHUNK_ENTRIES = 8192
# real and imaginary parts of I_POWERS
_I_REAL = np.real(I_POWERS)
_I_IMAG = np.imag(I_POWERS)


def _term_images(masks: np.ndarray, modes: np.ndarray, daggers: np.ndarray,
                 n_modes: int):
    """Qubit images of equal-length fermion terms, without coefficients.

    Row t of `modes` and `daggers` lists the factors of term t. A term's
    image is the product of its k factors' ladder images, so it
    sums one string per choice of each factor's X-like string (weight
    1/2) or Y-like string (weight i/2 for a_i, -i/2 for a_i^). Strings
    multiply as (x_1, z_1) ... (x_k, z_k) = i^e (x, z), with x and z the
    XOR of the factors' masks and e = sum_j |x_j & z_j| - |x & z|
    + 2 sum_{i<j} |z_i & x_j| (mod 4). Choice c takes the Y-like string of
    factor j when bit k - 1 - j of c is set, so choices run in the order
    in which the factor-by-factor product first meets each string.
    Choices that meet one string within a term (a repeated mode) are
    summed into the first of them.

    Returns, term-major, each first choice's packed string
    x << n_modes | z, its term, and the real and imaginary parts of its
    weight in units of 2^-k: exact integers.
    """
    n_terms, k = modes.shape
    flips, below, occ = masks[:, modes]
    x = np.bitwise_xor.reduce(flips, axis=1)
    # X-masks of the factors after each one: the cross terms of e need
    # only the parity of |z_i & x_j| summed over j > i
    later = np.bitwise_xor.accumulate(flips[:, ::-1], axis=1)[:, ::-1] ^ flips
    x_like, y_like = (np.bitwise_count(flips & z_j)
                      + 2 * np.bitwise_count(z_j & later)
                      for z_j in (below, below ^ occ))
    y_like = (y_like - x_like + 1 + 2 * daggers) & 3
    # a choice's first equal choice has each factor's bit moved to the
    # last factor on the same mode
    last = np.tile(np.arange(k), (n_terms, 1))
    for j in range(k):
        for i in range(j + 1, k):
            last[modes[:, i] == modes[:, j], j] = i
    moved = 1 << (k - 1 - last)

    z = np.empty((n_terms, 1 << k), dtype=np.int64)
    phase = np.empty_like(z)
    first = np.empty_like(z)
    z[:, 0] = np.bitwise_xor.reduce(below, axis=1)
    phase[:, 0] = x_like.sum(axis=1) & 3
    first[:, 0] = 0
    for j in range(k):
        # the choices below m are built; factor k - 1 - j adds bit m
        m = 1 << j
        f = k - 1 - j
        np.bitwise_xor(z[:, :m], occ[:, f, None], out=z[:, m:2 * m])
        np.add(phase[:, :m], y_like[:, f, None], out=phase[:, m:2 * m])
        np.bitwise_xor(first[:, :m], moved[:, f, None], out=first[:, m:2 * m])
    phase -= np.bitwise_count(x[:, None] & z)
    phase &= 3
    real, imag = _I_REAL[phase], _I_IMAG[phase]
    owner = np.broadcast_to(np.arange(n_terms)[:, None], z.shape)
    keep = first == np.arange(1 << k)
    if not keep.all():
        target = (owner << k | first).ravel()
        real = np.bincount(target, real.ravel(), target.size).reshape(z.shape)
        imag = np.bincount(target, imag.ravel(), target.size).reshape(z.shape)
    z |= x[:, None] << n_modes
    return z[keep], owner[keep], real[keep], imag[keep]


class _StringTotals:
    """Coefficient totals of packed strings, in the order first met.

    `add` adds each entry to its string's total in entry order, starting
    from 0.0, as a dict of running sums would.
    """

    def __init__(self):
        self.ascending = np.zeros(0, dtype=np.int64)  # strings met
        self.slots = np.zeros(0, dtype=np.int64)      # their totals' slots
        self.real = np.zeros(0)
        self.imag = np.zeros(0)

    def add(self, packed: np.ndarray, real: np.ndarray,
            imag: np.ndarray) -> None:
        unique, first, inverse = np.unique(packed, return_index=True,
                                           return_inverse=True)
        at = np.searchsorted(self.ascending, unique)
        met = at < self.ascending.size
        met[met] = self.ascending[at[met]] == unique[met]
        slot = np.empty(unique.size, dtype=np.int64)
        slot[met] = self.slots[at[met]]
        fresh = np.flatnonzero(~met)
        slot[fresh[np.argsort(first[fresh])]] = np.arange(
            self.real.size, self.real.size + fresh.size)
        self.ascending = np.insert(self.ascending, at[fresh], unique[fresh])
        self.slots = np.insert(self.slots, at[fresh], slot[fresh])
        self.real = np.concatenate([self.real, np.zeros(fresh.size)])
        self.imag = np.concatenate([self.imag, np.zeros(fresh.size)])
        np.add.at(self.real, slot[inverse], real)
        np.add.at(self.imag, slot[inverse], imag)

    def strings(self) -> np.ndarray:
        """The packed strings, in slot order."""
        strings = np.empty_like(self.ascending)
        strings[self.slots] = self.ascending
        return strings


def map_fermion(op: FermionOperator, kind: MappingKind,
                n_modes: int) -> PauliSum:
    """Map a fermionic operator to a qubit operator on n_modes qubits,
    dropping terms at or below DEFAULT_PRUNE_THRESHOLD.

    Bit for bit the sum, in term order, of each coefficient times the
    product of its term's ladder images, multiplied string by string by
    the product law above (the oracle in `tests/pauli_oracle.py`): a
    term's image is exact in units of 2^-k, it is multiplied by the
    coefficient as Python multiplies complex numbers, and each string
    adds its terms from 0.0 in term order. Strings keep the order in
    which the terms first meet them. The operator's runs are mapped in
    array passes of at most MAP_CHUNK_ENTRIES choices each.
    """
    if n_modes > MAX_MAPPED_MODES:
        raise ValueError(f"cannot map {n_modes} modes: the array pass holds "
                         f"at most {MAX_MAPPED_MODES}")
    masks = np.array(_mode_masks(kind, n_modes), dtype=np.int64)
    totals = _StringTotals()
    for modes, daggers, coeffs in op.runs:
        outside = (modes < 0) | (modes >= n_modes)
        if outside.any():
            raise ValueError(f"mode index {modes[outside][0]} outside "
                             f"register of {n_modes}")
        k = modes.shape[1]
        step = max(1, MAP_CHUNK_ENTRIES >> k)
        for lo in range(0, coeffs.size, step):
            packed, owner, a, b = _term_images(
                masks, modes[lo:lo + step], daggers[lo:lo + step], n_modes)
            a = a * 0.5 ** k
            b = b * 0.5 ** k
            c_real = coeffs.real[lo:lo + step][owner]
            c_imag = coeffs.imag[lo:lo + step][owner]
            # Python's complex product, part by part
            totals.add(packed, a * c_real - b * c_imag,
                       a * c_imag + b * c_real)
    strings = totals.strings()
    coeffs = np.empty(strings.size, dtype=complex)
    coeffs.real, coeffs.imag = totals.real, totals.imag
    return PauliSum(n_modes, strings >> n_modes,
                    strings & ((1 << n_modes) - 1), coeffs).simplify()


def sector_basis(kind: MappingKind, n_modes: int, n_alpha: int,
                 n_beta: int) -> np.ndarray:
    """Encoded basis states of the determinants in one (N, S_z) sector.

    `n_alpha` electrons sit on the even (alpha) modes and `n_beta` on the
    odd (beta) modes. The encoding is linear over GF(2), so each
    determinant's state is the XOR of its occupied modes' flip masks.
    Returns C(n/2, n_alpha) * C(n/2, n_beta) states as an int64 array in
    alpha-beta string order: row I_a * C(n/2, n_beta) + I_b joins alpha
    string I_a with beta string I_b, each spin's strings in
    `itertools.combinations` order.
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

    return (spin_states(0, n_alpha)[:, None] ^ spin_states(1, n_beta)).ravel()

