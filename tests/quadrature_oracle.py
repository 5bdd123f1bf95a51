"""Brute-force numerical quadrature of the one-electron integrands.

A test oracle: it cross-checks the analytic integral engine through a
completely different route, direct numerical integration of the same
integrand functions on explicit product grids. Accuracy target is 1e-4
absolute for the bundled light-element systems; a warning flag is set when
the requested grid cannot plausibly reach that.

Overlap and kinetic integrands are smooth, so a uniform midpoint product
grid over a padded bounding box suffices; the kinetic integrand uses the
closed-form Laplacian of each contracted Gaussian (`laplacian`). The
nuclear-attraction integrand has an integrable 1/|r - C| singularity at
each nucleus, so that term is integrated on a spherical product grid
(Gauss-Legendre radial and polar, uniform azimuthal) centered on the
nucleus, where the volume element cancels the singularity exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from qelectra.basis import ContractedGaussian, load_basis
from qelectra.molecule import Molecule


def _safe_pow(base, exponent: int):
    if exponent == 0:
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    return base ** exponent


def laplacian(func: ContractedGaussian, x, y, z):
    """The Laplacian of a contracted Gaussian on arrays of coordinates."""
    dx = x - func.center[0]
    dy = y - func.center[1]
    dz = z - func.center[2]
    r2 = dx * dx + dy * dy + dz * dz
    l, m, n = func.powers
    out = 0.0
    for a, c in zip(func.alphas, func.coeffs):
        g = np.exp(-a * r2)
        fx = _safe_pow(dx, l)
        fy = _safe_pow(dy, m)
        fz = _safe_pow(dz, n)
        d2x = (4.0 * a * a * dx * dx - 2.0 * a * (2 * l + 1)) * fx
        if l >= 2:
            d2x = d2x + l * (l - 1) * _safe_pow(dx, l - 2)
        d2y = (4.0 * a * a * dy * dy - 2.0 * a * (2 * m + 1)) * fy
        if m >= 2:
            d2y = d2y + m * (m - 1) * _safe_pow(dy, m - 2)
        d2z = (4.0 * a * a * dz * dz - 2.0 * a * (2 * n + 1)) * fz
        if n >= 2:
            d2z = d2z + n * (n - 1) * _safe_pow(dz, n - 2)
        out = out + c * g * (d2x * fy * fz + fx * d2y * fz + fx * fy * d2z)
    return out


@dataclass
class GridSpec:
    """Bounded product grid: per-axis point count and padding beyond centers."""

    points_per_axis: int = 96
    padding: float = 8.0  # Bohr beyond the outermost basis center

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValueError("points_per_axis must be at least 8")
        if self.padding <= 0:
            raise ValueError("padding must be positive")


@dataclass
class OneElectronQuadrature:
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    accuracy_warning: bool
    notes: str = ""


def quadrature_one_electron(molecule: Molecule,
                            grid: GridSpec = None) -> OneElectronQuadrature:
    """Numerically integrate S, T and V matrices on explicit grids."""
    if grid is None:
        grid = GridSpec()
    funcs = load_basis(molecule)
    n = len(funcs)
    coords = molecule.coordinates()
    charges = molecule.charges()

    warning, notes = _grid_adequacy(funcs, grid)

    # --- Cartesian midpoint grid for the smooth integrands -----------------
    lo = coords.min(axis=0) - grid.padding
    hi = coords.max(axis=0) + grid.padding
    npts = grid.points_per_axis
    axes = []
    weights = 1.0
    for d in range(3):
        h = (hi[d] - lo[d]) / npts
        axes.append(lo[d] + (np.arange(npts) + 0.5) * h)
        weights *= h

    # evaluate in slabs along x to keep memory bounded for dense grids
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    slab = max(1, int(4e6 / (npts * npts)))
    for start in range(0, npts, slab):
        xs = axes[0][start:start + slab]
        X, Y, Z = np.meshgrid(xs, axes[1], axes[2], indexing="ij")
        values = [f(X, Y, Z) for f in funcs]
        laplacians = [laplacian(f, X, Y, Z) for f in funcs]
        for i in range(n):
            for j in range(n):
                if j <= i:
                    S[i, j] += np.sum(values[i] * values[j])
                T[i, j] += -0.5 * np.sum(values[i] * laplacians[j])
    S *= weights
    T *= weights
    for i in range(n):
        for j in range(i):
            S[j, i] = S[i, j]
    # symmetrize T: the sampled integrand is not symmetric even though the
    # exact integral is, and averaging cancels part of the sampling error
    T = 0.5 * (T + T.T)

    # --- spherical product grids, one per nucleus, for 1/|r - C| -----------
    r_nodes, r_w = np.polynomial.legendre.leggauss(npts)
    u_nodes, u_w = np.polynomial.legendre.leggauss(npts)    # u = cos(theta)
    phi = 2.0 * np.pi * (np.arange(npts) + 0.5) / npts
    phi_w = 2.0 * np.pi / npts

    V = np.zeros((n, n))
    for C, Zq in zip(coords, charges):
        r_max = max(np.linalg.norm(coords - C[None, :], axis=1).max(), 0.0) \
            + grid.padding
        r = 0.5 * r_max * (r_nodes + 1.0)
        rw = 0.5 * r_max * r_w
        sin_t = np.sqrt(np.clip(1.0 - u_nodes ** 2, 0.0, None))
        # grid points: (r, u, phi) product
        R3, U3, P3 = np.meshgrid(r, u_nodes, phi, indexing="ij")
        S3 = np.sqrt(np.clip(1.0 - U3 ** 2, 0.0, None))
        gx = C[0] + R3 * S3 * np.cos(P3)
        gy = C[1] + R3 * S3 * np.sin(P3)
        gz = C[2] + R3 * U3
        # weight r (not r^2): the leftover after cancelling 1/|r - C|
        w3 = (rw * r)[:, None, None] * u_w[None, :, None] * phi_w
        fvals = [f(gx, gy, gz) for f in funcs]
        for i in range(n):
            for j in range(i + 1):
                contrib = -Zq * float(np.sum(w3 * fvals[i] * fvals[j]))
                V[i, j] += contrib
                if i != j:
                    V[j, i] += contrib

    return OneElectronQuadrature(overlap=S, kinetic=T, nuclear=V,
                                 accuracy_warning=warning, notes=notes)


def _grid_adequacy(funcs, grid: GridSpec):
    """Heuristic check that the grid can resolve every primitive.

    Two failure modes: spacing too coarse for the sharpest primitive
    (sampling error) and padding too small for the most diffuse one
    (truncated tails). Thresholds are tuned so the bundled H/He systems
    pass cleanly and hard cases are flagged rather than silently wrong.
    """
    alpha_max = max(float(f.alphas.max()) for f in funcs)
    alpha_min = min(float(f.alphas.min()) for f in funcs)
    centers = np.array([f.center for f in funcs])
    span = float((centers.max(axis=0) - centers.min(axis=0)).max())
    h = (span + 2.0 * grid.padding) / grid.points_per_axis

    notes = []
    # the kinetic integrand is the binding constraint: its Fourier tail
    # carries an extra k^2 factor, so demand roughly 2 points per 1/sqrt(a)
    if h > 0.5 / np.sqrt(alpha_max):
        notes.append(
            f"spacing {h:.3f} Bohr too coarse for exponent {alpha_max:.3g}")
    if erfc(np.sqrt(alpha_min) * grid.padding) > 1e-5:
        notes.append(
            f"padding {grid.padding:.1f} Bohr truncates exponent {alpha_min:.3g}")
    return bool(notes), "; ".join(notes)
