"""Published per-molecule energies shipped for side-by-side display.

These numbers are transcribed from an external source and are shown next
to computed results on request. They are display-only: the source does
not state its basis set, so minimal-basis results computed here are not
expected to match them (water differs by roughly one Hartree), and its
energy tables are labeled in joules although the magnitudes are plainly
Hartree; they are reproduced here unconverted. The dft entries have no
computed counterpart in this package at all.

Keys are canonical Hill formulas as produced by
pipeline.canonical_formula.
"""

from typing import Dict, Optional

REFERENCE_ENERGIES: Dict[str, Dict[str, float]] = {
    "H2O": {
        "hf": -76.02679364497443,
        "dft": -76.33340861478466,
        "vqe": -76.02657123746106,
    },
    "HLi": {
        "hf": -7.981767664359352,
        "dft": -8.068192292902214,
        "vqe": -7.979985984912321,
    },
    "CH4": {
        "hf": -40.19870325538812,
        "dft": -40.44299420579781,
        "vqe": -40.19911992417514,
    },
    "H3N": {
        "hf": -56.18109675851954,
        "dft": -56.46351100537343,
        "vqe": -56.172108720433144,
    },
    "CO2": {
        "hf": -187.65110770987644,
        "dft": -188.4094301538952,
        "vqe": -187.6573437805891,
    },
}

REFERENCE_FOOTNOTE = (
    "published reference values: basis set unspecified at the source, so "
    "they are not comparable to minimal-basis results; source labels the "
    "units J but the magnitudes are Hartree and they are reproduced "
    "unconverted; dft values are display-only (no dft implementation here)")


def reference_for(formula: str) -> Optional[Dict[str, float]]:
    """Fixture row for a canonical formula, or None."""
    return REFERENCE_ENERGIES.get(formula)
