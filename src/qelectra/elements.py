"""Element symbol -> atomic number lookup for H through Ar."""

SYMBOLS = [
    "H", "He",
    "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar",
]

ATOMIC_NUMBERS = {symbol: i + 1 for i, symbol in enumerate(SYMBOLS)}


def atomic_number(symbol: str) -> int:
    """Return the atomic number for an element symbol (case-normalized)."""
    key = symbol.strip().capitalize()
    try:
        return ATOMIC_NUMBERS[key]
    except KeyError:
        raise ValueError(f"unknown element symbol {symbol!r} (supported: H..Ar)") from None

