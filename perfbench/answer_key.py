"""Hand-written answer key, taken from the paper's classification.

Nothing here is computed by odesym.  The membership rules for the n+4
generators V_0..V_{n-1}, W_y, F_n, G_n, H_n of the order-n equation of
maximal symmetry are:

- divergence symmetry, even n: every generator except W_y;
- divergence symmetry, odd n: the V_k and W_y;
- variational symmetry of the transformed Lagrangian, even n: V_k for
  k <= (n-2)/2, plus F_n and G_n.

The nonlinear/concrete verdicts restate the paper's statements for the
q = 0 natural Lagrangian, the four solution families, the worked order-4
example and the numeric cross-check.
"""

from __future__ import annotations

VERIFIED = "verified"
REFUTED = "refuted"


def generator_names(n: int) -> list[str]:
    return [f"V{k}" for k in range(n)] + ["Wy", f"F{n}", f"G{n}", f"H{n}"]


def divergence_positives(n: int) -> set[str]:
    if n % 2 == 0:
        return set(generator_names(n)) - {"Wy"}
    return {f"V{k}" for k in range(n)} | {"Wy"}


def variational_positives(n: int) -> set[str]:
    if n % 2:
        raise ValueError(f"no transformed Lagrangian for odd order {n}")
    return {f"V{k}" for k in range((n - 2) // 2 + 1)} | {f"F{n}", f"G{n}"}


def table_key(kind: str, n: int) -> dict[str, str]:
    """Verdict of every generator in one membership table."""
    positives = divergence_positives(n) if kind == "divergence" else variational_positives(n)
    return {g: VERIFIED if g in positives else REFUTED for g in generator_names(n)}


# The paper's full population: divergence for n = 3..8, variational for
# n in {4, 6, 8}; 87 claims, 27 of them refutations.
POPULATION_TABLES = [("divergence", n) for n in range(3, 9)] + [
    ("variational", n) for n in (4, 6, 8)
]


def symbolic_key(tables=POPULATION_TABLES) -> dict[tuple[str, int, str], str]:
    return {
        (kind, n, g): verdict
        for kind, n in tables
        for g, verdict in table_key(kind, n).items()
    }


# nonlinear_concrete: natural Lagrangian at q = 0 (u = 1, v = x up to
# scaling): exactly V_0 and V_1 are variational.
FLAT_NATURAL = {"V0": VERIFIED, "V1": VERIFIED, "V2": REFUTED, "V3": REFUTED}

# Each solution family makes its sl2 generator variational for the natural
# Lagrangian of order 4.
FAMILIES = {
    "f4-radical-log": VERIFIED,
    "h4-radical-log": VERIFIED,
    "g4-exponential": VERIFIED,
    "g4-power": VERIFIED,
}

# The push-forwards of the seven divergence generators are Lie symmetries of
# the worked example.  Flipping the sign of either component of H_4 adds a
# multiple of z^2 d/dz or of z w d/dw, neither of which is a symmetry of
# w'''' = 0, so both variants are refuted.
EXAMPLE_LIE = {name: VERIFIED for name in ("V0", "V1", "V2", "V3", "F4", "G4", "H4")}
EXAMPLE_LIE_FLIPPED = {"H4-xi-flip": REFUTED, "H4-psi-flip": REFUTED}

# Genuine first integrals drift below 1e-6 along RK4; a 2% q*y^2 corruption
# of the order-3 homogeneity integral drifts above 1e-3.
DRIFT = {"homogeneity-n3": VERIFIED, "example-component": VERIFIED, "corrupted-n3": REFUTED}
DRIFT_GENUINE_MAX = 1e-6
DRIFT_CORRUPTED_MIN = 1e-3

