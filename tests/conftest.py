import numpy as np
import pytest

from fieldscape.cubical import ScalarField
from fieldscape.persistence import PAIR_DTYPE, PersistenceDiagram


def flat_field(rows: int, cols: int, flat) -> ScalarField:
    """A rows x cols field from its values in row-major order."""
    return ScalarField(rows, cols, np.reshape(flat, (rows, cols)))


def bar_diagram(bars0, bars1=()) -> PersistenceDiagram:
    """A diagram of the (birth, death) bars of degree 0, then of degree 1, rows in the order given.

    Nothing is sorted or dropped, so reversed, zero-length and reordered bars reach ``vectorize`` as given.
    """
    rows = [(degree, b, d) for degree, bars in enumerate((bars0, bars1)) for b, d in bars]
    return PersistenceDiagram(np.array(rows, dtype=(np.record, PAIR_DTYPE)), essential_min=float("nan"))


@pytest.fixture
def ring_field() -> ScalarField:
    """3x3 ring: boundary valued 1..8 cyclically, center 10.

    The loop closes at 8 and all four faces enter at 10.
    """
    return ScalarField(3, 3, np.array([[1, 2, 3], [8, 10, 4], [7, 6, 5]], dtype=float))


@pytest.fixture
def locality_gap_witness() -> tuple[ScalarField, ScalarField]:
    """Two 1x5 fields with equal (value, index) censuses but unequal degree-0 diagrams.

    In the first, the saddle at 3 merges the minimum born at 1 into the
    component of 0; in the second, the same saddle value merges the minima
    born at 1 and 2 with each other first.  So the local census cannot
    determine the pairing, while the converse direction (diagram to census)
    is exact.  The exhaustive search over all 1x5 permutations in the tests
    confirms the pair.
    """
    return (flat_field(1, 5, [0.0, 3.0, 1.0, 4.0, 2.0]),
            flat_field(1, 5, [0.0, 4.0, 1.0, 3.0, 2.0]))


def random_field(rng: np.random.Generator, max_rows: int = 6, max_cols: int = 6,
                 ties: bool = False) -> ScalarField:
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    if ties:
        vals = rng.integers(0, 4, (rows, cols)).astype(float)
    else:
        vals = rng.standard_normal((rows, cols))
    return ScalarField(rows, cols, vals)
