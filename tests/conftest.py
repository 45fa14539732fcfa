import pytest
from hypothesis import settings

from wordmeasure import parse_tuple

# the same examples on every run: no random seed, no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# the regression set: text, rank, exact trace (by display form where nonzero)
GOLDEN = [
    ("[x,y]", 2),
    ("[x^2,y]", 2),
    ("[x,y]^2", 2),
    ("[x,y]^3", 2),
    ("[x,y][x,z]", 3),
    ("[x,y][x^2y^2,z]", 3),
    ("[x,y][x,z][x,t]", 4),
]


@pytest.fixture(scope="session")
def golden_tuples():
    return {text: parse_tuple([text], rank) for text, rank in GOLDEN}
