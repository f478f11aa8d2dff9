import pytest

from strata_kit.tower import base_field, extend


@pytest.fixture(scope="session")
def F3():
    return base_field(3)


@pytest.fixture(scope="session")
def E_ram2(F3):
    """pi^2 = t over GF(3)((t))."""
    return extend(F3, 1, 2, 1)


@pytest.fixture(scope="session")
def towers():
    """A fixed tower family covering q in {3, 5, 9} and degrees 1..8."""
    out = []
    for q in (3, 5, 9):
        F = base_field(q)
        out.append(F)
        out.append(extend(F, 1, 2, 1))              # ramified quadratic
        out.append(extend(F, 2, 1, 1))              # unramified quadratic
        out.append(extend(extend(F, 2, 1, 1), 1, 2, 1))   # mixed quartic
    F5 = base_field(5)
    out.append(extend(F5, 1, 4, 2))                 # twisted quartic
    out.append(extend(extend(base_field(3), 2, 1, 1), 1, 4, 1))  # degree 8
    return out
