import pytest

from iplkit.theories import Oracle


@pytest.fixture(scope="session")
def oracle():
    # one oracle shared by every test; it keeps no verdicts, only the
    # truth-table scans of its most recent variable sets
    return Oracle()
