"""Each test starts with an empty ring set-up memo, so no test sees a
FactorData another test built (or lazily extended)."""

import pytest

from ccring import decomp


@pytest.fixture(autouse=True)
def _fresh_memo():
    decomp.clear_memo()
