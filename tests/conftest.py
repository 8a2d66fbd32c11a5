"""Each test starts in a fresh field tower, so no test's radicals reach
another's."""

import pytest

from euclid.number import new_context


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()
