"""Every check of the verify table passes at verify's default case count."""

import pytest

from parabgmt.checks import SUITES

CHECKS = {f"{suite}.{name}": fn for suite, table in SUITES.items() for name, fn in table}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(CHECKS))
def test_check_passes(name, seed):
    passed, detail = CHECKS[name](1000, seed)
    assert passed, detail
