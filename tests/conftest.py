import gc

import pytest


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test after which the cyclic garbage collector is not as it was before,
    and set it back so that the tests after it run as they would alone."""
    enabled = gc.isenabled()
    yield
    left = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    assert left == enabled, (f"the collector was {'on' if enabled else 'off'} before the "
                             f"test and {'on' if left else 'off'} after it")
