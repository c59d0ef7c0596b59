import sys
from pathlib import Path

import pytest

# make the sibling oracles module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def int_string_limit():
    """CPython's default int-string limit, whatever the environment set."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on int-string conversion")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
