"""Make the checkout's ``repro`` package importable for these tests."""

import sys

from perfbench.program import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
