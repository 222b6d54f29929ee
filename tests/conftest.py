"""Import ``gaussmax`` from this checkout's ``src`` without an install.

The directory goes on ``sys.path`` for the tests and on ``PYTHONPATH`` for
the child processes some tests start (``python -m gaussmax.cli``, scripts
run with ``python -c``), so ``python3 -m pytest`` works in a fresh checkout.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
