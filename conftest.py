"""Keep test runs from writing bytecode caches into the checkout.

A checkout that holds ``__pycache__`` directories imports without
compiling, which skews set-up time and peak memory when two checkouts
are measured against each other.  The setting covers this process and,
through the environment, the interpreters that tests start.  Only this
file's own cache is written, since it is imported before the setting
takes effect.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
