"""Exact computation with finite-dimensional Lie algebras.

Structure-constant algebras over Q or a prime field, with exact linear
algebra throughout: Jacobi checking with witnesses, series and center,
Killing and general invariant bilinear forms, ideal enumeration, and
the double-extension / contraction constructions for metric algebras.
A distinguished one-parameter family of solvable metric algebras,
indexed by a truncation size and an integer "hat" reduction, ties the
pieces together and drives the command-line front end.
"""

# The package surface: the ``__all__`` of each module star-imported below, plus
# five ``fields`` names and three ``io`` names.  A new public name goes in its
# module's ``__all__``.

from .fields import FieldMismatchError, FpElement, PrimeField, QQ, RationalField
from . import linalg, core, hats, family, selfdual
from .linalg import *
from .core import *
from .hats import *
from .family import *
from .selfdual import *
from .io import AlgebraFileError, load_algebra, save_algebra

__version__ = "0.1.0"

__all__ = list(dict.fromkeys([
    "FieldMismatchError", "FpElement", "PrimeField", "QQ", "RationalField",
    *linalg.__all__, *core.__all__, *hats.__all__, *family.__all__, *selfdual.__all__,
    "AlgebraFileError", "load_algebra", "save_algebra", "__version__",
]))
