"""Exact verification toolkit for the second-structure Toda lattice.

Subpackages build the classical Poisson charts, the q-Weyl operator algebra,
the quadratic exchange structure matrices and the ultralocalised transfer
matrices, and verify every identity relating them with exact polynomial
arithmetic.  See :mod:`toda2.registry` for the catalogue of named checks and
:mod:`toda2.cli` for the command-line runner.
"""

from .ring import Scalar, ScalarFraction
from .weyl import Lattice, WeylOp
from .matops import OpMatrix
from .poisson import Chart, make_chart, build_classical
from .reports import CheckReport

__version__ = "0.1.0"
