"""Exact toolkit for tensor-square decompositions of the basic module of
affine sl(n): crystal combinatorics on colored Young diagrams, congruence-
constrained partition enumeration, truncated q-series arithmetic, and
machine-checked multiplicity and partition identities."""

from .young import *
from .crystal import *
from .weightlat import *
from .qseries import *
from .multiplicity import *
from .identities import *

__version__ = "0.1.0"
