"""Census and existence atlas of periodic stationary patterns of the
Nagumo equation on cycle graphs.

Layers, lowest first:

* numtheory - exact Moebius/totient/divisor helpers.
* words     - words over {0,1} / {0,a,1}, symmetry groups, orbit enumeration.
* counting  - class counts by one fixed-point average over each group.
* gde       - stationary states by branch continuation in the diffusion
              parameter, each step corrected by Newton.
* regions   - existence-region probing: how far in d a pattern survives.
* cli       - the nagumo-atlas command.
"""

from .counting import count, total_regions
from .gde import Equilibrium, Params, solve_type
from .regions import d_max, membership, scan_region
from .words import A2, A3, GroupKind, Word, enumerate_orbits, representatives

__all__ = [
    "A2",
    "A3",
    "Equilibrium",
    "GroupKind",
    "Params",
    "Word",
    "count",
    "d_max",
    "enumerate_orbits",
    "membership",
    "representatives",
    "scan_region",
    "solve_type",
    "total_regions",
]

__version__ = "0.1.0"
