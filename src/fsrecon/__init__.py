"""fsrecon: exact subset-sums reconstruction over abelian groups.

Library surface, one module per concern:

* ``errors``        -- the error types behind the CLI's exit codes
* ``groups``        -- finitely generated abelian groups and their elements
* ``multisets``     -- multisets, subset sums, sign-flip equivalences
* ``ofs``           -- the odd moduli covered by plus/minus powers of two
* ``counterexamples`` -- equal-subset-sums pairs that are not flip equivalent
* ``radon``         -- discrete Radon transform on (Z/nZ)^d and its inverses
* ``cyclo``         -- exact cyclotomic arithmetic and unit-relation checks
* ``search``        -- brute-force oracles and regularity scans
* ``acceptance``    -- the acceptance criteria that ``fsrecon selftest`` runs
* ``cli``           -- the ``fsrecon`` command-line entry point
"""

from .groups import GroupElement, GroupSpec, cyclic
from .multisets import Multiset, Sim0Witness, sim_check, sim0_check

__version__ = "0.1.0"

__all__ = [
    "GroupElement",
    "GroupSpec",
    "cyclic",
    "Multiset",
    "Sim0Witness",
    "sim_check",
    "sim0_check",
    "__version__",
]
