"""fringelab: fringe-subtree statistics of random trees with given degrees.

Submodules
----------
tree_core      trees, degree profiles, fringe counting, enumeration
sampling       exact-uniform samplers by bridge rotation, conditioned GW trees
exact_moments  arbitrary-precision factorial moments of fringe counts
asymptotics    limit means/covariances, tilted equivalents, additive tolls
mc_harness     seeded Monte Carlo confrontation of the limit laws
cli            the ``fringelab`` command-line entry point
"""

from .distributions import OffspringDistribution, WeightSequence
from .sampling import DegreeSequence, Seed
from .tree_core import DegreeStatistic, PlaneTree, UnorderedKey

__all__ = [
    "DegreeSequence",
    "DegreeStatistic",
    "OffspringDistribution",
    "PlaneTree",
    "Seed",
    "UnorderedKey",
    "WeightSequence",
]

__version__ = "0.1.0"
