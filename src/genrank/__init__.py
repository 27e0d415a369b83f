"""Irredundant generating sets of finite and arithmetic groups.

The package measures two ranks of a group: the largest size of an
irredundant generating set (every element is needed) and the largest
size of a Nielsen-irredundant generating tuple (no elementary move
sequence produces a redundant entry).  For rational matrix tuples it
certifies Zariski density by reduction modulo primes and replays the
certificates bytewise.
"""

from .fp import FpMatrix, is_prime, projective_canonicalize
from .groups import (CyclicPower, GeneratingTuple, GenerationReport,
                     GroupSpec, Integers, ProductGroup, ProjSpecialLinear,
                     SpecialLinear, SubgroupClosure, closure, is_generating,
                     is_simple_finite, product_generates,
                     sl2_generation_report)
from .indexed import IndexedGroup
from .redundancy import (RankSearchResult, RedundancyReport, SearchLimits,
                         WitnessSearchResult, irredundant_witness, is_redundant,
                         max_irredundant_size, z_witness)
from .nielsen import (NielsenMove, OrbitReport, OrbitStatistics, all_moves,
                      is_nielsen_redundant, mu_rank, orbit_statistics)
from .arithmetic import (DenominatorClash, DensityCertificate, Evidence,
                         PlanConfig, PrimePlan, RationalMatrix, RationalTuple,
                         assess_irredundancy, assess_nielsen_irredundancy,
                         certify_density, deserialize_certificate,
                         plan_primes, reduce_matrix_mod_p, reduce_tuple_mod_p,
                         replay_certificate, serialize_certificate)

__all__ = [
    "FpMatrix", "is_prime", "projective_canonicalize",
    "CyclicPower", "GeneratingTuple", "GenerationReport",
    "GroupSpec", "Integers", "ProductGroup",
    "ProjSpecialLinear", "SpecialLinear", "SubgroupClosure", "closure",
    "is_generating", "is_simple_finite",
    "product_generates", "sl2_generation_report",
    "IndexedGroup",
    "RankSearchResult", "RedundancyReport", "SearchLimits", "WitnessSearchResult",
    "irredundant_witness", "is_redundant",
    "max_irredundant_size", "z_witness",
    "NielsenMove", "OrbitReport", "OrbitStatistics", "all_moves",
    "is_nielsen_redundant", "mu_rank", "orbit_statistics",
    "DenominatorClash", "DensityCertificate", "Evidence", "PlanConfig", "PrimePlan",
    "RationalMatrix", "RationalTuple", "assess_irredundancy",
    "assess_nielsen_irredundancy", "certify_density",
    "deserialize_certificate", "plan_primes", "reduce_matrix_mod_p",
    "reduce_tuple_mod_p", "replay_certificate", "serialize_certificate",
]

__version__ = "0.1.0"
