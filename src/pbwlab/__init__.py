"""pbwlab: exact PBW verification for hbar-deformed presentations.

Two independent routes to the same question.  The certificate route builds
the perturbed degree -1/-2 differentials of a Koszul-type complex and checks
that their composite vanishes; the oracle route completes the defining
relations into a confluent rewriting system up to a degree bound and compares
filtration dimensions with those of the symmetric algebra.
"""

__version__ = "0.1.0"

from .certificates import (CertificateReport, ObstructionReport, certify,
                           check_poisson, check_quadratic_condition, jacobiator,
                           obstruction)
from .cyclic import (CyclicWord, Potential, all_cuttings, cyclic_derivative,
                     potential_of, potential_to_presentation)
from .freealg import (NCPoly, commutator, hbar_coefficient, nc_mul, specialize)
from .koszul import (Differential, KoszulPoly, apply_d, d1_from_presentation,
                     d2_default, d2_lie, d2_quadratic, kterm, triples, xi3_generator)
from .presentations import (LieData, Presentation, QuadData, from_lie,
                            from_quadratic, lie_data_of, quad_data_of, validate)
from .rewriting import (HilbertReport, RewriteSystem, TorsionOutcome, build_rules,
                        hilbert, member, module_membership, torsion_check)
from .scalars import HPoly, HRat, hpoly_gcd, rational_roots
