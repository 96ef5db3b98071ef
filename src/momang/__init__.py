"""Moment-angle manifold toolkit.

Constructs and validates complex and quaternionic moment-angle manifolds
from combinatorial input (simple polytope plus characteristic data),
computes the characteristic classes of their kernel bundles, and decides
equivariant-homeomorphism questions, with exact cellular homology of the
moment-angle manifolds for verification.
"""

from .combinatorics import (SimplePolytopeData, SimplicialComplexData,
                            automorphisms, dual_complex, enumerate_faces,
                            isomorphisms, minimal_non_faces, simple_polytope,
                            simplicial_complex)
from .intlat import (AbelianGroupInvariants, SmithDecomposition,
                     hermite_row_form, kernel_basis, maximal_minor_gcd,
                     smith_normal_form)
from .charpair import (CharacteristicMatrix, QuaternionicIsotropyFunctor,
                       characteristic_matrix, from_columns, isotropy_functor,
                       validate_characteristic_pair, validate_global,
                       validate_quaternionic_functor)
from .moment_angle import (COMPLEX, QUATERNIONIC, dimension, dimension_report,
                           homology)
from .cohomology import (facet_class, graded_component, multiply,
                         quasitoric_presentation, sr_presentation,
                         total_chern_class)
from .bundles import kernel_chern_classes, quaternionic_primary_tuple
from .classify import (compare_kernel_bundles, equivalent_pairs,
                       rigidity_verdict_complex, rigidity_verdict_quaternionic)

__version__ = "0.1.0"
