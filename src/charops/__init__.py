"""charops: exact power operations on generalized class functions.

Commuting tuples in finite groups and their wreath products carry power
operations, Adams operations, and Hecke-type operators; this package
implements them at height 1 (complex coefficients) and height 2
(weight-graded lattice-function coefficients), together with brute-force
oracles that verify every formula at desk scale.
"""

from .groups import (
    CommutingTuple,
    FiniteGroup,
    GroupError,
    GroupHomomorphism,
    GSet,
    WreathGroup,
    build_group,
    commuting_tuples,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixed_points,
    gl_act_on_tuple,
    perm_group,
    quaternion_group,
    symmetric_group,
    tuple_conjugacy_classes,
    wreath,
)
from .lattices import (
    LatticeError,
    Sublattice,
    hnf,
    stabilizer_lattice,
    sublattices_of_index,
)
from .orbits import OrbitReduction, cycle_product, fixed_point_transport, reduce_tuple
from .coefficients import (
    DEFAULT_TAU_SAMPLES,
    GradedValue,
    LatFunction,
    eisenstein_series,
    graded_product,
    scale_by_degree,
    weight_slash_graded,
)
from .classfn import (
    ClassFunction,
    add,
    external_product,
    multiply,
    restrict_along,
    wreath_block_inclusion,
    wreath_composition_inclusion,
    wreath_diagonal,
)
from .powerops import (
    adams,
    adams_via_power,
    hecke_like,
    power_operation,
    pseudo_power_etheory,
)
from .reporacle import (
    Representation,
    adams_character_check,
    character,
    compare_with_geometric,
    tensor_power_trace,
)

__version__ = "0.1.0"
