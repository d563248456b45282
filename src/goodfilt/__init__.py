"""goodfilt: exact affine Kazhdan-Lusztig combinatorics for good-filtration
multiplicities of Frobenius-kernel Ext groups between Weyl-type modules."""

from .affine import (
    AffineWeylGroup,
    AlcoveLocation,
    get_group,
    restricted_decompose,
)
from .characters import (
    dim_nabla,
    dim_weight_space,
    tensor_nabla_multiplicities,
    triple_tensor_nabla_multiplicities,
    weight_multiplicities,
)
from .errors import (
    CacheFormatError,
    ConfigurationError,
    DecompositionError,
    DimensionMismatchError,
    GoodfiltError,
    InternalInvariantError,
    PreconditionError,
    SingularWeightError,
)
from .extmult import (
    MultiplicityQuery,
    MultiplicityTable,
    Workspace,
    big_C,
    duality_self_test,
    ext_dim_G_red_red,
    ext_dim_pair,
    make_workspace,
    multiplicity_table,
    weight_space_identity_check,
    small_c,
)
from .klpoly import KLTable
from .roots import (
    PrimeReport,
    Root,
    RootSystem,
    build_root_system,
    dominance_leq,
    in_jantzen_region,
    is_dominant,
    is_restricted,
    jantzen_bound,
    pair,
    star,
    validate_p,
)

__version__ = "0.1.0"
