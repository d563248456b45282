"""goodfilt: exact affine Kazhdan-Lusztig combinatorics for good-filtration
multiplicities of Frobenius-kernel Ext groups between Weyl-type modules.

Each name below is imported from its module on first access (PEP 562), so
``import goodfilt.characters`` loads no other layer than it needs, and a
process that only decomposes tensor products loads no affine or KL code.
"""

from importlib import import_module

_EXPORTS = {  # module: the names re-exported from it
    "affine": "AffineWeylGroup AlcoveLocation get_group restricted_decompose",
    "characters": "dim_nabla dim_weight_space multi_tensor_nabla_multiplicities "
    "tensor_nabla_multiplicities weight_multiplicities",
    "errors": "CacheFormatError ConfigurationError DecompositionError DimensionMismatchError "
    "GoodfiltError InternalInvariantError PreconditionError SingularWeightError",
    "extmult": "MultiplicityQuery MultiplicityTable Workspace big_C "
    "ext_dim_G_red_red make_workspace multiplicity_table "
    "weight_space_identity_check small_c",
    "klpoly": "KLTable",
    "roots": "PrimeReport Root RootSystem build_root_system dominance_leq in_jantzen_region "
    "is_dominant is_restricted jantzen_bound pair star validate_p",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
