"""Exception hierarchy shared by all goodfilt modules.

The CLI maps these onto exit codes: singular-weight rejections exit 3,
internal invariant violations exit 4, and every other error of this
package, or an ``OSError`` on a ``--cache`` path, exits 2.
"""


class GoodfiltError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GoodfiltError):
    """Invalid series/rank pair, bad variant name, bad prime, or mismatched inputs."""


class DimensionMismatchError(GoodfiltError):
    """A weight vector has the wrong number of coordinates for its root system."""


class PreconditionError(GoodfiltError):
    """An operation's documented precondition (e.g. dominance) was violated."""


class SingularWeightError(GoodfiltError):
    """A weight failed p-regularity.

    Carries the offending coroot and the vanishing pairing so callers can
    report exactly which affine wall the shifted weight sits on.
    """

    def __init__(self, weight, coroot, pairing, p):
        self.weight = tuple(weight)
        self.coroot = tuple(coroot)
        self.pairing = pairing
        self.p = p
        super().__init__(
            f"weight {self.weight} is p-singular for p={p}: "
            f"pairing {pairing} with coroot {self.coroot} is divisible by {p}"
        )


class DecompositionError(GoodfiltError):
    """No (or no unique) finite-Weyl decomposition mu = w.0 + p*xi exists."""


class CacheFormatError(GoodfiltError):
    """A persisted KL table failed header or invariant validation."""


class InternalInvariantError(GoodfiltError):
    """A 'cannot happen' condition happened; indicates a bug, not bad input."""
