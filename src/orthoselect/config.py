"""The selection method's tunable scalars and their defaults.

Stated with `math` alone, so the CLI's flag tables read these defaults
without loading numpy; `selection` re-exports all three names.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput

#: First branch of the kappa formula, the constant 4 e^{-2(ln 2 - 1)}, and
#: the default outer-set inflation factor; `analytic` re-exports it.
KAPPA_BRANCH_CONSTANT = 4.0 * math.exp(-2.0 * (math.log(2.0) - 1.0))
DEFAULT_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class SelectionConfig:
    """Tunable scalars of the selection method."""

    s: int
    rho_minus: float = 0.5
    kappa: float = KAPPA_BRANCH_CONSTANT
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self) -> None:
        if self.s < 1:
            raise InvalidInput("target cardinality s must be at least 1")
        if not 0.0 < self.rho_minus < 1.0:
            raise InvalidInput("rho_minus must lie in (0, 1)")
        if not (math.isfinite(self.kappa) and self.kappa >= 1.0):
            raise InvalidInput("kappa must be finite and at least 1")
        if self.max_attempts < 1:
            raise InvalidInput("max_attempts must be at least 1")

    def outer_size(self, p: int) -> int:
        """m = min(ceil(kappa*s), floor(p/2))."""
        return min(math.ceil(self.kappa * self.s), p // 2)
