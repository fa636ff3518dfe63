"""Network realization functions for distributed LTI control.

The modules layer bottom-up: ratmat (rational matrices), sstate (state-space
realizations), factor (doubly coprime factorizations and Youla shifts),
nrfsyn (NRF extraction, sparsity correspondence, instability certificates),
dimpl (row-by-row distributed realization and closed-loop verification),
simkit (scenario simulation), cli (file-based command frontend).
"""

from .factor import DoublyCoprime, YoulaShift, dcf_from_ss, place_gains, youla_shift
from .nrfsyn import NrfPair, nrf_from_dcf, sparsity_correspondence
from .ratmat import (
    Polynomial,
    RationalFunction,
    RationalMatrix,
    StabilityDomain,
)
from .sstate import StateSpace

__version__ = "0.1.0"

__all__ = [
    "DoublyCoprime",
    "NrfPair",
    "Polynomial",
    "RationalFunction",
    "RationalMatrix",
    "StabilityDomain",
    "StateSpace",
    "YoulaShift",
    "dcf_from_ss",
    "nrf_from_dcf",
    "place_gains",
    "sparsity_correspondence",
    "youla_shift",
    "__version__",
]
