"""Desk-scale simulation of anonymous conference key agreement over GHZ states.

Subpackages: ``qsim`` (exact statevector simulation), ``netmodel`` (classical
channels + transcripts), ``protocols`` (the five protocol implementations),
``adversary`` (dishonest behaviours), ``analysis`` (statistics), ``cli``
(batch runner).
"""

from .netmodel import AdversaryView, ChannelAbort, Network, RoleAssignment, extract_view
from .protocols import (
    AmeOutcome,
    AvkaResult,
    NotificationOutcome,
    VerificationRecord,
    aka,
    ame,
    avka,
    notification,
    verification,
)
from .qsim import (
    Basis,
    NoiseEnsemble,
    StateVector,
    ghz_prime_state,
    ghz_state,
    rotated_ghz,
)
from .rng import RngBundle

__version__ = "0.1.0"

__all__ = [
    "AdversaryView",
    "AmeOutcome",
    "AvkaResult",
    "Basis",
    "ChannelAbort",
    "Network",
    "NoiseEnsemble",
    "NotificationOutcome",
    "RngBundle",
    "RoleAssignment",
    "StateVector",
    "VerificationRecord",
    "aka",
    "ame",
    "avka",
    "extract_view",
    "ghz_prime_state",
    "ghz_state",
    "notification",
    "rotated_ghz",
    "verification",
]
