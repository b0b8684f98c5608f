"""Classical simulation of projective measurements on entangled qubit pairs.

Monte Carlo implementations of local-hidden-variable + one-way-communication
protocols, certified against an exact Born-rule oracle.
"""

__version__ = "0.1.0"

from .bloch import State, born_joint, born_joint_closed, chsh_value, collapse
from .errors import (
    DomainError,
    InternalConsistencyError,
    ProtocolViolationError,
    TransportError,
    ValidationError,
)
from .protocols import ProtocolId, simulate
from .sampling import n_of_p
from .verify import default_setting_pairs, verification_report
from .wire import audit_transcript, run_networked

__all__ = [
    "State",
    "born_joint",
    "born_joint_closed",
    "chsh_value",
    "collapse",
    "ProtocolId",
    "simulate",
    "n_of_p",
    "default_setting_pairs",
    "verification_report",
    "audit_transcript",
    "run_networked",
    "DomainError",
    "InternalConsistencyError",
    "ProtocolViolationError",
    "TransportError",
    "ValidationError",
    "__version__",
]
