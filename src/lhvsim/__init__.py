"""Classical simulation of projective measurements on entangled qubit pairs.

Monte Carlo implementations of local-hidden-variable + one-way-communication
protocols, certified against an exact Born-rule oracle.

``import lhvsim`` loads only the two-qubit math and the setting grids
(``bloch``) and the error types.  The simulator, the certifier and the wire
layer load on the first use of a name they define (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

from .bloch import (
    State,
    born_joint,
    born_joint_closed,
    chsh_value,
    collapse,
    default_setting_pairs,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    ProtocolViolationError,
    TransportError,
    ValidationError,
)

# name -> the submodule that defines it, imported on the name's first use
_LAZY = {
    "ProtocolId": "protocols",
    "simulate": "protocols",
    "n_of_p": "sampling",
    "verification_report": "verify",
    "audit_transcript": "wire",
    "run_networked": "wire",
}
_SUBMODULES = ("protocols", "sampling", "verify", "wire")

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


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # the names an eager import of every submodule would give, and no hook
    names = set(globals()) | set(_LAZY) | set(_SUBMODULES)
    return sorted(names - {"import_module", "_LAZY", "_SUBMODULES", "__getattr__", "__dir__"})
