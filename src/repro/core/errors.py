"""Exception hierarchy for the TACOMA reproduction.

Every error raised by the library derives from :class:`TacomaError`, so a
caller can catch the whole family with one ``except`` clause.  Subsystems
define narrower classes here rather than in their own modules so the
hierarchy is visible in one place.
"""

from __future__ import annotations


class TacomaError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Core data-structure errors
# ---------------------------------------------------------------------------

class FolderError(TacomaError):
    """A folder operation failed (bad element type, empty pop, ...)."""


class EmptyFolderError(FolderError):
    """Attempted to pop or peek an element from an empty folder."""


class BriefcaseError(TacomaError):
    """A briefcase operation failed."""


class MissingFolderError(BriefcaseError, KeyError):
    """The briefcase (or cabinet) does not contain the requested folder."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep a readable message
        return Exception.__str__(self)


class CabinetError(TacomaError):
    """A file-cabinet operation failed."""


class StoreError(TacomaError):
    """A durable-store operation failed (bad policy, recovery misuse, ...)."""


# ---------------------------------------------------------------------------
# Codec / code-shipping errors
# ---------------------------------------------------------------------------

class CodecError(TacomaError):
    """Serialisation or deserialisation of agent code/state failed."""


class UnknownBehaviourError(CodecError):
    """A CODE folder referenced a behaviour that is not registered."""


class CodeCompilationError(CodecError):
    """Shipped source code could not be compiled at the destination site."""


# ---------------------------------------------------------------------------
# Kernel / runtime errors
# ---------------------------------------------------------------------------

class KernelError(TacomaError):
    """The kernel could not satisfy a request."""


class UnknownSiteError(KernelError):
    """A request referred to a site that is not part of the system."""


class UnknownAgentError(KernelError):
    """A request referred to an agent name or id that is not known."""


class SiteDownError(KernelError):
    """The target site has crashed and cannot run agents or accept messages."""


class MeetError(KernelError):
    """A meet operation could not be carried out."""


class SyscallError(KernelError):
    """An agent yielded a malformed or disallowed syscall."""


# ---------------------------------------------------------------------------
# Network errors
# ---------------------------------------------------------------------------

class NetworkError(TacomaError):
    """A network-level operation failed."""


class NoRouteError(NetworkError):
    """There is no usable path between two sites (partition or missing link)."""


class TransportError(NetworkError):
    """A transport could not deliver a message."""


# ---------------------------------------------------------------------------
# Electronic cash errors
# ---------------------------------------------------------------------------

class CashError(TacomaError):
    """An electronic-cash operation failed."""


class InvalidECUError(CashError):
    """An ECU record failed validation (forged, retired, or double spent)."""


class InsufficientFundsError(CashError):
    """A wallet does not hold enough valid ECUs for the requested payment."""


# ---------------------------------------------------------------------------
# Scheduling errors
# ---------------------------------------------------------------------------

class SchedulingError(TacomaError):
    """A broker/scheduling operation failed."""


class NoProviderError(SchedulingError):
    """No service provider is registered for the requested service."""


class TicketError(SchedulingError):
    """A ticket was missing, expired, or forged."""


# ---------------------------------------------------------------------------
# Fault-tolerance errors
# ---------------------------------------------------------------------------

class FaultToleranceError(TacomaError):
    """A rear-guard / recovery operation failed."""
