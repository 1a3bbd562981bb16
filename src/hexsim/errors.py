"""Shared exception types raised across the simulator."""


class HexsimError(Exception):
    """Base class for every error raised by this package."""

    cause = None
    """The failure cause the agent answers this error with on the wire (see
    :func:`hexsim.agent.failure_cause`). A subclass inherits its parent's;
    None answers ``error:<class name>``."""


# -- slice / context store -------------------------------------------------

class SliceModelError(HexsimError):
    pass


class DuplicateSliceId(SliceModelError):
    pass


class DuplicateDrb(SliceModelError):
    pass


class DuplicateUe(SliceModelError):
    pass


class UnknownId(SliceModelError):
    """A slice, bearer or UE that a call names does not exist."""

    cause = "unknown_id"


class InvalidResourceConfig(SliceModelError):
    """Radio resource fields do not match the requested slice state."""

    cause = "validation_failed"


class OverSubscription(SliceModelError):
    """Dedicated + prioritized resource blocks would exceed the cell total."""

    cause = "oversubscription"


# -- scheduler -------------------------------------------------------------

class SchedulerError(HexsimError):
    pass


class InfeasibleSnapshot(SchedulerError):
    """Defensive: the slice snapshot handed to stage 1 breaks the RB-sum invariant."""


class AlgorithmContractViolation(SchedulerError):
    """A per-slice algorithm returned more RBs than its budget or a DRB's demand."""


# -- mediation layer -------------------------------------------------------

class PmlError(HexsimError):
    pass


class DuplicateApi(PmlError):
    pass


class UnknownApi(PmlError):
    pass


class LockedOut(PmlError):
    """The parameter path was written by a different caller inside the lockout window."""

    cause = "locked_out"


class ValidationFailed(PmlError):
    cause = "validation_failed"


class BadPeriod(PmlError):
    cause = "bad_period"


# -- wire protocol ---------------------------------------------------------

class CodecError(HexsimError):
    cause = "codec"


class BadMagic(CodecError):
    pass


class BadVersion(CodecError):
    pass


class ShortFrame(CodecError):
    pass


class FrameTooLarge(CodecError):
    """A frame declares a payload longer than ``e2lite.MAX_FRAME``."""


class BadJson(CodecError):
    pass


class SchemaViolation(CodecError):
    cause = "schema_violation"


# -- agent -----------------------------------------------------------------

class AgentError(HexsimError):
    pass


class MalformedConfig(AgentError):
    pass


class NotActivated(AgentError):
    cause = "not_activated"


class ResourceLockedByOther(AgentError):
    cause = "resource_locked"


class LinkLost(AgentError):
    """The call's link detached before it completed."""

    cause = "link_lost"


# -- simulators / harness ----------------------------------------------------

class UnknownChain(HexsimError):
    pass


class ScenarioError(HexsimError):
    pass
