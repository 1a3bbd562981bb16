"""Shared exception types raised across the simulator."""


class HexsimError(Exception):
    """Base class for every error raised by this package."""


# -- slice / context store -------------------------------------------------

class SliceModelError(HexsimError):
    pass


class DuplicateSliceId(SliceModelError):
    pass


class DuplicateDrb(SliceModelError):
    pass


class DuplicateUe(SliceModelError):
    pass


class UnknownSlice(SliceModelError):
    pass


class UnknownDrb(SliceModelError):
    pass


class UnknownUe(SliceModelError):
    pass


class UnknownId(SliceModelError):
    """A snapshot or control target does not exist."""


class InvalidResourceConfig(SliceModelError):
    """Radio resource fields do not match the requested slice state."""


class OverSubscription(SliceModelError):
    """Dedicated + prioritized resource blocks would exceed the cell total."""


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


class ValidationFailed(PmlError):
    pass


class BadPeriod(PmlError):
    pass


# -- wire protocol ---------------------------------------------------------

class CodecError(HexsimError):
    pass


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


class UnknownFunction(CodecError):
    pass


class SchemaViolation(CodecError):
    pass


# -- agent -----------------------------------------------------------------

class AgentError(HexsimError):
    pass


class MalformedConfig(AgentError):
    pass


class NotActivated(AgentError):
    pass


class ResourceLockedByOther(AgentError):
    pass


class LinkLost(AgentError):
    """The call's link detached before it completed."""


# -- simulators / harness ----------------------------------------------------

class UnknownChain(HexsimError):
    pass


class ScenarioError(HexsimError):
    pass
