"""Exception hierarchy for the repro (PartIR reproduction) library."""


class ReproError(Exception):
    """Base class for all library errors."""


class TypeInferenceError(ReproError):
    """An operation was built with operands whose types do not check."""


class VerificationError(ReproError):
    """A module or function failed IR verification."""


class TraceError(ReproError):
    """The Python tracer was used incorrectly (e.g. leaked tracer)."""


class ShardingError(ReproError):
    """An invalid sharding action was requested (e.g. indivisible dim)."""


class LoweringError(ReproError):
    """Core -> SPMD lowering failed."""


class ExecutionError(ReproError):
    """The interpreter or SPMD executor failed."""
