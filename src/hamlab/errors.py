"""Exception types and enumeration guard rails shared across the package."""

from dataclasses import dataclass

DEFAULT_VERTEX_CAP = 10_000_000
# the oracles' defaults: subset and function searches grow exponentially in
# the vertex count; the metrics oracle's cap bounds its word table, one tuple
# per vertex, and its (m-1)n neighbour lookups per vertex
DEFAULT_ORACLE_VERTEX_CAP = 32
DEFAULT_ORACLE_METRICS_CAP = 10_000
DEFAULT_SUBSET_CAP = 1_000_000
DEFAULT_FUNCTION_CAP = 1_000_000


class InvalidInputError(ValueError):
    """Arguments violate a documented precondition."""


class ResourceLimitError(RuntimeError):
    """An operation would enumerate past its configured cap."""


class ContractViolationError(RuntimeError):
    """A guaranteed internal invariant failed to hold."""


class BoundNotApplicableError(ValueError):
    """A bound formula was evaluated outside its valid range."""


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits enforced before any enumeration begins."""

    max_vertices: int = DEFAULT_ORACLE_VERTEX_CAP
    max_subsets: int = DEFAULT_SUBSET_CAP
    max_functions: int = DEFAULT_FUNCTION_CAP

    def __post_init__(self) -> None:
        if min(self.max_vertices, self.max_subsets, self.max_functions) <= 0:
            raise InvalidInputError("budget limits must be positive")


def power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """Whether base**exponent > limit, for exponent >= 0 and any integer base.

    Bit lengths decide first, so the power is only computed when it has at
    most about twice the bits of the limit; a huge exponent never hangs.
    """
    if base < 0 and exponent % 2:  # -(|base|^exponent) > limit iff |base|^exponent < -limit
        return not power_exceeds(-base, exponent, -limit - 1)
    base = abs(base)
    if base < 2:  # 0^0 = 1^e = 1, and 0^e = 0 for e > 0
        return (base if exponent else 1) > limit
    if exponent * (base.bit_length() - 1) > max(limit, 0).bit_length():
        return True
    return base ** exponent > limit


def item_count(values) -> int:
    """len(values), counted from the bounds for a range: ``len`` of a range
    overflows past ``sys.maxsize``."""
    if isinstance(values, range):
        return max(-((values.start - values.stop) // values.step), 0)
    return len(values)


def check_enumeration(base: int, exponent: int, cap: int, what: str = "vertices") -> None:
    """Raise before building or loading base**exponent items past the cap,
    or words of more letters than the cap has bits: on a one-value alphabet
    the count stays 1 while the work grows with the word length, and for
    base >= 2 a count within the cap already keeps the length below that.
    Measuring an object already in memory needs no check."""
    if power_exceeds(base, exponent, cap):
        raise ResourceLimitError(
            f"enumerating {base}^{exponent} {what} exceeds the configured cap of {cap}"
        )
    if exponent > cap.bit_length():
        raise ResourceLimitError(
            f"enumerating {what} of {exponent} coordinates exceeds the limit of "
            f"{cap.bit_length()} that the configured cap of {cap} sets"
        )
