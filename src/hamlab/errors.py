"""Exception types and enumeration guard rails shared across the package."""

DEFAULT_VERTEX_CAP = 10_000_000
# the oracles' defaults: subset and function searches grow exponentially in
# the vertex count, the all-pairs metrics oracle quadratically
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
    """Raise before enumerating base**exponent items past the cap, or words
    of more than cap letters: with one value per letter the count stays 1
    while the work still grows with the word length."""
    if power_exceeds(base, exponent, cap):
        raise ResourceLimitError(
            f"enumerating {base}^{exponent} {what} exceeds the configured cap of {cap}"
        )
    if exponent > cap:
        raise ResourceLimitError(
            f"enumerating {what} of {exponent} coordinates exceeds the configured cap of {cap}"
        )
