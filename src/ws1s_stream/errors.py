"""Exception types shared across the package."""


class WsError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(WsError):
    """Input text is not a well-formed formula.

    Positions are 1-based; ``col`` points at the offending token (or one
    past the end of input for truncated formulas).
    """

    def __init__(self, line: int, col: int, expected: str, found: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        detail = f"expected {expected}"
        if found is not None:
            detail += f", found {found!r}"
        super().__init__(f"{line}:{col}: {detail}")


class KindError(WsError):
    """A first-order variable was used in a second-order position or vice versa."""


class KindConflict(WsError):
    """The same variable name was declared with two different kinds."""


class TrackKindConflict(WsError):
    """Two automata disagree on the kind of a shared track index."""


class UnknownTrack(WsError):
    """An operation referenced a track the automaton does not carry."""


class ArityMismatch(WsError):
    """A word symbol does not have one bit per automaton track."""


class UnboundTrack(WsError):
    """A formula variable has no track assigned in the registry."""


class StateBudgetExceeded(WsError):
    """A construction or search would exceed its configured state cap."""

    def __init__(self, limit: int, where: str = ""):
        self.limit = limit
        suffix = f" during {where}" if where else ""
        super().__init__(f"state budget of {limit} exceeded{suffix}")


class EnumerationBudgetExceeded(WsError):
    """A brute-force enumeration would visit too many configurations."""


class UnassignedVariable(WsError):
    """An interpretation does not assign a free variable of the formula."""


class ModeDisagreement(WsError):
    """Incremental and from-scratch runs produced different verdicts."""
