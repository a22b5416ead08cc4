"""Exception types shared across the package."""


class PolyominoError(Exception):
    """Base class for all library errors."""


class EmptyInputError(PolyominoError):
    pass


class NotConnectedError(PolyominoError):
    """Raised when a cell set splits into several edge-connected components."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(
            "cells do not form a connected polyomino "
            f"({len(self.components)} components)"
        )


class BadCharacterError(PolyominoError):
    pass


class CellNotInPolyominoError(PolyominoError):
    pass


class NotALeafError(PolyominoError):
    pass


class ZeroLabelingError(PolyominoError):
    pass


class NotAdmissibleError(PolyominoError):
    pass


class NotTreeLikeError(PolyominoError):
    pass


class NotBalancedError(PolyominoError):
    pass


class InvalidCountError(PolyominoError):
    pass


class StepLimitExceededError(PolyominoError):
    """A search passed the configured step cap: S-pairs popped by a
    Buchberger run, or path extensions of the chordless-cycle search."""
