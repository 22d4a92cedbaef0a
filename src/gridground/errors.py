"""Exception types shared across the package.

Everything raised on purpose derives from GridGroundError so callers can
catch package failures with a single except clause.
"""


class GridGroundError(Exception):
    """Base class for all errors raised by this package."""


# --- map parsing and generation ---

class MapFormatError(GridGroundError):
    """A map text did not conform to the ASCII map format."""


class MalformedHeader(MapFormatError):
    pass


class RaggedRows(MapFormatError):
    pass


class UnknownCharacter(MapFormatError):
    pass


class InvalidDensity(GridGroundError):
    pass


class OutOfBounds(GridGroundError):
    pass


# --- planners ---

class InvalidEndpoint(GridGroundError):
    """Start or goal is out of bounds or not a free cell."""


class InvalidParams(GridGroundError):
    pass


# --- scorer backends (remote failures are all ScorerFailure subclasses) ---

class ScorerFailure(GridGroundError):
    """A task-scorer backend could not produce usable scores."""


class ScorerTimeout(ScorerFailure):
    pass


class AuthMissing(ScorerFailure):
    pass


class RetriesExhausted(ScorerFailure):
    pass


class MalformedReply(ScorerFailure):
    """A model reply did not match the reply grammar.

    Carries the raw reply text so callers can log what the model actually said.
    """

    def __init__(self, message: str, reply: str | None = None):
        super().__init__(message)
        self.reply = reply


# --- prompt rendering ---

class OverlappingMarkers(GridGroundError):
    """Robot and goal markers would occupy the same cell in a rendered map."""


# --- simulator / benchmark / cli ---

class InvalidScenario(GridGroundError):
    pass


class UnknownPlanner(GridGroundError):
    pass


class ConfigError(GridGroundError):
    pass
