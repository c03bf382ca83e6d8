"""Exception hierarchy shared across the package.

Transaction validation errors carry the name of the first rule that failed;
higher layers catch ``ValidationError`` subclasses and record them in reports
instead of crashing the event loop.
"""


class SensorMarketError(Exception):
    """Base class for every error raised by this package."""


# --- transaction / block validation -----------------------------------------

class ValidationError(SensorMarketError):
    """A transaction or block violated a consensus rule."""


class MalformedTx(ValidationError):
    pass


class MissingUtxo(ValidationError):
    pass


class BadSignature(ValidationError):
    pass


class InsufficientSigners(ValidationError):
    pass


class TimelockNotExpired(ValidationError):
    pass


class OracleSignatureMissing(ValidationError):
    pass


class NegativeFee(ValidationError):
    pass


class BadParent(ValidationError):
    pass


class InvalidTxInBlock(ValidationError):
    pass


class Conflict(ValidationError):
    """Mempool rejection: spends an outpoint already claimed by a first-seen tx."""


# --- wallets and actors -----------------------------------------------------

class InsufficientFunds(SensorMarketError):
    pass


class NoSensorFunds(SensorMarketError):
    """Sensor lacks the dust reserve needed to pay a delivery fee."""


class DecryptFailed(SensorMarketError):
    pass


class AnchorMismatch(SensorMarketError):
    pass


# --- channels ---------------------------------------------------------------

class InsufficientChannelBalance(SensorMarketError):
    pass


class AlreadyClosed(SensorMarketError):
    pass


class ExpiryPassed(SensorMarketError, ValueError):
    """A channel opened at or past its own expiry height: a bad argument, so
    also a ValueError."""


# --- contracts --------------------------------------------------------------

class InsufficientPledges(SensorMarketError):
    def __init__(self, shortfall: int):
        super().__init__(f"pledges fall short of goal by {shortfall}")
        self.shortfall = shortfall


class DoubleSpentPledge(SensorMarketError):
    pass


class UnknownExpression(SensorMarketError):
    pass


# --- registry ---------------------------------------------------------------

class UnknownName(SensorMarketError):
    pass


# --- datastore --------------------------------------------------------------

class ReplicationUnsatisfiable(SensorMarketError):
    pass


# --- scenarios / CLI --------------------------------------------------------

class ParseError(SensorMarketError):
    pass
