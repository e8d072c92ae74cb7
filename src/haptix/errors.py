"""Exception hierarchy shared across the package.

DataError subclasses map to CLI exit code 2, NumericalError to exit code 3.
"""


class HaptixError(Exception):
    """Base class for all package errors."""


class DataError(HaptixError):
    """Invalid, inconsistent, or insufficient input data."""


class MalformedRecord(DataError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class UnknownFoodItem(DataError):
    def __init__(self, name: str):
        super().__init__(f"food item {name!r} is not in the 12-item table")
        self.name = name


class EmptyDataset(DataError):
    pass


class DegenerateStream(DataError):
    pass


class NoContact(DataError):
    pass


class EmptyTrainingSet(DataError):
    pass


class MissingClass(DataError):
    def __init__(self, label):
        super().__init__(f"no training data for class {label}")
        self.label = label


class SingleClassData(DataError):
    pass


class TooFewTrials(DataError):
    def __init__(self, group, needed: int, present: int):
        super().__init__(f"group {group} has {present} trials, need at least {needed}")
        self.group = group
        self.needed = needed
        self.present = present


class DegenerateGroups(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class NumericalError(HaptixError):
    """Numerical failure during training or evaluation."""


class NonFiniteLoss(NumericalError):
    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.value = value
