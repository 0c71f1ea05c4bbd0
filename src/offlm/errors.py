"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
ShapeError / NumericError -> 4.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ToolkitError):
    """Invalid configuration or violated call contract."""


class DataError(ToolkitError):
    """Malformed input data (corpus rows, vocab files, mapping files)."""


class ShapeError(ToolkitError):
    """Tensor shape mismatch; the message names the offending shapes."""


class NumericError(ToolkitError):
    """Non-finite values or a degenerate numeric condition."""


def not_utf8(path) -> DataError:
    """The DataError for a file that is not UTF-8, naming the line of its
    first undecodable byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        return DataError(f"{path}:{line}: not UTF-8 ({e.reason} at byte {e.start})")
    return DataError(f"{path}: not UTF-8")
