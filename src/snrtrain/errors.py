"""Exception types shared across the toolkit, the checks that turn the
fields or payload size of an input file into typed values or a DataError,
the one reader of every text input file and the one writer of every file
the toolkit makes.

The CLI maps DataError to exit code 2 (bad input / usage) and ComputeError
to exit code 1 (numerical failure mid-run).
"""

import os

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


class DataError(ValueError):
    """Invalid input data or parameters."""


class ComputeError(RuntimeError):
    """A computation failed (non-finite loss, regeneration mismatch, ...)."""


def write_atomic(*files) -> None:
    """Write each (path, bytes) to path + ".tmp", then os.replace each tmp
    file onto its path in the order given. A process that dies at any point
    leaves every path either whole and old or whole and new."""
    for path, data in files:
        with open(f"{path}.tmp", "wb") as fh:
            fh.write(data)
    for path, _ in files:
        os.replace(f"{path}.tmp", path)


def read_payload(fh, size: int, path) -> bytes:
    """The rest of an open binary file, which must be `size` bytes long, or
    DataError naming the file, raised before a damaged count allocates."""
    present = os.fstat(fh.fileno()).st_size - fh.tell()
    if present != size:
        raise DataError(f"{path}: payload of {present} bytes, header implies {size}")
    return fh.read(size)


def read_text(path) -> str:
    """The UTF-8 text of a file, newlines translated as text mode does, or
    DataError naming the file when it does not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 text ({err})") from None


def check_keys(fields: dict, allowed, where: str) -> None:
    """DataError naming the first key of `fields` outside `allowed`."""
    for key in fields:
        if key not in allowed:
            raise DataError(f"unknown key {key!r} in {where}; "
                            f"expected one of {', '.join(allowed)}")


def field_value(fields: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """fields[key] as `kind` (int, float or str), or `default` when the key
    is absent. Text is parsed as a number (a schedule file's values are
    text); a string must already be one, a JSON true or false is no number
    and an integer refuses a fraction. Anything else raises DataError naming
    the key and `where`."""
    if key not in fields:
        if default is _REQUIRED:
            raise DataError(f"{where} needs the key {key!r}")
        return default
    value = fields[key]
    try:
        if kind is str or isinstance(value, bool):
            if type(value) is not kind:
                raise TypeError
            return value
        converted = kind(value)
        if not isinstance(value, str) and converted != value:
            raise ValueError
        return converted
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{key!r} in {where} must be {_KIND_NAMES[kind]}, "
                        f"got {value!r}") from None
