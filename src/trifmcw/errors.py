"""Exception types shared across the package, and the input-text reader."""

from pathlib import Path


class ConfigError(ValueError):
    """A waveform, channel or scenario configuration violates an invariant."""


class GridAlignmentError(ConfigError):
    """A channel tap delay does not land on the sample grid."""


def read_utf8(path: Path) -> str:
    """The text of ``path``, or ConfigError naming the line of a byte that is not UTF-8.

    A leading byte-order mark, as some editors save UTF-8, is dropped after
    the decode, so the error's byte position is an offset in the file.
    """
    try:  # one decode call: exc.object is the whole file
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc})") from None
    return text.removeprefix("\ufeff")
