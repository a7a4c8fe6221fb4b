"""Reading of input files.

A missing, unreadable or non-UTF-8 input is a FileFormatError, so the CLI
reports it as a validation error (exit code 1) rather than a traceback.

A text file may begin with a UTF-8 byte-order mark, as some editors write
it. `read_lines` drops one U+FEFF at offset 0: there it is the Unicode
signature, not content, and kept it would make the first record unreadable
(an OBJ's first `v` would read as an unknown tag). A U+FEFF anywhere else
is content, and stays. Line numbers do not change, and a run manifest's
input digest is still taken over the file's raw bytes (`read_bytes`).
"""

from __future__ import annotations

import io

from .errors import FileFormatError


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(path, None, f"cannot open file: {exc}")


def read_lines(path) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) of each line of a UTF-8 text file
    that is neither blank nor a '#' comment; a leading byte-order mark is
    dropped (see the module docstring)."""
    data = read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, data.count(b"\n", 0, exc.start) + 1,
                              f"not UTF-8 text: byte {data[exc.start]:#04x} "
                              f"({exc.reason})")
    text = text.removeprefix("\ufeff")
    lines = []
    # newline=None splits on \n, \r\n and \r, as reading a text file does
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, line))
    return lines
