"""Text output: a command's one document, rendered as it is written, and the atomic file write.

Every float is printed with 12 significant digits, in CSV cells and in JSON
documents alike, rounded as it is encoded; CSV booleans read ``true``/``false``
as in JSON.  This module needs only the standard library.
"""

import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator

# the texts json writes for the floats that have no number form
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_DEFAULT = json.JSONEncoder().default


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_float(value: float) -> str:
    """The JSON text of ``value`` rounded to 12 significant digits."""
    text = format(value, ".12g")
    return _NON_FINITE.get(text) or repr(float(text))


def csv_lines(header, rows) -> Iterator[str]:
    """CSV with the given column names, then one line per row as it is made; no quoting."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_cell(value) for value in row) + "\n"


def json_chunks(payload) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` with each float rounded, float keys too, in pieces, then a newline."""
    encode = json.encoder._make_iterencode(
        {}, _DEFAULT, json.encoder.encode_basestring_ascii, "  ", _json_float, ": ", ",", False, False, False)
    return itertools.chain(encode(payload, 0), "\n")


def json_text(payload) -> str:
    """The text of ``json_chunks(payload)``."""
    return "".join(json_chunks(payload))


def emit(text_format: str, header, rows: Iterable, payload: Callable[[], object], path: str | None) -> None:
    """Write the rows as CSV, ``payload()`` as JSON or the rows as text, to stdout or atomically to ``path``."""
    if text_format == "csv":
        chunks = csv_lines(header, rows)
    elif text_format == "json":
        chunks = json_chunks(payload())
    else:
        chunks = rows
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        write_text_atomic(path, chunks)


def write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks``, the pieces of a text in order, to ``path`` via a same-directory temp file and atomic rename.

    It is created like ``open`` creates a file (mode 0o666 less the umask)
    and reaches the disk (fsync) before the rename, its directory entry after.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qpigeon-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
