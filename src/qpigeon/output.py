"""Text output: CSV and JSON rendering and the atomic file write.

Every float is printed with 12 significant digits, in CSV cells and in
JSON documents alike; CSV booleans read ``true``/``false`` as in JSON.
This module needs only the standard library.
"""

import json
import os
import sys


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _round12(obj):
    """Floats rounded to 12 significant digits, through dicts, lists and tuples."""
    if isinstance(obj, float):
        return float(_cell(obj))
    if isinstance(obj, dict):
        return {key: _round12(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(value) for value in obj]
    return obj


def csv_text(header, rows) -> str:
    """CSV with the given column names, then one line per row; no quoting."""
    lines = [",".join(header)]
    lines += [",".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """The payload as indented JSON with its floats rounded, ending in a newline."""
    return json.dumps(_round12(payload), indent=2) + "\n"


def emit(text: str, path: str | None) -> None:
    """Write text to stdout, or atomically to ``path`` when one is given."""
    if path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def render(text_format: str, header, rows, payload, path: str | None) -> None:
    """Emit the rows as CSV when ``text_format`` is "csv", else the payload as JSON."""
    emit(csv_text(header, rows) if text_format == "csv" else json_text(payload), path)


def write_text_atomic(path: str, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file and atomic rename.

    It is created like ``open`` creates a file (mode 0o666 less the umask)
    and reaches the disk (fsync) before the rename, its directory entry after.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".qpigeon-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
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
