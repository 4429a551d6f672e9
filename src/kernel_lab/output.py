"""Deterministic experiment artifacts: RFC 4180 CSV tables and JSON summaries.

Floats are printed with 17 significant digits (round-trip exact for doubles)
so identical runs produce byte-identical files; writes go through a temporary
file in the target directory followed by an atomic rename.  JSON is strict
(RFC 8259): a NaN or infinity in the payload is a ValueError, not a token.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _atomic_write(path: str, write_body) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    def body(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])

    _atomic_write(path, body)


def write_json(path: str, payload: dict) -> None:
    # one string, one write: json.dump would write each token on its own
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))
