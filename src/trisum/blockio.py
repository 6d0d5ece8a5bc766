"""Block-wise reading and writing of text files of integer rows.

Edge lists ("u v") and weightings ("u v w") hold one row of integers per
line, with blank lines and '#' comment lines allowed. A file is read as
one string, so that a decoding error names its position in the whole
file, and handled in blocks of about BLOCK_ROWS lines: one block is
split into tokens by one `str.split`, converted by one `map(int, ...)`
and checked by array operations. `int_rows` gives up (returns None) on
any block it cannot take whole; the caller then reads that block line by
line, which is where every error message is worded. Writing formats a
block of rows with one `%` operation.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

BLOCK_ROWS = 1 << 16
BLOCK_CHARS = 8 * BLOCK_ROWS

# ASCII characters that str.split() treats as whitespace, and the subset
# that str.splitlines() treats as line breaks.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_BREAK = np.zeros(256, dtype=bool)
_BREAK[[10, 11, 12, 13, 28, 29, 30]] = True


def text_blocks(text: str) -> Iterator[tuple[int, str]]:
    """Yield (offset, block): consecutive pieces of text, each at least
    BLOCK_CHARS characters long (bar the last) and ending after a newline.

    Cutting after a newline never splits a line or a "\\r\\n" pair, so the
    blocks' `splitlines()` together are the text's `splitlines()`.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield start, text[start:end]
        start = end


def first_line_no(text: str, offset: int) -> int:
    """1-based number of the line starting at offset, a block start."""
    return len(text[:offset].splitlines()) + 1


def split_comments(block: str) -> tuple[str, list[str]]:
    """The block without its '#' lines, and those lines, stripped."""
    if "#" not in block:
        return block, []
    kept, comments = [], []
    for line in block.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            comments.append(stripped)
        else:
            kept.append(line)
    return "\n".join(kept), comments


def int_rows(block: str, k: int) -> np.ndarray | None:
    """The (rows, k) int64 array of a block whose every line is blank or
    holds k tokens that int() accepts and int64 holds; None otherwise.

    Only ASCII blocks are taken: their line structure is read from the
    bytes, so each line's token count is checked without a loop.
    """
    if not block.isascii():
        return None
    raw = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    space = _SPACE[raw]
    starts = ~space
    starts[1:] &= space[:-1]
    line_of = np.searchsorted(np.flatnonzero(_BREAK[raw]), np.flatnonzero(starts))
    per_line = np.bincount(line_of)
    if not ((per_line == 0) | (per_line == k)).all():
        return None
    try:
        values = np.array(list(map(int, block.split())), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    return values.reshape(-1, k)


def format_rows(rows: np.ndarray) -> Iterator[str]:
    """Lines of space-separated integers, one per row, in blocks of
    BLOCK_ROWS rows."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        yield (line * block.shape[0]) % tuple(block.ravel().tolist())
