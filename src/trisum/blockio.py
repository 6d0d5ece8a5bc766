"""Block-wise reading and writing of text files of integer rows.

Edge lists ("u v") and weightings ("u v w") hold one row of integers per
line, with blank lines and '#' comment lines allowed. A file is read as
one string, so that a decoding error names its position in the whole
file, and handled in blocks of about BLOCK_ROWS lines: a block of plain
digits and whitespace is checked by array operations on its bytes and
converted by one `np.fromstring` call, in C. `int_rows` gives up
(returns None) on any other block (signs, '_', non-ASCII digits, the
separators '\\x1c'-'\\x1f', tokens of over 18 digits); the caller then
reads that block line by line with `int()`, which is where every error
message is worded. Writing formats a block of rows with one `%`
operation.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

BLOCK_ROWS = 1 << 16
BLOCK_CHARS = 8 * BLOCK_ROWS

# C whitespace, which str.split() and np.fromstring both skip; the bytes
# of a block int_rows converts (C whitespace and the digits); and the C
# whitespace that str.splitlines() treats as line breaks.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 32]] = True
_PLAIN = _SPACE.copy()
_PLAIN[ord("0"):ord("9") + 1] = True
_BREAK = np.zeros(256, dtype=bool)
_BREAK[[10, 11, 12, 13]] = True
# Every line break of str.splitlines(); "\r\n" counts once.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Digits of the longest token converted: 10**18 - 1 < 2**63 - 1, while
# np.fromstring saturates a longer, larger token without an error.
MAX_DIGITS = 18


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


class LineNumbers:
    """1-based numbers of the lines starting at block starts, asked for in
    ascending order. Each count resumes from the last block start asked
    for, so numbering any blocks of a text costs time linear in it, and
    no line is built as a string."""

    def __init__(self, text: str):
        self.text, self.offset, self.line_no = text, 0, 1

    def at(self, offset: int) -> int:
        # Both ends are block starts, so no "\r\n" pair straddles either.
        text, start = self.text, self.offset
        breaks = sum(text.count(c, start, offset) for c in _LINE_BREAKS)
        self.line_no += breaks - text.count("\r\n", start, offset)
        self.offset = offset
        return self.line_no


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
    """The (rows, k) int64 array of a block of digits and whitespace whose
    every line is blank or holds k tokens of at most MAX_DIGITS digits;
    None otherwise.

    The block's bytes are checked with array operations, so each line's
    token count is checked without a loop, and then converted whole in C.
    """
    if not block.isascii():
        return None
    raw = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    if not _PLAIN[raw].all():
        return None
    space = _SPACE[raw]
    starts = ~space
    starts[1:] &= space[:-1]
    ends = ~space
    ends[:-1] &= space[1:]
    first = np.flatnonzero(starts)
    if (np.flatnonzero(ends) - first >= MAX_DIGITS).any():
        return None
    line_of = np.searchsorted(np.flatnonzero(_BREAK[raw]), first)
    per_line = np.bincount(line_of)
    if not ((per_line == 0) | (per_line == k)).all():
        return None
    if not first.size:
        # np.fromstring reads a block without tokens as [0].
        return np.empty((0, k), dtype=np.int64)
    return np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, k)


def format_rows(rows: np.ndarray) -> Iterator[str]:
    """Lines of space-separated integers, one per row, in blocks of
    BLOCK_ROWS rows."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        yield (line * block.shape[0]) % tuple(block.ravel().tolist())
