"""Block-wise reading and writing of text files of integer rows.

Edge lists ("u v") and weightings ("u v w") hold one row of integers per
line, with blank lines and '#' comment lines allowed. A file is read as
one string, so that a decoding error names its position in the whole
file, and handled in blocks of about BLOCK_ROWS lines.

Reading a block (`read_rows`): a block with a line break of
`str.splitlines()` other than bytes 10 to 13 ('\\x1c'-'\\x1e', '\\x85',
'\\u2028', '\\u2029') is left to the caller. Any other block is read from
its UTF-8 bytes: comment lines, of any text, are found from the positions
of '#' and of the line breaks, and cut out with one slice each, without a
loop over the data lines. The rest is checked by byte comparisons: only
digits and C whitespace, no token of over 18 digits, and 0 or k tokens on
every line, counted from the token starts before each line break. It is
then converted by one `np.fromstring` call, in C. `_int_rows` gives up
(returns None) on any other block (signs, '_', non-ASCII bytes, '\\x1f',
tokens of over 18 digits); the caller then reads that block line by line
with `int()`, which is where every error message is worded. So the
accepted syntax, and every error with its message and line number, are
those of a line-by-line reader.

Writing a block (`format_rows`): each value's digits are looked up, four
at a time, in a table of the 10,000 four-digit groups, in one array pass
per group of the block's largest value, with the leading zeros of a
value's first group kept as NUL bytes; one mask over the block's bytes
then drops every NUL. Values must be non-negative, as every vertex id and
weight is.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

BLOCK_ROWS = 1 << 16
BLOCK_CHARS = 8 * BLOCK_ROWS

# Every line break of str.splitlines(); "\r\n" counts once.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# The line breaks of str.splitlines() other than bytes 10 to 13.
_OTHER_BREAKS = _LINE_BREAKS[4:]
# Digits of the longest token converted: 10**18 - 1 < 2**63 - 1, while
# np.fromstring saturates a longer, larger token without an error.
MAX_DIGITS = 18


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(padded, bare, units): the 10,000 four-digit groups as little-endian
    ASCII words. A bare group has NUL bytes for its leading zeros, so bare
    group 0 is all NUL; units group 0 is "0". A value's groups below its
    first are padded; its first group is bare, or units when it is also
    its last. Built on first use: importing trisum allocates nothing here."""
    n = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (n // place % 10 + ord("0")).astype(np.uint8)
    bare = np.where(n < place, 0, padded).astype(np.uint8)
    units = bare.copy()
    units[0, 3] = ord("0")
    return tuple(t.view("<u4").ravel() for t in (padded, bare, units))


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


def read_rows(block: str, k: int) -> tuple[np.ndarray | None, list[str]]:
    """The `_int_rows` of a block's UTF-8 bytes with its '#' lines cut
    out, and those lines, stripped; (None, []) for a block with a line
    break other than bytes 10 to 13."""
    if any(c in block for c in _OTHER_BREAKS):
        return None, []
    data, comments = block.encode("utf-8", "surrogatepass"), []
    if "#" in block:
        data, comments = _cut_comments(data)
    return _int_rows(data, k), comments


def _cut_comments(data: bytes) -> tuple[bytes, list[str]]:
    """The block's bytes without its '#' lines, and those lines, decoded
    and stripped; a comment line is left blank, not removed, which changes
    no line's tokens. A '#' or a byte 10 to 13 is never part of a
    multi-byte UTF-8 sequence, so these are the '#' lines of the block's
    `str.splitlines()` when it has no other line break."""
    raw = np.frombuffer(data, dtype=np.uint8)
    hashes = np.flatnonzero(raw == ord("#"))
    # A '#' opens a comment line when it follows a line break, or the
    # block's start, and at most spaces and tabs.
    filled = np.flatnonzero((raw != ord(" ")) & (raw != ord("\t")))
    at = np.searchsorted(filled, hashes)
    opens = hashes[(at == 0) | _is_break(raw[filled[at - 1]])]
    breaks = np.append(np.flatnonzero(_is_break(raw)), raw.size)
    ends = breaks[np.searchsorted(breaks, opens)]
    pieces, comments, start = [], [], 0
    for first, end in zip(opens.tolist(), ends.tolist()):
        pieces.append(data[start:first])
        comments.append(data[first:end].decode("utf-8", "surrogatepass").strip())
        start = end
    pieces.append(data[start:])
    return b"".join(pieces), comments


def _is_break(raw: np.ndarray) -> np.ndarray:
    """Which bytes are "\\n", "\\r", "\\x0b" or "\\x0c"."""
    return (raw - np.uint8(10)) < 4


def _int_rows(data: bytes, k: int) -> np.ndarray | None:
    """The (rows, k) int64 array of a block's bytes when they are digits
    and C whitespace only, and every line is blank or holds k tokens of at
    most MAX_DIGITS digits; None otherwise. The bytes are checked with
    array operations, so each line's token count is checked without a
    loop, and then converted whole in C."""
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = (raw - np.uint8(ord("0"))) < 10
    # C whitespace: "\t", "\n", "\x0b", "\x0c", "\r" and " "
    if not (digit | (raw == ord(" ")) | ((raw - np.uint8(9)) < 5)).all():
        return None
    # Where a run of MAX_DIGITS + 1 digits starts: from the starts of runs
    # of `length` digits, those of runs up to twice as long.
    run, length = digit, 1
    while length <= MAX_DIGITS:
        step = min(length, MAX_DIGITS + 1 - length)
        run = run[:-step] & run[step:]
        length += step
    if run.any():
        return None
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    is_break = _is_break(raw)
    marks = np.flatnonzero(starts | is_break)
    # The i-th line break is marks[j] for some j; j - i tokens start
    # before it. A "\r\n" pair ends one line and an empty one.
    at_break = np.flatnonzero(is_break[marks])
    before = at_break - np.arange(at_break.size)
    tokens = marks.size - at_break.size
    per_line = np.diff(before, prepend=0, append=tokens)
    if not ((per_line == 0) | (per_line == k)).all():
        return None
    if not tokens:
        # np.fromstring reads a block without tokens as [0].
        return np.empty((0, k), dtype=np.int64)
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, k)


def format_rows(rows: np.ndarray) -> Iterator[str]:
    """Lines of space-separated integers, one per row, in blocks of
    BLOCK_ROWS rows."""
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        yield _format_block(rows[start:start + BLOCK_ROWS])


def _format_block(block: np.ndarray) -> str:
    if block.min() < 0:
        raise ValueError("format_rows writes non-negative values only")
    padded, bare, units = _digit_groups()
    r, k = block.shape
    groups, top = 1, int(block.max())
    while top >= 10_000 ** groups:
        groups += 1
    # Per value, its groups, first group first, then a separator word.
    words = np.empty((r, k, groups + 1), dtype="<u4")
    rest = block
    for i in range(groups - 1, 0, -1):
        rest, group = np.divmod(rest, 10_000)
        first = units if i == groups - 1 else bare
        words[:, :, i] = np.where(rest > 0, padded[group], first[group])
    words[:, :, 0] = (units if groups == 1 else bare)[rest]
    words[:, :, groups] = ord(" ")
    words[:, -1, groups] = ord("\n")
    raw = words.view(np.uint8)
    return raw[raw != 0].tobytes().decode("ascii")
