"""Lightweight C++ tokenizer for the dvx_analyze rule engine.

Deliberately not a parser (no libclang in the build image, and the repo's
style is regular enough): it strips comments/strings column-preservingly and
extracts #include directives, which is all the layering and determinism
rules need.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


@dataclasses.dataclass
class Include:
    line: int  # 1-based
    col: int  # 1-based
    target: str  # the quoted path as written


@dataclasses.dataclass
class FileScan:
    path: pathlib.Path
    raw_lines: list[str]
    stripped: list[str]  # comments/strings blanked, columns preserved
    comments: dict[int, str]  # 1-based line -> comment text on that line
    includes: list[Include]

    def stripped_text(self) -> str:
        return "\n".join(self.stripped)

    def line_of_offset(self, offset: int) -> tuple[int, int]:
        """(line, col), both 1-based, for an offset into stripped_text()."""
        upto = self.stripped_text()[:offset]
        line = upto.count("\n") + 1
        col = offset - (upto.rfind("\n") + 1) + 1
        return line, col


_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'')


def strip_lines(raw_lines: list[str]) -> tuple[list[str], dict[int, str]]:
    """Blanks comments and string/char literals, preserving columns.

    Returns (stripped_lines, comments) where comments maps a 1-based line
    number to the concatenated comment text appearing on it (line comments
    and block comments; multi-line block comment interiors are recorded
    line by line).
    """
    stripped: list[str] = []
    comments: dict[int, str] = {}
    in_block = False
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                comments[lineno] = comments.get(lineno, "") + line
                stripped.append(" " * len(line))
                continue
            comments[lineno] = comments.get(lineno, "") + line[:end]
            line = " " * (end + 2) + line[end + 2 :]
            in_block = False
        # Blank string/char literals first so a "//" inside one is inert,
        # then walk the comment markers left to right.
        code = list(_STRING_RE.sub(lambda m: " " * len(m.group(0)), line))
        i = 0
        while i < len(code) - 1:
            two = code[i] + code[i + 1]
            if two == "//":
                comments[lineno] = comments.get(lineno, "") + line[i + 2 :]
                for k in range(i, len(code)):
                    code[k] = " "
                break
            if two == "/*":
                end = "".join(code).find("*/", i + 2)
                if end < 0:
                    comments[lineno] = comments.get(lineno, "") + line[i + 2 :]
                    for k in range(i, len(code)):
                        code[k] = " "
                    in_block = True
                    break
                comments[lineno] = comments.get(lineno, "") + line[i + 2 : end]
                for k in range(i, end + 2):
                    code[k] = " "
                i = end + 2
                continue
            i += 1
        stripped.append("".join(code))
    return stripped, comments


def scan_file(path: pathlib.Path) -> FileScan:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    stripped, comments = strip_lines(raw_lines)
    includes = []
    for lineno, line in enumerate(raw_lines, start=1):
        im = _INCLUDE_RE.match(line)
        if im is not None:
            includes.append(Include(lineno, im.start(1), im.group(1)))
    return FileScan(path, raw_lines, stripped, comments, includes)
