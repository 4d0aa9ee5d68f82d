"""Path glob matching for place and activity paths.

Flattened models address components with bracketed replica indexes
(``cfs/ddn[0]/tier[3]/disk[7]/fail``).  Standard :mod:`fnmatch` globbing
would interpret ``[...]`` as a character class, so patterns like
``"*/tier[*]/fail"`` would not behave as users expect.  This module
implements the glob dialect used throughout the library:

* ``*`` matches any run of characters (including ``/``);
* ``?`` matches exactly one character;
* every other character — **including ``[`` and ``]``** — is literal.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, TypeVar

_T = TypeVar("_T")

__all__ = ["path_match", "compile_pattern"]


@lru_cache(maxsize=4096)
def compile_pattern(pattern: str) -> re.Pattern[str]:
    """Compile a path glob into an anchored regular expression."""
    out: list[str] = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z")


def path_match(path: str, pattern: str) -> bool:
    """True if ``path`` matches the glob ``pattern`` (brackets literal)."""
    return compile_pattern(pattern).match(path) is not None


def filter_matching(
    pattern: str, pairs: Iterable[tuple[str, _T]]
) -> Iterator[_T]:
    """Yield, in order, the value of each ``(path, value)`` pair whose
    path matches ``pattern``.

    Only paths ending in the literal text after the pattern's last
    wildcard can match, and ``str.endswith`` is far cheaper than the
    regex, so the regex runs only on the paths that pass that test.
    """
    tail = pattern[max(pattern.rfind("*"), pattern.rfind("?")) + 1 :]
    match = compile_pattern(pattern).match
    for path, value in pairs:
        if path.endswith(tail) and match(path) is not None:
            yield value
