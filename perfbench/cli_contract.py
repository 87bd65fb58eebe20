"""The README's CLI contract, checked on one command's exit code and stdout.

Exit 0 prints output that parses in the requested format, exit 1 prints
`{"error": {"code": ...}}`, exit 2 is a usage error; nothing else is allowed.
"""

from __future__ import annotations

import json


def output_format(argv: list[str]) -> str:
    for i, tok in enumerate(argv[:-1]):
        if tok == "--format":
            return argv[i + 1]
    return "json"


def _parses(fmt: str, text: str) -> bool:
    if fmt == "json":
        return isinstance(json.loads(text), dict)
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv" or (fmt == "plot-data" and lines[0] == "x,empirical_cdf,target_cdf"):
        width = lines[0].count(",")
        return all(line.count(",") == width for line in lines)
    if fmt == "plot-data":
        return all(float(line) == float(line) for line in lines)
    return False


def violation(argv: list[str], code: int, out: bytes) -> str | None:
    """None when the run keeps the contract, else what broke it."""
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if code == 2:
        return None
    try:
        text = out.decode("utf-8")
        if code == 1:
            err = json.loads(text)["error"]
            return None if isinstance(err.get("code"), str) else "exit 1 without an error code"
        return None if _parses(output_format(argv), text) else "output does not parse"
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, AttributeError, IndexError):
        if code == 1 and not out:
            return "exit 1 with empty stdout (uncaught exception)"
        return f"exit {code} with unparseable stdout"
