"""Deterministic text serialization: JSON and CSV with every float printed
as a 17-significant-digit decimal (IEEE-754 round-trip), fixed key order,
no timestamps.  Identical inputs yield byte-identical files.
"""

import hashlib
import json
import math


def format_float(x):
    x = float(x)
    if not math.isfinite(x):  # keep output parseable by strict JSON readers
        return "null"
    return format(x, ".17g")


def dumps(obj, indent=0):
    """JSON text with deterministic float formatting and insertion-ordered
    keys; newline-terminated at the top level."""
    return _emit(obj, indent, 0) + "\n"


def _emit(obj, indent, level):
    pad = " " * (indent * (level + 1)) if indent else ""
    close_pad = " " * (indent * level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_emit(v, indent, level + 1)}" for k, v in obj.items()
        ]
        return "{" + nl + sep.join(items) + nl + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{_emit(v, indent, level + 1)}" for v in seq]
        return "[" + nl + sep.join(items) + nl + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def curve_table_csv(lambdas, values):
    """CSV text for a curve table: header lambda,mu_1..mu_K, one row per
    grid point."""
    k = values.shape[1] if values.size else 0
    lines = ["lambda," + ",".join(f"mu_{i + 1}" for i in range(k))]
    template = ",".join(["%.17g"] * (k + 1))  # "%.17g" % x == format(x, ".17g")
    for lam, row in zip(lambdas.tolist(), values.tolist()):
        line = template % (lam, *row)  # only a nan or an inf prints an n
        lines.append(",".join(map(format_float, (lam, *row))) if "n" in line else line)
    return "\n".join(lines) + "\n"


def config_hash(config):
    """SHA-256 of the canonical serialization of a config mapping."""
    return hashlib.sha256(dumps(config).encode("utf-8")).hexdigest()
