"""Flat TOML-style configuration: one dotted key per line.

Grammar::

    # comment
    preprocess.otsu = true
    preprocess.stretch.p_low = 15
    preprocess.clahe.tiles = 8,8
    softlabel.profile = soft2

Values parse as booleans (true/false), integers, floats, comma lists of
numbers, or bare/quoted strings. Command-line flags override file
values.
"""

from __future__ import annotations

from .errors import ConfigError, FormatError


def _parse_scalar(text: str):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def parse_config_text(text: str) -> dict:
    """Parse config text into a flat {dotted.key: value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if "," in value and not (value[0] in "'\""):
            out[key] = tuple(_parse_scalar(v.strip()) for v in value.split(","))
        else:
            out[key] = _parse_scalar(value)
    return out


def load_config(raw: bytes, path: str) -> dict:
    """Parse the bytes read from config file ``path``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"config {path} is not UTF-8 text: {exc}", path) from exc
    return parse_config_text(text)


def get_typed(cfg: dict, key: str, kind: type, default):
    """Fetch a config value, checking its type; None default means optional."""
    if key not in cfg:
        return default
    val = cfg[key]
    if kind is float and type(val) is int:
        return float(val)
    if kind is tuple and type(val) is not tuple:  # a list of one value
        return (val,)
    if type(val) is not kind:
        expected = "true or false" if kind is bool else kind.__name__
        raise ConfigError(f"{key} must be {expected}, got {val!r}")
    return val
