"""Runtime configuration: caps, tolerances, and output mode.

Values come from (lowest to highest precedence) the defaults below, an
optional flat TOML-style config file of ``key = value`` lines, and explicit
flags.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import DomainError

__all__ = ["Config", "load_config", "parse_config_file"]


@dataclass
class Config:
    fs_cap: int = 24
    rank_cap: int = 45
    search_budget: int = 5_000_000
    tolerance: float = 1e-8
    precision_bits: int = 100
    output: str = "text"
    seed: int = 0

    def validate(self) -> Config:
        for name in ("fs_cap", "rank_cap", "search_budget", "precision_bits"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if not 0 < self.tolerance < 1:
            raise DomainError("tolerance must lie strictly between 0 and 1")
        if self.output not in ("text", "json"):
            raise DomainError(f"unknown output mode {self.output!r}")
        return self


def _parse_value(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = _parse_value(value)
    return out


def load_config(path: str | None = None, **overrides) -> Config:
    """Merge file and flag overrides into a validated Config."""
    values: dict = {}
    if path:
        file_values = parse_config_file(path)
        known = {f.name for f in fields(Config)}
        unknown = set(file_values) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    return Config(**values).validate()
