"""Pipeline configuration: defaults plus a ``key = value`` file loader."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, read_text
from .similarity import (
    CharLcsSimilarity,
    NameSimilarityProvider,
    SynonymTable,
)


@dataclass
class PipelineConfig:
    # transform.*
    c_shift: Fraction = Fraction(1)
    c_map: Fraction = Fraction(1)
    budget: int = 100_000
    # scoring.*
    validity_reward: Fraction = Fraction(1)
    # similarity.*: 'exact' keeps name credit strict, 'char_lcs' enables
    # fuzzy name matching.
    similarity_provider: str = "exact"
    similarity_floor: Fraction = Fraction(1, 2)
    synonyms: str | None = None
    # planner.*
    planner_timeout: float = 10.0
    external_planner: str | None = None
    # The provider built from the similarity.* keys, once resolved; a batch
    # sets it before its first row so every row shares one provider.
    resolved_provider: NameSimilarityProvider | None = field(
        default=None, repr=False, compare=False)

    def provider(self) -> NameSimilarityProvider:
        if self.resolved_provider is not None:
            return self.resolved_provider
        if self.similarity_provider == "char_lcs":
            return CharLcsSimilarity(floor=self.similarity_floor)
        if self.similarity_provider != "exact":
            raise ConfigError(
                f"unknown similarity.provider '{self.similarity_provider}'"
            )
        if self.synonyms:
            return SynonymTable.load(self.synonyms)
        return SynonymTable()


_KEY_MAP = {
    "transform.c_shift": ("c_shift", Fraction),
    "transform.c_map": ("c_map", Fraction),
    "transform.budget": ("budget", int),
    "scoring.validity_reward": ("validity_reward", Fraction),
    "similarity.provider": ("similarity_provider", str),
    "similarity.floor": ("similarity_floor", Fraction),
    "similarity.synonyms": ("synonyms", str),
    "planner.timeout": ("planner_timeout", float),
    "planner.external_cmd": ("external_planner", str),
}


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Defaults, optionally overridden by a ``key = value`` file.

    ``#`` starts a comment at the start of a line or after whitespace, so a
    value may contain ``#``; blank lines are ignored; unknown keys and a
    negative ``transform.c_shift`` or ``transform.c_map`` are errors.
    """
    config = PipelineConfig()
    if path is None:
        return config
    text = read_text(path, f"config file {path}", ConfigError)
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_MAP:
            raise ConfigError(f"config line {line_no}: unknown key '{key}'")
        attr, converter = _KEY_MAP[key]
        try:
            setattr(config, attr, converter(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"config line {line_no}: bad value for '{key}': {exc}") from exc
        if attr in ("c_shift", "c_map") and getattr(config, attr) < 0:
            raise ConfigError(f"config line {line_no}: '{key}' must be >= 0, got {value}")
    return config
