"""Pipeline configuration: defaults plus a ``key = value`` file loader."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, read_text
from .similarity import (CharLcsSimilarity, NameSimilarityProvider, SynonymTable,
                         exact_name_similarity)


@dataclass
class PipelineConfig:
    # transform.*
    c_shift: Fraction = Fraction(1)
    c_map: Fraction = Fraction(1)
    budget: int = 100_000
    # scoring.*
    validity_reward: Fraction = Fraction(1)
    # similarity.*: the name-similarity provider, built by load_config from
    # the three similarity.* keys; the default keeps name credit strict.
    similarity: NameSimilarityProvider = exact_name_similarity
    # planner.*
    planner_timeout: float = 10.0
    external_planner: str | None = None


_KEY_MAP = {
    "transform.c_shift": ("c_shift", Fraction),
    "transform.c_map": ("c_map", Fraction),
    "transform.budget": ("budget", int),
    "scoring.validity_reward": ("validity_reward", Fraction),
    "similarity.provider": ("similarity", str),
    "similarity.floor": ("similarity", Fraction),
    "similarity.synonyms": ("similarity", str),
    "planner.timeout": ("planner_timeout", float),
    "planner.external_cmd": ("external_planner", str),
}


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Defaults, optionally overridden by a ``key = value`` file.

    ``#`` starts a comment at the start of a line or after whitespace, so a
    value may contain ``#``; blank lines are ignored; unknown keys and
    ``similarity.provider`` values, a negative ``transform.c_shift`` or
    ``transform.c_map`` and a ``planner.timeout`` that is not finite and
    above 0 are errors.  The ``similarity.*`` keys, in any order, build one
    provider: ``char_lcs`` ignores ``similarity.synonyms``.
    """
    if path is None:
        return PipelineConfig()
    values: dict[str, object] = {}
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
        if key == "similarity.provider" and value not in ("exact", "char_lcs"):
            raise ConfigError(f"config line {line_no}: unknown similarity.provider '{value}'")
        try:
            values[key] = _KEY_MAP[key][1](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"config line {line_no}: bad value for '{key}': {exc}") from exc
        if key in ("transform.c_shift", "transform.c_map") and values[key] < 0:
            raise ConfigError(f"config line {line_no}: '{key}' must be >= 0, got {value}")
        # A NaN or infinite timeout would switch the planner's time bound off.
        if key == "planner.timeout" and not 0 < values[key] < math.inf:
            raise ConfigError(f"config line {line_no}: '{key}' must be finite and > 0, "
                              f"got {value}")
    similarity: NameSimilarityProvider = exact_name_similarity
    if values.get("similarity.provider") == "char_lcs":
        similarity = CharLcsSimilarity(values.get("similarity.floor", Fraction(1, 2)))
    elif values.get("similarity.synonyms"):
        similarity = SynonymTable.load(values["similarity.synonyms"])
    return PipelineConfig(similarity=similarity, **{
        _KEY_MAP[key][0]: value for key, value in values.items()
        if not key.startswith("similarity.")})
