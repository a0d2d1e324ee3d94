"""Plain-text model configuration: flat sections mirroring the parameter groups.

Example::

    [model]
    info_mode = full

    [claim]
    a = 1.0
    b = 1.0
    theta = 0.3
    eta = 0.2

    [market]
    r = 0.04
    sigma = 1.0

    [drift]
    h = 0.0
    l = 0.0
    z = 0.0
    m0 = 0.06
    n0 = 0.0

    [objective]
    x0 = 50.0
    T = 100.0
    d = 10000.0

Curve-valued keys (r, sigma, h, l, z) accept either a constant or a
piecewise-constant specification ``t0:v0, t1:v1, ...`` with t0 = 0 and
strictly increasing times.  Every number, curve times and values included,
must be finite.  The optional ``[overrides]`` section carries fault-injection
hooks for the validation suite (currently only ``a1``, which replaces the
full solution record's k- with -2 a1 T); unknown sections or keys are errors.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .model import ClaimParams, DriftParams, MarketParams, ModelParams, Objective


class ConfigError(ValueError):
    """Malformed configuration file."""


_SCHEMA = {
    "model": {"info_mode"},
    "claim": {"a", "b", "theta", "eta"},
    "market": {"r", "sigma"},
    "drift": {"h", "l", "z", "m0", "n0"},
    "objective": {"x0", "T", "d"},
    "overrides": {"a1"},
}
_OPTIONAL_SECTIONS = {"overrides"}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a finite number")
    return value


def _parse_curve(section: str, key: str, raw: str):
    if ":" not in raw:
        return _parse_float(section, key, raw)
    pairs = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            t_str, v_str = piece.split(":")
            pair = (float(t_str), float(v_str))
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: bad curve segment {piece!r} "
                "(expected 't:value' pairs)"
            ) from None
        if not all(map(math.isfinite, pair)):
            raise ConfigError(f"[{section}] {key}: curve segment {piece!r} is not finite")
        pairs.append(pair)
    if not pairs or pairs[0][0] != 0.0:
        raise ConfigError(f"[{section}] {key}: curve must start at t=0")
    if any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
        raise ConfigError(f"[{section}] {key}: curve times must be strictly increasing")
    return pairs


def load_config(path) -> tuple[ModelParams, dict]:
    """Parse a configuration file into (ModelParams, overrides dict)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive ('T' stays 'T')
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for section in _SCHEMA:
        if section in _OPTIONAL_SECTIONS:
            continue
        if section not in parser:
            raise ConfigError(f"missing section [{section}]")
        missing = _SCHEMA[section] - set(parser[section])
        if missing:
            raise ConfigError(
                f"missing keys in [{section}]: {', '.join(sorted(missing))}"
            )

    def num(section, key):
        return _parse_float(section, key, parser[section][key])

    def curve(section, key):
        return _parse_curve(section, key, parser[section][key])

    info_mode = parser["model"]["info_mode"].strip()
    model = ModelParams(
        claim=ClaimParams(a=num("claim", "a"), b=num("claim", "b"),
                          theta=num("claim", "theta"), eta=num("claim", "eta")),
        market=MarketParams(r=curve("market", "r"),
                            sigma=curve("market", "sigma")),
        drift=DriftParams(h=curve("drift", "h"), l=curve("drift", "l"),
                          z=curve("drift", "z"), m0=num("drift", "m0"),
                          n0=num("drift", "n0")),
        objective=Objective(x0=num("objective", "x0"), T=num("objective", "T"),
                            d=num("objective", "d")),
        info_mode=info_mode,
    )
    overrides = {}
    if "overrides" in parser:
        for key in parser["overrides"]:
            overrides[key] = num("overrides", key)
    return model, overrides
