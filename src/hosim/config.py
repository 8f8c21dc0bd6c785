"""Scenario files and overrides.

A scenario file is flat INI text whose sections mirror the Scenario
fields: each nested dataclass field has a section of its own (``[radio]``
the RadioParams link budget, ``[channel]`` the ChannelParams,
``[learning]`` the LearningParams), and ``[sim]`` holds every other
top-level field.  ``SECTIONS`` is derived from the dataclasses, and
``dump_scenario`` lists every key.

Every key is optional and falls back to the package default.  The same
section.key=value pairs are accepted as command-line overrides.  A value
is parsed here by its default's type; ``Scenario.validate`` then judges
it by the rule declared on its field (``ranged``, ``one_of``).
"""

from __future__ import annotations

import configparser
import dataclasses

from .sim import ConfigError, Scenario


def _values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


_DEFAULT = _values(Scenario())
# section -> key -> default value; the default's type is the key's parse type,
# and a None default also accepts "none".
SECTIONS = {
    "sim": {key: value for key, value in _DEFAULT.items() if not dataclasses.is_dataclass(value)},
    **{key: _values(value) for key, value in _DEFAULT.items() if dataclasses.is_dataclass(value)},
}


def _set(scenario: Scenario, section: str, key: str, raw: str) -> Scenario:
    """Parse ``raw`` as the value of section.key and return the scenario with it set."""
    if section not in SECTIONS:
        raise ConfigError(section, "unknown section")
    target = f"{section}.{key}"
    if key not in SECTIONS[section]:
        raise ConfigError(target, "unknown key")
    default = SECTIONS[section][key]
    raw = raw.strip()
    if default is None and raw.lower() in ("none", ""):
        value = None
    else:
        kind = float if default is None else type(default)
        try:
            value = kind(raw)
        except ValueError as exc:
            raise ConfigError(target, f"cannot parse {raw!r} as {kind.__name__}") from exc
    if section == "sim":
        return dataclasses.replace(scenario, **{key: value})
    nested = dataclasses.replace(getattr(scenario, section), **{key: value})
    return dataclasses.replace(scenario, **{section: nested})


def load_scenario(path: str | None = None, overrides: list[str] | None = None) -> Scenario:
    """Build a Scenario from defaults, an optional file, and overrides."""
    scenario = Scenario()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError("scenario", f"cannot read {path}: {exc.strerror or exc}") from exc
        except (UnicodeError, configparser.Error) as exc:
            # configparser's messages span lines; the error is one stderr line.
            raise ConfigError("scenario", f"cannot parse {path}: {' '.join(str(exc).split())}") from exc
        for section in parser.sections():
            if section not in SECTIONS:
                raise ConfigError(section, f"unknown section in {path}")
            for key, raw in parser.items(section):
                scenario = _set(scenario, section, key, raw)
    for item in overrides or []:
        scenario = apply_override(scenario, item)
    return scenario


def apply_override(scenario: Scenario, item: str) -> Scenario:
    """Apply one 'section.key=value' override."""
    if "=" not in item:
        raise ConfigError(item, "override must look like section.key=value")
    target, raw = item.split("=", 1)
    if "." not in target:
        raise ConfigError(target, "override key must look like section.key")
    section, key = target.strip().split(".", 1)
    return _set(scenario, section, key, raw)


def dump_scenario(scenario: Scenario) -> str:
    """Render a Scenario back into the INI scenario format."""
    lines = []
    for section, keys in SECTIONS.items():
        owner = scenario if section == "sim" else getattr(scenario, section)
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(owner, key)
            lines.append(f"{key} = {'none' if value is None else value}")
        lines.append("")
    return "\n".join(lines)
