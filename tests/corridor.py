"""The corridor scenario, whose one definition is ``scenarios/corridor.ini``."""

import dataclasses
import os

from hosim.config import load_scenario

CORRIDOR_INI = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "corridor.ini")
CORRIDOR = load_scenario(CORRIDOR_INI)


def corridor_scenario(**overrides):
    """``scenarios/corridor.ini`` with ``overrides`` in place of its fields."""
    return dataclasses.replace(CORRIDOR, **overrides)
