"""Scenario file parsing and overrides."""

import hashlib
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosim.config import SECTIONS, apply_override, dump_scenario, load_scenario
from hosim.sim import ConfigError, Scenario, _declared_fields, run
from corridor import corridor_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

SCENARIO_TEXT = """
[sim]
layout = corridor
n_sites = 2
site_spacing_m = 180
corridor_lane_m = 280
boundary_margin_m = 300
n_ues_per_cell = 1
ue_speed_kmh = 150
sim_duration_s = 12
step_s = 0.04
report_period_s = 0.04
seed = 7
policy = fixed_a3

[radio]
carrier_freq_hz = 3.5e9
bandwidth_hz = 100e6

[channel]
shadowing_sigma_db = 0
meas_noise_sigma_db = 1.5

[learning]
alpha = 0.2
"""


class TestLoadScenario:
    def test_defaults_without_file(self):
        assert load_scenario(None) == Scenario()

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "corridor.ini"
        path.write_text(SCENARIO_TEXT)
        scenario = load_scenario(str(path))
        assert scenario.layout == "corridor"
        assert scenario.ue_speed_kmh == 150.0
        assert scenario.seed == 7
        assert scenario.radio.carrier_freq_hz == 3.5e9
        assert scenario.channel.meas_noise_sigma_db == 1.5
        assert scenario.learning.alpha == 0.2
        scenario.validate()

    def test_missing_file_names_path(self):
        with pytest.raises(ConfigError) as err:
            load_scenario("/nonexistent/corridor.ini")
        assert "/nonexistent/corridor.ini" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text in ("[backhaul]\nfoo = 1\n", "[backhaul]\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_scenario(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(path))
        assert "sim.warp_factor" in str(err.value)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nseed = banana\n")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(path))
        assert "sim.seed" in str(err.value)


ALL_KEYS = sorted(f"{section}.{key}" for section, keys in SECTIONS.items() for key in keys)
# Float keys whose accepted values must complete a run; the time grid keys
# are left out because a tiny step makes a run arbitrarily long.
RUNNABLE_FLOAT_KEYS = {
    f"{section}.{key}" for section, keys in SECTIONS.items() for key, default in keys.items()
    if isinstance(default, float) or default is None
} - {"sim.sim_duration_s", "sim.step_s", "sim.report_period_s"}
SHORT_CORRIDOR = corridor_scenario(n_ues_per_cell=1, sim_duration_s=0.2)


class TestSchema:
    def test_exact_key_set(self):
        assert ALL_KEYS == sorted([
            "sim.layout", "sim.n_sites", "sim.cell_radius_m", "sim.site_spacing_m",
            "sim.corridor_lane_m", "sim.boundary_margin_m", "sim.n_ues_per_cell",
            "sim.ue_speed_kmh", "sim.sim_duration_s", "sim.step_s", "sim.report_period_s",
            "sim.seed", "sim.policy", "sim.fixed_ttt_ms", "sim.fixed_hyst_db",
            "radio.tx_power_dbm", "radio.carrier_freq_hz", "radio.bandwidth_hz",
            "radio.noise_figure_db",
            "channel.path_loss_exponent", "channel.shadowing_sigma_db",
            "channel.thermal_noise_density_dbm_hz", "channel.meas_noise_sigma_db",
            "channel.env_noise_mean_dbm", "channel.env_noise_sigma_db",
            "learning.alpha", "learning.gamma", "learning.r",
        ])

    @settings(max_examples=500, deadline=None)
    @given(
        key=st.sampled_from(ALL_KEYS),
        raw=st.one_of(
            st.text(),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
            st.sampled_from([5e-324, -5e-324, 1e308, -1e308]).map(repr),
            st.integers().map(str),
        ),
    )
    def test_any_override_is_valid_or_config_error(self, key, raw):
        try:
            apply_override(Scenario(), f"{key}={raw}").validate()
        except ConfigError:
            pass
        if key not in RUNNABLE_FLOAT_KEYS:
            return
        # A float value that passes the gate must also run to completion.
        try:
            scenario = apply_override(SHORT_CORRIDOR, f"{key}={raw}")
            scenario.validate()
        except ConfigError:
            return
        run(scenario)


# (INI key, value, declaration) of every declared or float field; the
# margin is set so that its float field is walked too.
DECLARED = list(_declared_fields(Scenario(boundary_margin_m=150.0)))
# (INI key, lo, hi) of every field declared with a finite range, float and int.
RANGED = [
    (path, *declared["range"]) for path, _, declared in DECLARED
    if "range" in declared and (math.isfinite(declared["range"][0]) or math.isfinite(declared["range"][1]))
]
FLOAT_RANGED = [(path, lo, hi) for path, lo, hi in RANGED if isinstance(lo, float)]
INT_RANGED = [(path, lo, hi) for path, lo, hi in RANGED if isinstance(lo, int)]
# (INI key, choices) of every field declared with ``one_of``.
CHOICES = [(path, declared["choices"]) for path, _, declared in DECLARED if "choices" in declared]


class TestDeclaredRanges:
    def test_sim_radio_and_channel_fields_are_ranged(self):
        sections = [path.split(".")[0] for path, _, _ in RANGED]
        assert {section: sections.count(section) for section in sections} == {"sim": 9, "radio": 4, "channel": 6, "learning": 3}
        assert [path for path, _, _ in INT_RANGED] == ["sim.n_sites", "sim.n_ues_per_cell", "sim.seed"]
        assert [path for path, _ in CHOICES] == ["sim.layout", "sim.policy", "sim.fixed_ttt_ms", "sim.fixed_hyst_db"]

    # A sim case's id keeps the bare key, as it had before errors named the section.
    @pytest.mark.parametrize("path,lo,hi", FLOAT_RANGED, ids=[path.removeprefix("sim.") for path, _, _ in FLOAT_RANGED])
    def test_just_outside_each_end_names_the_path(self, path, lo, hi):
        base = Scenario(boundary_margin_m=150.0)
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(ConfigError) as err:
                apply_override(base, f"{path}={value!r}").validate()
            assert err.value.field_name == path

    @pytest.mark.parametrize("path,lo,hi", INT_RANGED, ids=[path.removeprefix("sim.") for path, _, _ in INT_RANGED])
    def test_one_past_each_finite_int_end_names_the_path(self, path, lo, hi):
        base = Scenario(boundary_margin_m=150.0)
        for value in (lo - 1, hi + 1):
            if not math.isfinite(value):
                continue
            with pytest.raises(ConfigError) as err:
                apply_override(base, f"{path}={value}").validate()
            assert err.value.field_name == path

    @pytest.mark.parametrize("path,choices", CHOICES, ids=[path.removeprefix("sim.") for path, _ in CHOICES])
    def test_value_outside_the_choices_names_the_path(self, path, choices):
        outside = "none" if isinstance(choices[0], str) else max(choices) + 1
        with pytest.raises(ConfigError) as err:
            apply_override(Scenario(), f"{path}={outside}").validate()
        assert err.value.field_name == path
        assert str(err.value) == f"{path}: must be one of {choices}"

    def test_zero_ues_do_not_lift_the_site_bound(self):
        # With no UEs the (UE, site) pair bound is 0 whatever the site count.
        Scenario(n_sites=2048, n_ues_per_cell=0).validate()
        for n_sites in (2049, 10**9):
            with pytest.raises(ConfigError) as err:
                Scenario(n_sites=n_sites, n_ues_per_cell=0).validate()
            assert str(err.value) == "sim.n_sites: must be in [1, 2048]"

    # 2,048 sites and a 4,100-step report period: one UE a site spans
    # 8,396,800 UE-steps, so no UE count fixes it and the period is named;
    # at 2,000 steps one UE a site fits, and two UEs a site are named.
    @pytest.mark.parametrize("n_ues_per_cell, report_period_s, name, spans", [
        (1, 4.1, "sim.report_period_s", "2.05e+3 UEs spans 8.40e+6"),
        (2, 4.1, "sim.report_period_s", "4.10e+3 UEs spans 1.68e+7"),
        (2, 2.0, "sim.n_ues_per_cell", "4.10e+3 UEs spans 8.19e+6"),
    ])
    def test_ue_step_bound_names_what_can_fix_it(self, n_ues_per_cell, report_period_s, name, spans):
        Scenario(n_sites=2048, n_ues_per_cell=1, report_period_s=2.0).validate()
        with pytest.raises(ConfigError) as err:
            Scenario(n_sites=2048, n_ues_per_cell=n_ues_per_cell, report_period_s=report_period_s).validate()
        assert str(err.value) == f"{name}: one report period of {spans} UE-steps, more than 2**22"


class TestOverrides:
    def test_sim_and_nested_overrides(self):
        scenario = load_scenario(None, ["sim.seed=9", "channel.shadowing_sigma_db=2.5", "learning.gamma=0.4"])
        assert scenario.seed == 9
        assert scenario.channel.shadowing_sigma_db == 2.5
        assert scenario.learning.gamma == 0.4

    def test_boundary_margin_none(self):
        scenario = apply_override(Scenario(), "sim.boundary_margin_m=none")
        assert scenario.boundary_margin_m is None

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_override(Scenario(), "seed=9")
        with pytest.raises(ConfigError):
            apply_override(Scenario(), "sim.seed")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError) as err:
            apply_override(Scenario(), "sim.warp=1")
        assert "sim.warp" in str(err.value)


class TestRoundTrip:
    def test_dump_then_load_preserves_scenario(self, tmp_path):
        original = corridor_scenario(seed=13, ue_speed_kmh=250.0)
        path = tmp_path / "dumped.ini"
        path.write_text(dump_scenario(original))
        assert load_scenario(str(path)) == original

    # sha256 of the dump_scenario text: every section, key, order and value
    # format.  hex50.ini spells out the defaults, so it dumps as Scenario().
    DUMP_DIGESTS = {
        "corridor.ini": "53e7a50cda6b28c120f1c5c073d77be3f77998eb94cf755dc04af14ccd2cc191",
        "hex50.ini": "562369060f3e44f4aafcde2f26c88cebe19203dfd7df3f04f084dd431f9ff458",
        None: "562369060f3e44f4aafcde2f26c88cebe19203dfd7df3f04f084dd431f9ff458",
    }

    @pytest.mark.parametrize("ini", list(DUMP_DIGESTS), ids=["corridor.ini", "hex50.ini", "defaults"])
    def test_dump_text_is_pinned(self, ini):
        scenario = load_scenario(None if ini is None else os.path.join(SCENARIOS, ini))
        digest = hashlib.sha256(dump_scenario(scenario).encode()).hexdigest()
        assert digest == self.DUMP_DIGESTS[ini]
