"""The scalar reference for the report kernel.

A report tick computed one UE at a time from each UE's
``RadioEnvironment.row``, with Python floats, scalar clamps and a Python
sort.  ``RadioEnvironment.block_samples`` must give the same samples bit
for bit; tests compare the two tick by tick, and patch ``oracle_samples``
in for the kernel to run whole simulations on the oracle.

The oracle reads every UE's shadowing row through ``row`` whatever the
channel's sigma, so without shadowing it draws from the shadowing stream
where the kernel does not; every value it draws there is +0.0.
"""

import math

from hosim.radio import DETECTION_THRESHOLD_DBM, MAX_NEIGHBORS, RadioSample, linear_to_db


def channel_noise(env, n_ues):
    """The next report tick of ``env``'s channel-noise block, one list of
    draws per UE in id order: the ambient walk's step, one measurement
    draw per site, then the ambient reading's."""
    return env._noise_ticks(1, n_ues)[0].tolist()


def oracle_sample(env, ue, position, serving, draws):
    """UE ``ue``'s report-tick sample from its ``row`` at ``position`` while
    served by ``serving``, and its ``draws`` from ``channel_noise``.

    The ambient level takes one bounded random-walk step; each site's
    measured RSRP is its wideband power scaled to one resource element,
    less the level's excursion above its mean, plus its measurement draw;
    the last draw makes the reading of the level.  A non-finite
    measurement or RSSI raises ValueError.  Detected cells are ranked by
    a stable descending sort, so equal measurements keep id order."""
    wideband, rssi_mw, serving_mw, interference_mw, nearest = env.row(ue, position, serving)
    mean = env.params.env_noise_mean_dbm
    level = min(max(env._env_noise.get(ue, mean) + draws[0], env._walk_lo), env._walk_hi)
    env._env_noise[ue] = level
    degradation = level - mean
    rssi_dbm = linear_to_db(rssi_mw + env._noise_mw)
    measured = [w - env._re_scaling_db - degradation + draws[i] for i, w in enumerate(wideband, 1)]
    if not (all(map(math.isfinite, measured)) and math.isfinite(rssi_dbm)):
        raise ValueError("measured RSRP and RSSI must be finite")
    ranked = [cid for cid, value in enumerate(measured) if value >= DETECTION_THRESHOLD_DBM]
    ranked.sort(key=measured.__getitem__, reverse=True)
    del ranked[MAX_NEIGHBORS + 1 :]
    return RadioSample(measured, rssi_dbm, ranked, level + draws[-1], serving_mw, interference_mw, nearest)


def oracle_tick(env, positions, servings):
    """One report tick, UE ``i`` at the ``(x, y)`` tuple ``positions[i]``
    served by ``servings[i]``."""
    noise = channel_noise(env, len(positions))
    return [oracle_sample(env, ue, p, s, d) for ue, (p, s, d) in enumerate(zip(positions, servings, noise))]


def oracle_samples(env, ticks, servings):
    """``block_samples`` computed by the oracle: the tick at ``ticks[0]``."""
    return oracle_tick(env, list(map(tuple, ticks[0].tolist())), servings)
