"""The scalar reference for the radio's link budget and report kernel.

One UE's pass over the id-ordered sites (``oracle_row``), and a report
tick computed one UE at a time from it, with Python floats, scalar
clamps and a Python sort; and one position's nearest site by
``math.dist`` (``oracle_nearest``).  ``RadioEnvironment.block_samples``,
``RadioEnvironment.window_sinrs`` and ``RadioEnvironment.nearest_cell``
must give the same values bit for bit; tests compare them, and patch
``oracle_samples`` and ``oracle_window_sinrs`` in for the first two to
run whole simulations on the oracle.

The oracle reads every UE's shadowing row through ``refresh_shadowing``
whatever the channel's sigma, so without shadowing it draws from the
shadowing stream where the kernel does not; every value it draws there is
+0.0.  It takes each row's values as Python floats (``tolist``), so its
powers are raised by Python's own ``**``.
"""

import math
from typing import NamedTuple

import numpy as np

from hosim.radio import DETECTION_THRESHOLD_DBM, MAX_NEIGHBORS, REFERENCE_DISTANCE_M, RadioSample, linear_to_db


class Row(NamedTuple):
    """What one UE's pass over the id-ordered sites yields at one instant."""

    wideband: list  # each site's wideband received power in dBm, by id
    rssi_mw: float  # every site's linear power, summed left to right
    serving_mw: float  # the serving site's linear power
    interference_mw: float  # the other sites' linear powers, summed left to right
    nearest: int  # id of the closest site, a tie to the lower id


def oracle_pass(env, position, serving, shadowing):
    """One pass over ``env``'s id-ordered sites at ``position`` (an ``(x,
    y)`` tuple of floats) while served by ``serving``, with the shadowing
    values ``shadowing`` (by site id).

    Each site's distance and wideband power are computed once; the power
    is raised to linear once and summed left to right into the RSSI (every
    site) and the interference (every site but ``serving``).  The nearest
    site is the first strict minimum of the unclamped distance, so an exact
    tie goes to the lower id."""
    x, y = position
    tx, reference, slope = env._tx_dbm, env._reference_db, env._slope_db
    wideband = []
    rssi_mw = serving_mw = interference_mw = 0.0
    nearest, nearest_m = 0, math.inf
    for cid, ((sx, sy), value) in enumerate(zip(env.sites.tolist(), shadowing)):
        distance = math.hypot(sx - x, sy - y)
        if distance < nearest_m:
            nearest, nearest_m = cid, distance
        clamped = REFERENCE_DISTANCE_M if distance < REFERENCE_DISTANCE_M else distance
        power = tx - (reference + slope * math.log10(clamped)) - value
        wideband.append(power)
        mw = 10.0 ** (power / 10.0)
        rssi_mw += mw
        if cid == serving:
            serving_mw = mw
        else:
            interference_mw += mw
    return Row(wideband, rssi_mw, serving_mw, interference_mw, nearest)


def oracle_nearest(env, position):
    """Id of the site closest to ``position`` (an ``(x, y)`` tuple of
    floats) by ``math.dist``; ``min`` keeps the first minimum of the
    id-ordered sites, so an exact tie goes to the lowest id."""
    sites = env.sites.tolist()
    return min(range(len(sites)), key=lambda cid: math.dist(sites[cid], position))


def oracle_row(env, ue, position, serving):
    """UE ``ue``'s pass at ``position`` while served by ``serving``, its
    shadowing from ``env.refresh_shadowing`` at ``position``."""
    return oracle_pass(env, position, serving, env.refresh_shadowing(ue, position).tolist())


def shadow_bits(env):
    """Every UE's shadowing row in ``env``, bit for bit: its values as
    ``float.hex`` strings, the sign of zero included, and the ``repr`` of
    the positions they were drawn at."""
    return {ue: ([v.hex() for v in values.tolist()], repr(anchors)) for ue, (values, anchors) in env._shadow.items()}


def oracle_window_sinrs(env, ues, xy, live, servings):
    """``window_sinrs`` computed by the oracle, one window at a time: every
    UE's shadowing row refreshed in turn, then each live window's pass."""
    shadowing = [env.refresh_shadowing(ue, position).tolist() for ue, position in zip(ues, map(tuple, xy.tolist()))]
    sinrs = []
    for k, serving in zip(live, servings):
        _, _, serving_mw, interference_mw, _ = oracle_pass(env, tuple(xy[k].tolist()), serving, shadowing[k])
        sinrs.append(linear_to_db(serving_mw / (interference_mw + env._noise_mw)))
    return sinrs


def channel_noise(env, n_ues):
    """One report tick's channel draws from ``env.rng``, one list per UE in
    id order, each UE's taken by its own ``normal`` calls: the ambient
    walk's step, then one measurement draw per site and the ambient
    reading's."""
    env_sigma, meas_sigma, n_sites = env.params.env_noise_sigma_db, env.params.meas_noise_sigma_db, len(env.sites)
    return [
        [float(env.rng.normal(0.0, env_sigma)), *env.rng.normal(0.0, meas_sigma, n_sites + 1).tolist()]
        for _ in range(n_ues)
    ]


def oracle_sample(env, ue, position, serving, draws):
    """UE ``ue``'s report-tick row from its ``oracle_row`` at ``position``
    while served by ``serving``, and its ``draws`` from ``channel_noise``:
    a kernel row of its sample and its linear powers by site id (a one-row
    array, as the kernel's chunk is, and row 0 of it), each ``10.0 **
    (power / 10.0)`` as ``oracle_pass`` raises it.

    The ambient level takes one bounded random-walk step; each site's
    measured RSRP is its wideband power scaled to one resource element,
    less the level's excursion above its mean, plus its measurement draw;
    the last draw makes the reading of the level.  A non-finite
    measurement or RSSI raises ValueError.  Detected cells are ranked by
    a stable descending sort, so equal measurements keep id order.  The
    SINR is ``sinr_of``'s, one scalar at a time."""
    wideband, rssi_mw, serving_mw, interference_mw, nearest = oracle_row(env, ue, position, serving)
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
    sinr_db = linear_to_db(serving_mw / (interference_mw + env._noise_mw))
    sample = RadioSample(measured, rssi_dbm, ranked, level + draws[-1], serving, sinr_db, nearest)
    return sample, np.array([[10.0 ** (power / 10.0) for power in wideband]]), 0


def oracle_rows(env, positions, servings):
    """One report tick's rows, UE ``i`` at the ``(x, y)`` tuple
    ``positions[i]`` served by ``servings[i]``."""
    noise = channel_noise(env, len(positions))
    return [oracle_sample(env, ue, p, s, d) for ue, (p, s, d) in enumerate(zip(positions, servings, noise))]


def oracle_tick(env, positions, servings):
    """One report tick's samples, as ``oracle_rows`` gives them."""
    return [sample for sample, *_ in oracle_rows(env, positions, servings)]


def oracle_samples(env, ticks, servings):
    """``block_samples`` computed by the oracle: an iterator over the rows
    of every tick of ``ticks`` in turn, each sample taken for ``servings``.
    A tick's rows are computed when its first row is read, as the kernel
    computes a shadowed tick's."""
    for positions in ticks.tolist():
        yield from oracle_rows(env, list(map(tuple, positions)), servings)
