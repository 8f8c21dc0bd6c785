"""Exactness audit of the array code that must equal a scalar pass.

The report kernel, the execution windows' link budget, construction's
nearest sites, KPI scoring and the trajectory layout promise the bits a
loop over Python floats would give.  numpy's reductions add in a pairwise
or blocked order, not left to right, and its transcendentals differ from
``math``'s in the last bit on a few percent of inputs; either would move
a golden digest only on the inputs that happen to expose it.  So the
audited functions may name no numpy function that is not on a reviewed
allow-list, and none of the known offenders, whatever object they are
reached through.
"""

import ast
import inspect
import textwrap

import pytest

from hosim import metrics, radio, sim

AUDITED = {
    "radio._mapped": radio._mapped,
    "radio.RadioEnvironment.block_samples": radio.RadioEnvironment.block_samples,
    "radio.RadioEnvironment._block_rows": radio.RadioEnvironment._block_rows,
    "radio.RadioEnvironment.window_powers": radio.RadioEnvironment.window_powers,
    "radio.RadioEnvironment.nearest_cell": radio.RadioEnvironment.nearest_cell,
    "radio.RadioEnvironment._distances": radio.RadioEnvironment._distances,
    "radio.RadioEnvironment._link_budget": radio.RadioEnvironment._link_budget,
    "radio.RadioEnvironment._array_chunk": radio.RadioEnvironment._array_chunk,
    **{f"metrics.{name}": getattr(metrics, name) for name in dir(metrics) if name.endswith("_array")},
    "metrics.MetricsAccumulator._score": metrics.MetricsAccumulator._score,
    "metrics.MetricsAccumulator._add_to_buckets": metrics.MetricsAccumulator._add_to_buckets,
    "sim.Simulation._advance_positions": sim.Simulation._advance_positions,
}

# Reductions whose order is not left to right, by attribute name on any
# object (``np.sum`` and ``array.sum()`` alike), and builtins likewise.
FORBIDDEN_ATTRIBUTES = {
    "sum": "pairwise summation, not left to right",
    "mean": "a pairwise sum, then a division",
    "dot": "a BLAS sum in blocked order",
    "fsum": "a correctly rounded sum, not a left-to-right one",
}
FORBIDDEN_BUILTINS = {
    "sum": "sums floats with compensation from Python 3.12 on, not left to right",
}
# numpy's own versions of the functions the scalar pass takes from math.
FORBIDDEN_NUMPY = {
    name: f"differs from math's {name} in the last bit on some inputs; map the math function instead"
    for name in ("log10", "log2", "power", "hypot", "exp")
}
FORBIDDEN_OPERATORS = {
    ast.MatMult: "@ is a BLAS sum in blocked order",
    ast.Pow: "** on an array is numpy's power; map math.pow instead",
}

# Every numpy name an audited function may use, and why it gives what the
# scalar pass gives.
ALLOWED_NUMPY = {
    "add": "np.add.accumulate is a running sum: one IEEE add per element, in index order",
    "maximum": "np.maximum(distance, 1.0): distances are non-negative, so it is the scalar clamp to 1 m",
    "argsort": "a stable sort (kind='stable') of exactly negated values keeps equal ones in id order",
    "where": "selects elements by a mask; no arithmetic",
    "isfinite": "a predicate; no arithmetic",
    "count_nonzero": "counts a comparison's hits; no float arithmetic",
    "flatnonzero": "indices of a mask; no arithmetic",
    "array": "builds an array from values already computed",
    "fromiter": "builds an array from values already computed",
    "concatenate": "joins arrays of values already computed",
    "empty": "allocates; every element used is written first",
    "zeros": "allocates +0.0, which a scalar pass starts from too",
    "arange": "integer row indices",
}


def body_nodes(source: str):
    """Every node of the body of the function defined in ``source``; its
    signature's annotations name types, not operations."""
    (function,) = ast.parse(textwrap.dedent(source)).body
    return (node for statement in function.body for node in ast.walk(statement))


def violations(source: str) -> list[str]:
    """What in ``source`` may differ from a scalar pass, one line each."""
    found = []
    for node in body_nodes(source):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FORBIDDEN_OPERATORS:
            found.append(f"line {node.lineno}: {FORBIDDEN_OPERATORS[type(node.op)]}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_BUILTINS:
            found.append(f"line {node.lineno}: {node.id}(): {FORBIDDEN_BUILTINS[node.id]}")
        elif isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id == "np"
            if node.attr in FORBIDDEN_ATTRIBUTES:
                found.append(f"line {node.lineno}: .{node.attr}: {FORBIDDEN_ATTRIBUTES[node.attr]}")
            elif on_numpy and node.attr in FORBIDDEN_NUMPY:
                found.append(f"line {node.lineno}: np.{node.attr}: {FORBIDDEN_NUMPY[node.attr]}")
            elif on_numpy and node.attr not in ALLOWED_NUMPY:
                found.append(f"line {node.lineno}: np.{node.attr} is not on the reviewed allow-list")
    return found


def numpy_names(source: str) -> set[str]:
    return {
        node.attr for node in body_nodes(source)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_audited_function_is_exact(name):
    assert violations(inspect.getsource(AUDITED[name])) == []


def test_allow_list_is_used_and_disjoint():
    # An exception nothing takes any more is dropped, so the list stays a
    # review of what the code does.
    used = set().union(*(numpy_names(inspect.getsource(fn)) for fn in AUDITED.values()))
    assert used == set(ALLOWED_NUMPY)
    assert not set(ALLOWED_NUMPY) & (set(FORBIDDEN_NUMPY) | set(FORBIDDEN_ATTRIBUTES))


@pytest.mark.parametrize("line", [
    "total = np.sum(mw, axis=1)",
    "total = mw.sum(axis=1)",
    "level = np.mean(levels)",
    "level = levels.mean()",
    "power = np.dot(weights, mw)",
    "power = weights.dot(mw)",
    "power = weights @ mw",
    "total = sum(mw.tolist())",
    "total = math.fsum(mw.tolist())",
    "log_distance = np.log10(distance)",
    "capacity = np.log2(1.0 + ratio)",
    "mw = np.power(10.0, wideband / 10.0)",
    "mw = 10.0 ** (wideband / 10.0)",
    "distance = np.hypot(dx, dy)",
    "ratio = np.exp(wideband)",
    "total = np.cumsum(mw, axis=1)",
])
def test_audit_catches(line):
    assert violations(f"def f():\n    {line}\n")
