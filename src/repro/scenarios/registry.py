"""The named workload registry.

Scenarios are registered under a name (directly or as a decorator), listed in
registration order, and resolved by every consumer — the experiment
scenario constructors, the ``python -m repro`` CLI, the benchmark
fixtures, and the cross-backend parity sweep in ``tests/test_scenarios.py``
(which parameterises over :func:`scenario_names`, so a newly registered
workload gets three-backend parity coverage without writing a test).

Third-party workloads plug in without editing this package::

    from repro.scenarios import ScenarioConfig, register_scenario

    @register_scenario("hurricane", description="landfalling eyewall",
                       tags=("storm-family",))
    def _hurricane(**overrides):
        return ScenarioConfig(storm=HurricaneConfig(), **overrides)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.scenarios.spec import ScenarioConfig, ScenarioFactory, ScenarioSpec

__all__ = [
    "create_scenario_config",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_specs",
]

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    factory: Optional[ScenarioFactory] = None,
    *,
    description: str = "",
    tags: Tuple[str, ...] = (),
):
    """Register ``factory`` as the workload named ``name``.

    Usable directly (``register_scenario("tiny", make_tiny, ...)``) or as a
    decorator (``@register_scenario("tiny", ...)``).  Re-registering a name
    overwrites it — that is how a downstream package deliberately replaces a
    built-in workload.

    The spec's ``default_ranks``/``default_snapshots`` metadata is read off
    the config the factory builds with no overrides, so it cannot drift from
    what the factory actually produces.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("scenario name must not be empty")

    def register(func: ScenarioFactory) -> ScenarioFactory:
        defaults = func()
        _REGISTRY[key] = ScenarioSpec(
            name=key,
            factory=func,
            description=description,
            tags=tuple(tags),
            default_ranks=defaults.ncores,
            default_snapshots=defaults.nsnapshots,
        )
        return func

    return register if factory is None else register(factory)


def scenario_names() -> Tuple[str, ...]:
    """Registered workload names, in registration order."""
    return tuple(_REGISTRY)


def scenario_specs() -> Tuple[ScenarioSpec, ...]:
    """Registered workload specs, in registration order."""
    return tuple(_REGISTRY.values())


def get_scenario(name: str) -> ScenarioSpec:
    """The spec registered under ``name`` (case-insensitive).

    Raises ``KeyError`` naming the available workloads when unknown — the
    message the CLI surfaces on a typo.
    """
    key = name.strip().lower()
    spec = _REGISTRY.get(key)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return spec


def create_scenario_config(name: str, **overrides) -> ScenarioConfig:
    """Build the :class:`ScenarioConfig` of the workload named ``name``.

    Keyword overrides (``ncores``, ``nsnapshots``, ``shape``,
    ``blocks_per_subdomain``, ``seed``, ...) replace the family's defaults;
    ``None`` values are ignored so CLI arguments can be forwarded directly.
    """
    return get_scenario(name).build(**overrides)
