"""Topology specification strings: the CLI-facing mini-language.

A *spec* names a generator plus optional keyword arguments::

    ring
    grid:cols=3
    random_gnp:p=0.4
    clustered:clusters=3,bridges=2

Values are parsed as int, then float, then bool (``0``/``1``/``true``/
``false``), then kept as strings, and handed to the generator verbatim, so a
new generator option needs no parser change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .base import Topology
from .generators import TOPOLOGY_GENERATORS, make_topology, topology_names

__all__ = ["TopologySpecError", "parse_topology_spec", "build_topology",
           "describe_topologies"]

OptionValue = Union[int, float, bool, str]


class TopologySpecError(ValueError):
    """A spec string that is empty, malformed or names no generator.

    A usage error wherever the string came from (``--topology``, a sweep's
    ``--values``), which the CLI reports in one line with exit status 2.
    """


def _parse_value(raw: str) -> OptionValue:
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            pass
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return raw


def parse_topology_spec(spec: str) -> Tuple[str, Dict[str, OptionValue]]:
    """Split ``kind[:key=value,...]`` into the generator name and its options."""
    spec = spec.strip()
    if not spec:
        raise TopologySpecError("empty topology spec")
    kind, _, tail = spec.partition(":")
    kind = kind.strip()
    if kind not in TOPOLOGY_GENERATORS:
        raise TopologySpecError(f"unknown topology {kind!r}; choose from "
                                f"{', '.join(topology_names())}")
    options: Dict[str, OptionValue] = {}
    if tail:
        for item in tail.split(","):
            key, separator, raw = item.partition("=")
            key = key.strip()
            if not separator or not key:
                raise TopologySpecError(
                    f"malformed topology option {item!r} (expected key=value)")
            options[key] = _parse_value(raw.strip())
    return kind, options


def build_topology(spec: Union[str, Topology, None], n: int,
                   seed: int = 0) -> Union[Topology, None]:
    """Resolve a spec string (or pass through an existing topology / ``None``)."""
    if spec is None or isinstance(spec, Topology):
        return spec
    kind, options = parse_topology_spec(spec)
    return make_topology(kind, n, seed=seed, **options)


def describe_topologies() -> List[Tuple[str, str]]:
    """(name, description) rows for the CLI ``topologies`` listing."""
    return [(name, TOPOLOGY_GENERATORS[name][1]) for name in topology_names()]
