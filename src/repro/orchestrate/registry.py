"""Declarative workload-spec registry.

The harness's figure loops build workloads with factory closures, which
cannot cross a process boundary. The orchestrator instead refers to
workloads by **spec name + params dict**; this module maps those back to
:class:`~repro.workloads.base.Workload` instances inside whichever
process executes the job.

Built-in specs (params in parentheses, all optional unless noted):

``app``
    One of the 19 application stand-ins
    (``name`` required; ``lock_name``, ``barrier_name``, ``scale``,
    ``input_class``).
``lock``
    :class:`LockMicrobench` (``lock_name``, ``iterations``,
    ``cs_cycles``, ``outside_cycles``).
``barrier``
    :class:`BarrierMicrobench` (``barrier_name``, ``episodes``,
    ``skew_cycles``, ``lock_name``).
``signal_wait``
    :class:`SignalWaitMicrobench` (``rounds``, ``gap_cycles``).
``pipeline``
    :class:`PipelineWorkload` (``items``, ``work_cycles``).
``task_queue``
    :class:`TaskQueueWorkload` (``tasks``, ``lock_name``,
    ``work_cycles``, ``work_lines``).

New specs register with :func:`register_workload_spec`; registration at
import time makes them visible to forked pool workers automatically.

Every CLI names a simulation point the same way, parsed here by
:func:`parse_run_spec`: ``--workload name[:detail]`` (the detail fills
the param :data:`DETAIL_PARAM` names, e.g. ``app:barnes`` or
``lock:clh``), repeated ``--param KEY=VALUE`` and ``--override
KEY=VALUE`` pairs, and ``--cores N`` as a default ``num_cores``
override. The single-run CLIs add ``--config`` and ``--seed`` and turn
the lot into one :class:`~repro.orchestrate.jobspec.JobSpec` with
:func:`spec_from_flags`.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.orchestrate.jobspec import JobSpec
from repro.workloads.base import Workload
from repro.workloads.extra import PipelineWorkload, TaskQueueWorkload
from repro.workloads.microbench import (BarrierMicrobench, LockMicrobench,
                                        SignalWaitMicrobench)
from repro.workloads.suite import get_workload

WorkloadBuilder = Callable[..., Workload]

_REGISTRY: Dict[str, WorkloadBuilder] = {}


def register_workload_spec(name: str, builder: WorkloadBuilder = None,
                           replace: bool = False):
    """Register ``builder`` under ``name`` (also usable as a decorator).

    The builder receives the spec's params as keyword arguments and must
    return a :class:`Workload`.
    """
    def _register(fn: WorkloadBuilder) -> WorkloadBuilder:
        if name in _REGISTRY and not replace:
            raise ValueError(f"workload spec {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    if builder is None:
        return _register
    return _register(builder)


def build_workload(name: str, params: Mapping[str, Any] = None) -> Workload:
    """Instantiate the workload spec ``name`` with ``params``."""
    builder = _REGISTRY.get(name)
    if builder is None:
        raise ValueError(f"unknown workload spec {name!r}; "
                         f"registered: {workload_spec_names()}")
    return builder(**dict(params or {}))


def workload_spec_names() -> List[str]:
    return sorted(_REGISTRY)


# --------------------------------------------------------------- built-ins

register_workload_spec("app", lambda name, **kw: get_workload(name, **kw))


@register_workload_spec("lock")
def _lock(lock_name: str = "ttas", **kw) -> Workload:
    return LockMicrobench(lock_name, **kw)


@register_workload_spec("barrier")
def _barrier(barrier_name: str = "treesr", **kw) -> Workload:
    return BarrierMicrobench(barrier_name, **kw)


register_workload_spec("signal_wait",
                       lambda **kw: SignalWaitMicrobench(**kw))
register_workload_spec("pipeline", lambda **kw: PipelineWorkload(**kw))
register_workload_spec("task_queue", lambda **kw: TaskQueueWorkload(**kw))


# ------------------------------------------------------------ CLI parsing

#: ``name:detail`` shorthand -> the workload param the detail names
#: (any other spec's detail sets ``name``).
DETAIL_PARAM = {"app": "name", "lock": "lock_name",
                "barrier": "barrier_name"}


def parse_value(text: str) -> Any:
    """Best-effort literal: int, float, bool, None, else string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_pairs(pairs: Sequence[str], what: str,
                value: Callable[[str], Any] = parse_value) -> Dict[str, Any]:
    """``KEY=VALUE`` strings as a dict, each value through ``value``;
    a malformed pair exits with a message naming the ``what`` flag."""
    out: Dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, text = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad {what} {pair!r}; expected KEY=VALUE")
        out[key] = value(text)
    return out


def parse_run_spec(workload: str, params: Sequence[str] = (),
                   overrides: Sequence[str] = (), cores: int = 0,
                   value: Callable[[str], Any] = parse_value,
                   ) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """``(spec name, workload params, config overrides)`` from the
    shared CLI flags (see the module docstring). ``value`` parses
    override values, so a sweeping CLI can turn each into a list."""
    name, _, detail = workload.partition(":")
    name = name.replace("-", "_")
    parsed = parse_pairs(params, "--param")
    if detail:
        parsed.setdefault(DETAIL_PARAM.get(name, "name"), detail)
    config = parse_pairs(overrides, "--override", value)
    if cores:
        config.setdefault("num_cores", value(str(cores)))
    return name, parsed, config


def spec_from_flags(args: argparse.Namespace) -> JobSpec:
    """The one simulation a single-run CLI's ``--workload``, ``--param``,
    ``--override``, ``--cores``, ``--config`` and ``--seed`` name."""
    name, params, overrides = parse_run_spec(
        args.workload, args.param, args.override, args.cores)
    return JobSpec(config_label=args.config, workload=name,
                   workload_params=params, config_overrides=overrides,
                   seed=args.seed)
