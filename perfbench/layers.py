"""The layer table: which public callables of each ``src/repro/`` package
the traced run wraps, and how the folded spans become per-layer metrics.

A *span* is named after the layer boundary it times (``fading.kernel_eval``)
and wraps every callable listed for it.  Targets are ``module:Qualname``
strings; a method target must be defined in that class's own body, so a
table entry that no longer matches the code fails the traced run instead
of reporting zeros.  ``experiments.{id}`` spans take their name from the
:class:`~repro.engine.registry.ExperimentSpec` they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from perfbench import importtime


@dataclass(frozen=True)
class SpanSpec:
    """One layer boundary: a span name and the callables it wraps.

    ``units`` maps a call's return value to the amount of work it did
    (default: one unit per call); ``name_of`` derives the span name from
    the call's arguments instead of using ``name``.
    """

    name: str
    targets: tuple
    units: "Callable[[Any], int] | None" = None
    name_of: "Callable[..., str] | None" = None


def _methods(owner: str, *names: str) -> "tuple[str, ...]":
    return tuple(f"{owner}.{n}" for n in names)


def _experiment_span(spec: Any, *_args: Any, **_kwargs: Any) -> str:
    return f"experiments.{spec.experiment_id}"


#: Imported before wrapping: together with the table's own modules they
#: load every driver, so each by-name import is rebound and counted.
ENTRY_MODULES = ("repro.cli", "repro.experiments")

_CHANNELS = (
    "repro.channel.base:Channel",
    "repro.channel.rayleigh:RayleighChannel",
    "repro.channel.nonfading:NonFadingChannel",
    "repro.channel.montecarlo:MonteCarloChannel",
    "repro.channel.block:BlockFadingChannel",
)
_UTILITIES = (
    "repro.utility.binary:BinaryUtility",
    "repro.utility.shannon:ShannonUtility",
    "repro.utility.weighted:WeightedUtility",
)

SPANS: "tuple[SpanSpec, ...]" = (
    SpanSpec("cli", ("repro.cli:main",)),
    SpanSpec(
        "experiments",
        ("repro.engine.registry:ExperimentSpec.run",),
        name_of=_experiment_span,
    ),
    SpanSpec(
        "geometry.placement",
        tuple(
            f"repro.geometry.placement:{n}"
            for n in (
                "paper_random_network",
                "grid_network",
                "poisson_network",
                "cluster_network",
                "line_network",
                "nested_pairs_network",
            )
        ),
    ),
    SpanSpec(
        "core.network",
        (
            "repro.core.network:Network.__init__",
            "repro.core.network:Network.subnetwork",
            "repro.core.sinr:mean_signal_matrix",
            "repro.core.sinr:SINRInstance.from_network",
            "repro.core.sinr:SINRInstance.subinstance",
        ),
    ),
    SpanSpec(
        "core.sinr",
        (
            "repro.core.sinr:sinr_nonfading",
            "repro.core.sinr:sinr_nonfading_batch",
            "repro.core.sinr:successful_links",
            "repro.core.sinr:success_count",
        )
        + _methods(
            "repro.core.sinr:SINRInstance",
            "sinr",
            "sinr_batch",
            "successes",
            "success_count",
        ),
    ),
    SpanSpec(
        "core.affectance",
        tuple(
            f"repro.core.affectance:{n}"
            for n in (
                "affectance_matrix",
                "total_affectance",
                "is_feasible_set",
                "robust_subset",
                "max_average_affectance",
            )
        ),
    ),
    SpanSpec(
        "core.feasibility",
        (
            "repro.core.feasibility:power_feasibility_margin",
            "repro.core.feasibility:is_power_feasible",
            "repro.core.feasibility:min_feasible_powers",
            "repro.core.sinr:SINRInstance.is_feasible",
        ),
    ),
    SpanSpec("backend.gain_operator", ("repro.backend.core:ArrayBackend.gain_operator",)),
    SpanSpec("fading.kernel_build", ("repro.fading.success:Theorem1Kernel.__init__",)),
    SpanSpec(
        "fading.kernel_eval",
        _methods(
            "repro.fading.success:Theorem1Kernel",
            "conditional",
            "conditional_binary",
            "conditional_batch",
            "conditional_at",
        ),
    ),
    SpanSpec(
        "fading.wrapper",
        (
            "repro.fading.success:success_probability",
            "repro.fading.success:success_probability_conditional",
            "repro.fading.success:success_probability_conditional_batch",
        ),
    ),
    SpanSpec(
        "fading.mc",
        (
            "repro.fading.montecarlo:estimate_success_probability",
            "repro.fading.montecarlo:estimate_expected_utility",
            "repro.fading.montecarlo:expected_successes_exact",
            "repro.fading.rayleigh:sample_fading_gains",
            "repro.fading.rayleigh:simulate_sinr",
            "repro.fading.rayleigh:simulate_sinr_patterns",
            "repro.fading.rayleigh:simulate_slot",
            "repro.fading.rayleigh:simulate_slots",
            "repro.fading.rayleigh:simulate_slots_bernoulli",
            "repro.fading.models:simulate_sinr_patterns_with_model",
            "repro.fading.models:simulate_slots_with_model",
            "repro.fading.models:expected_successes_with_model",
        ),
    ),
    SpanSpec(
        "fading.bounds",
        (
            "repro.fading.bounds:success_probability_lower",
            "repro.fading.bounds:success_probability_upper",
        ),
    ),
    SpanSpec(
        "channel.realize",
        sum((_methods(c, "realize", "realize_batch") for c in _CHANNELS), ()),
    ),
    SpanSpec(
        "channel.counterfactual",
        sum((_methods(c, "counterfactual", "counterfactual_batch") for c in _CHANNELS), ()),
    ),
    SpanSpec(
        "channel.probability",
        sum(
            (
                _methods(c, "success_probability", "conditional_success_probability")
                for c in _CHANNELS
                if not c.endswith("BlockFadingChannel")
            ),
            (),
        )
        + _methods("repro.channel.base:Channel", "expected_successes")
        + _methods("repro.channel.block:BlockFadingChannel", "expected_successes"),
    ),
    SpanSpec(
        "channel.slot_fields",
        sum((_methods(c, "slot_fields", "apply_slot_fields") for c in _CHANNELS), ()),
    ),
    SpanSpec(
        "latency.slotloop",
        (
            "repro.latency.slotloop:run_contention",
            "repro.latency.slotloop:run_fixed_pattern",
        ),
    ),
    SpanSpec(
        "latency.schedulers",
        (
            "repro.latency.aloha:aloha_latency",
            "repro.latency.decay:decay_latency",
            "repro.latency.multihop:multihop_latency",
            "repro.latency.multihop:multihop_lower_bound",
            "repro.latency.repeated_max:repeated_max_latency",
            "repro.latency.schedule:validate_schedule",
            "repro.latency.schedule:replay_schedule",
        ),
    ),
    SpanSpec(
        "learning.rewards",
        (
            "repro.learning.regret:expected_send_rewards",
            "repro.learning.regret:lemma5_quantities",
        ),
    ),
    SpanSpec(
        "learning.game",
        (
            "repro.learning.game:CapacityGame.play",
            "repro.learning.equilibria:best_response_dynamics",
            "repro.learning.equilibria:is_equilibrium",
            "repro.learning.equilibria:price_of_anarchy_sample",
        ),
    ),
    SpanSpec(
        "capacity.optimum",
        (
            "repro.capacity.optimum:optimal_capacity_bruteforce",
            "repro.capacity.optimum:local_search_capacity",
        ),
    ),
    SpanSpec(
        "capacity.greedy",
        (
            "repro.capacity.greedy:greedy_capacity",
            "repro.capacity.flexible_rates:flexible_rate_capacity",
        ),
    ),
    SpanSpec("capacity.power_control", ("repro.capacity.power_control:power_control_capacity",)),
    SpanSpec(
        "transform.simulation",
        (
            "repro.transform.simulation:simulation_schedule",
            "repro.transform.simulation:simulate_rayleigh_optimum",
        ),
    ),
    SpanSpec(
        "transform.blackbox",
        (
            "repro.transform.blackbox:rayleigh_expected_binary",
            "repro.transform.blackbox:lemma2_lower_bound",
            "repro.transform.blackbox:transfer_capacity_algorithm",
        ),
    ),
    SpanSpec(
        "transform.aloha",
        (
            "repro.transform.aloha_transform:transformed_step_success_probability",
            "repro.transform.aloha_transform:transformed_step_simulate",
            "repro.transform.aloha_transform:estimate_step_success_nonfading",
        ),
    ),
    SpanSpec(
        "analysis.optimum",
        (
            "repro.analysis.model_gap:measured_optimum_gap",
            "repro.analysis.rayleigh_optimum:expected_capacity",
            "repro.analysis.rayleigh_optimum:expected_capacity_gradient",
            "repro.analysis.rayleigh_optimum:optimize_transmission_probabilities",
        ),
    ),
    SpanSpec(
        "analysis.graphs",
        (
            "repro.analysis.graphs:conflict_graph",
            "repro.analysis.graphs:affectance_digraph",
            "repro.analysis.graphs:graph_model_gap",
            "repro.analysis.lower_bounds:capacity_latency_lower_bound",
            "repro.analysis.lower_bounds:conflict_clique_lower_bound",
            "repro.analysis.lower_bounds:latency_lower_bound",
        ),
    ),
    SpanSpec(
        "utility",
        sum((_methods(u, "evaluate", "concave_from") for u in _UTILITIES), ())
        + _methods("repro.utility.base:UtilityProfile", "total", "is_valid_for")
        + ("repro.utility.base:validity_constant",),
    ),
    SpanSpec("engine.map_tasks", ("repro.engine.executor:map_tasks",)),
    SpanSpec("engine.task", ("repro.engine.backends.base:execute_task",)),
    SpanSpec("engine.worker_loop", ("repro.engine.backends.dispatch:worker_loop",)),
    SpanSpec("engine.journal_write", ("repro.engine.journal:RunJournal.record",)),
    SpanSpec(
        "engine.journal_read",
        ("repro.engine.journal:RunJournal.load_stage",),
        units=len,
    ),
    SpanSpec(
        "engine.lease",
        _methods(
            "repro.engine.journal:LeaseLedger",
            "claim",
            "heartbeat",
            "release",
            "load",
            "mtime",
        ),
    ),
    SpanSpec("obs.event_emit", ("repro.obs.events:EventBus.emit",)),
    SpanSpec(
        "obs.span_emit",
        ("repro.obs.trace:TraceWriter.emit", "repro.obs.trace:SpanCollector.emit"),
    ),
)

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 23))

#: metric -> (span, field) where field is "self", "total", "calls" or
#: "units" of the merged fold.  Self time is the span's own share;
#: ``experiments.E*_s`` are the exception — the span around one driver
#: is the root of its physics tree, so its *total* says where wall time
#: goes, while its self time would only show unwrapped driver code.
SPAN_METRICS: "dict[str, tuple[str, str]]" = {
    "cli.self_s": ("cli", "self"),
    **{f"experiments.{e}_s": (f"experiments.{e}", "total") for e in EXPERIMENT_IDS},
    "geometry.placement_s": ("geometry.placement", "self"),
    "geometry.calls": ("geometry.placement", "calls"),
    "core.network_s": ("core.network", "self"),
    "core.sinr_s": ("core.sinr", "self"),
    "core.sinr_calls": ("core.sinr", "calls"),
    "core.affectance_s": ("core.affectance", "self"),
    "core.feasibility_s": ("core.feasibility", "self"),
    "backend.gain_operator_s": ("backend.gain_operator", "self"),
    "backend.gain_operator_calls": ("backend.gain_operator", "calls"),
    "fading.kernel_builds": ("fading.kernel_build", "calls"),
    "fading.kernel_build_s": ("fading.kernel_build", "self"),
    "fading.kernel_evals": ("fading.kernel_eval", "calls"),
    "fading.kernel_eval_s": ("fading.kernel_eval", "self"),
    "fading.wrapper_calls": ("fading.wrapper", "calls"),
    "fading.mc_s": ("fading.mc", "self"),
    "fading.mc_calls": ("fading.mc", "calls"),
    "fading.bounds_s": ("fading.bounds", "self"),
    "channel.realize_calls": ("channel.realize", "calls"),
    "channel.realize_s": ("channel.realize", "self"),
    "channel.counterfactual_calls": ("channel.counterfactual", "calls"),
    "channel.counterfactual_s": ("channel.counterfactual", "self"),
    "channel.probability_s": ("channel.probability", "self"),
    "channel.slot_fields_s": ("channel.slot_fields", "self"),
    "latency.slotloop_calls": ("latency.slotloop", "calls"),
    "latency.slotloop_s": ("latency.slotloop", "self"),
    "latency.schedulers_s": ("latency.schedulers", "self"),
    "learning.rewards_s": ("learning.rewards", "self"),
    "learning.game_s": ("learning.game", "self"),
    "learning.game_calls": ("learning.game", "calls"),
    "capacity.optimum_s": ("capacity.optimum", "self"),
    "capacity.greedy_s": ("capacity.greedy", "self"),
    "capacity.power_control_s": ("capacity.power_control", "self"),
    "transform.simulation_s": ("transform.simulation", "self"),
    "transform.blackbox_s": ("transform.blackbox", "self"),
    "transform.aloha_s": ("transform.aloha", "self"),
    "analysis.optimum_s": ("analysis.optimum", "self"),
    "analysis.graphs_s": ("analysis.graphs", "self"),
    "utility.s": ("utility", "self"),
    "engine.map_tasks_s": ("engine.map_tasks", "self"),
    "engine.tasks": ("engine.task", "calls"),
    "engine.task_busy_s": ("engine.task", "total"),
    "engine.worker_wait_s": ("engine.worker_loop", "self"),
    "engine.journal_writes": ("engine.journal_write", "calls"),
    "engine.journal_write_s": ("engine.journal_write", "self"),
    "engine.journal_reads": ("engine.journal_read", "units"),
    "engine.journal_read_s": ("engine.journal_read", "self"),
    "engine.lease_ops": ("engine.lease", "calls"),
    "engine.lease_s": ("engine.lease", "self"),
    "obs.event_emits": ("obs.event_emit", "calls"),
    "obs.emit_s": ("obs.event_emit", "self"),
    "obs.span_emits": ("obs.span_emit", "calls"),
    "obs.trace_write_s": ("obs.span_emit", "self"),
}

IMPORT_METRICS = ("import.total_s", *importtime.PACKAGES, "import.modules")

#: Metrics the traced run computes from more than one span, from the
#: files the run left behind, or from its own two passes.
DERIVED_METRICS = (
    "fading.evals_per_build",
    "engine.worker_useful_ratio",
    "engine.journal_bytes",
    "obs.event_bytes",
    "obs.trace_bytes",
    "trace.overhead_ratio",
)

PER_LAYER_METRICS = IMPORT_METRICS + tuple(SPAN_METRICS) + DERIVED_METRICS


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if metric.endswith("_s") or metric == "utility.s":
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric.endswith("_per_build"):
        return "ratio"
    return "count"


def span_metrics(merged: "dict[str, dict[str, float]]") -> "dict[str, float]":
    """Per-layer metrics from a merged span fold (missing spans read 0)."""
    out: "dict[str, float]" = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = merged.get(span, {}).get(field, 0)
    builds = out["fading.kernel_builds"]
    out["fading.evals_per_build"] = out["fading.kernel_evals"] / builds if builds else 0.0
    return out


def useful_ratio(
    merged: "dict[str, dict[str, float]]", workers: int
) -> float:
    """Share of the workers' time inside ``map_tasks`` spent executing
    tasks: task busy time over ``workers`` x map_tasks wall time."""
    wall = merged.get("engine.map_tasks", {}).get("total", 0.0)
    busy = merged.get("engine.task", {}).get("total", 0.0)
    return busy / (workers * wall) if wall else 0.0


#: Per-layer metrics for which more is better; less is better for the rest.
HIGHER_IS_BETTER = frozenset(
    {
        "fading.evals_per_build",
        "engine.worker_useful_ratio",
        "engine.tasks",
        "engine.journal_reads",
    }
)
