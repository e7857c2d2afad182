"""The shared experiment engine: declarative specs over Session artifacts.

An experiment is a *workload × config grid* plus a *pure reduction*:

* :class:`Variant` — one named simulator configuration (policy,
  scheduler, latencies, arbitrary :class:`~repro.gpu.config.GPUConfig`
  overrides);
* :class:`ExperimentSpec` — which benchmarks × which variants to run,
  and a reduction turning the resulting grid of
  :class:`~repro.sim.result.RunResult` artifacts into an
  :class:`~repro.analysis.report.ExperimentResult` table;
* :func:`evaluate` — the one engine that expands the grid, hands every
  request to the :class:`~repro.sim.session.Session` (which dedupes,
  caches, and optionally parallelizes), and applies the reduction;
* :func:`plan` — the union of several specs' grids as one ordered batch,
  which the CLI simulates in one :meth:`~repro.sim.session.Session.run_many`
  call before rendering each spec from the session's memo.

Because all execution funnels through the session, two experiments that
share a (kernel, config) pair — e.g. the Figure 9 and Figure 14 baseline
runs — share one simulation, and a warm on-disk cache re-renders any
table without simulating at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.report import ExperimentResult
from repro.sim.result import RunResult
from repro.sim.session import Session, SimRequest

#: Label of the per-experiment summary row.
AVERAGE = "AVERAGE"


@dataclass(frozen=True)
class Variant:
    """One named point of an experiment's configuration grid."""

    name: str
    policy: str = "warped"
    scheduler: str = "gto"
    compression_latency: int = 2
    decompression_latency: int = 1
    rfc_entries: int = 0
    timing: bool = True
    collect_bdi: bool = False
    config_overrides: tuple[tuple[str, object], ...] = ()
    #: functional variants only: price via the session's trace-replay
    #: tier instead of executing the kernel (see repro.harness.sweeps)
    replay: bool = False

    def request(self, benchmark: str, scale: str) -> SimRequest:
        """The simulation request this variant needs for one benchmark."""
        return SimRequest(
            benchmark=benchmark,
            policy=self.policy,
            scheduler=self.scheduler,
            compression_latency=self.compression_latency,
            decompression_latency=self.decompression_latency,
            rfc_entries=self.rfc_entries,
            timing=self.timing,
            collect_bdi=self.collect_bdi,
            scale=scale,
            config_overrides=self.config_overrides,
            replay=self.replay,
        )


class ResultGrid:
    """benchmark × variant grid of RunResult artifacts (read-only)."""

    def __init__(
        self,
        benchmarks: list[str],
        results: dict[tuple[str, str], RunResult],
    ):
        self.benchmarks = benchmarks
        self._results = results

    def get(self, benchmark: str, variant: str) -> RunResult:
        try:
            return self._results[(benchmark, variant)]
        except KeyError:
            raise KeyError(
                f"no result for benchmark {benchmark!r}, variant {variant!r}"
            ) from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One table/figure: a config grid plus a pure reduction function.

    Calling a spec with a :class:`Session` evaluates it, so specs are
    drop-in replacements for the old imperative driver functions.
    """

    exp_id: str
    title: str
    reduce: Callable[[ResultGrid], ExperimentResult]
    variants: tuple[Variant, ...] = ()
    #: explicit benchmark list; ``None`` follows the session's suite
    suite: tuple[str, ...] | None = None
    #: draw benchmarks from the extended (non-paper) suite instead
    extended: bool = False

    def __call__(self, session: Session) -> ExperimentResult:
        return evaluate(self, session)

    def resolve_benchmarks(self, session: Session) -> list[str]:
        if self.extended:
            from repro.kernels import benchmark_names

            return benchmark_names(extended=True)
        if self.suite is not None:
            return session.benchmarks(list(self.suite))
        return session.benchmarks()

    def requests(self, session: Session) -> dict[tuple[str, str], SimRequest]:
        """The full workload × config grid as concrete requests."""
        return {
            (benchmark, variant.name): variant.request(benchmark, session.scale)
            for benchmark in self.resolve_benchmarks(session)
            for variant in self.variants
        }


def evaluate(spec: ExperimentSpec, session: Session) -> ExperimentResult:
    """Expand ``spec``'s grid, run it through ``session``, reduce."""
    requests = spec.requests(session)
    results = session.run_many(requests.values()) if requests else {}
    grid = ResultGrid(
        benchmarks=spec.resolve_benchmarks(session),
        results={
            cell: results[request] for cell, request in requests.items()
        },
    )
    result = spec.reduce(grid)
    if result.exp_id != spec.exp_id:
        raise ValueError(
            f"reduction for {spec.exp_id!r} produced {result.exp_id!r}"
        )
    return result


def plan(specs: Iterable[ExperimentSpec], session: Session) -> list[SimRequest]:
    """Every distinct request of ``specs``, ordered for one batch.

    Timing requests come first, since they run longest; functional ones
    follow grouped by (benchmark, scale), so the keys that share one
    kernel run sit together (and land in one shard on a fleet).  Within
    each part, first-seen order is kept.
    """
    requests = dict.fromkeys(
        request for spec in specs for request in spec.requests(session).values()
    )
    groups: dict[tuple[str, str], int] = {}
    for request in requests:
        if not request.timing:
            groups.setdefault((request.benchmark, request.scale), len(groups))
    return sorted(
        requests,
        key=lambda r: -1 if r.timing else groups[(r.benchmark, r.scale)],
    )


@dataclass(frozen=True)
class _SpecBuilder:
    """Decorator sugar: ``@experiment(...)`` turns a reduction into a spec."""

    exp_id: str
    title: str
    variants: tuple[Variant, ...] = ()
    suite: tuple[str, ...] | None = None
    extended: bool = False

    def __call__(
        self, reduce: Callable[[ResultGrid], ExperimentResult]
    ) -> ExperimentSpec:
        return ExperimentSpec(
            exp_id=self.exp_id,
            title=self.title,
            reduce=reduce,
            variants=self.variants,
            suite=self.suite,
            extended=self.extended,
        )


def experiment(
    exp_id: str,
    title: str,
    variants: tuple[Variant, ...] | list[Variant] = (),
    suite: tuple[str, ...] | None = None,
    extended: bool = False,
) -> _SpecBuilder:
    """Declare an experiment: grid in the decorator, reduction below it."""
    return _SpecBuilder(
        exp_id=exp_id,
        title=title,
        variants=tuple(variants),
        suite=suite,
        extended=extended,
    )
