"""``warped-compression`` CLI: regenerate the paper's tables and figures.

Examples::

    warped-compression --list
    warped-compression fig09 fig13
    warped-compression all --scale small --out results.txt
    warped-compression fig09 --no-cache   # force fresh simulations
    warped-compression fig09 --jobs 1     # simulate serially

Simulations run through the :mod:`repro.sim` session layer: distinct
(kernel, config) pairs are simulated exactly once per invocation, fan
out across every usable core (``--jobs``), and persist in a
content-addressed on-disk cache (``.repro-cache`` by default, override
with ``--cache-dir`` or ``$REPRO_CACHE_DIR``) so re-rendering a figure
against a warm cache performs zero simulations.

Parallelism knobs, disambiguated (they are easy to conflate):

* ``--jobs N`` (this CLI) — *batch* parallelism: how many simulation
  jobs one invocation runs concurrently.  The default is every core
  this process may run on (:func:`~repro.sim.session.usable_cores`);
  ``--jobs 1`` simulates serially, in this process.  Both write
  byte-identical tables.  The invocation plans its whole pass first:
  the requests of every experiment go to the session as one batch
  (timing keys first, then functional keys grouped by benchmark), so
  one pool of at most ``N`` workers serves the pass, and the functional
  keys of one benchmark share one kernel run (one job).  Each
  experiment then renders from the session's memo; ``--metrics-out``
  times the batch as the ``plan`` phase and records the kernel runs
  behind the simulated keys;
* ``repro serve --workers N`` / ``$REPRO_SERVE_WORKERS`` — *service*
  parallelism: the long-lived server's simulation worker-pool size
  (see :mod:`repro.serve`); its queue depth is bounded separately by
  ``--max-queue``.

* ``--cluster HOST:PORT`` (this CLI) — *fleet* parallelism: cache
  misses are shipped to a ``repro cluster`` coordinator and simulated
  by its workers; results are byte-identical to a local run because
  the same session code computes keys and parses results either way.

**Cache directory resolution** (one rule for every entry point —
this runner, ``repro serve``, ``repro cluster coordinator|worker``,
``repro verify``'s artifact root, and ``repro cache``): an explicit
``--cache-dir`` wins, else ``$REPRO_CACHE_DIR``, else ``.repro-cache``
in the working directory.  Point ``$REPRO_CACHE_DIR`` at one directory
and every tool shares one result universe — a warm batch cache
pre-answers server traffic, a fleet's results re-render figures
locally, and vice versa.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.harness.ablations import ABLATIONS
from repro.harness.engine import plan
from repro.harness.experiments import EXPERIMENTS
from repro.harness.extensions import EXTENSIONS
from repro.harness.sweeps import replay_spec, replayable
from repro.kernels import benchmark_names
from repro.obs.log import configure_logging, get_logger
from repro.obs.profiler import HostProfiler
from repro.sim import Session
from repro.sim.session import usable_cores

logger = get_logger("harness.runner")

#: Everything the CLI can run: the paper's figures, our ablations, and
#: the extension studies (RFC orthogonality).
ALL_DRIVERS = {**EXPERIMENTS, **ABLATIONS, **EXTENSIONS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="warped-compression",
        description="Reproduce the Warped-Compression (ISCA 2015) evaluation",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (fig02..fig21, table1, abl-*, ext-*), "
        "'all' (the paper's figures), 'ablations', or 'extensions'",
    )
    parser.add_argument(
        "--scale",
        choices=("small", "default"),
        default="default",
        help="workload scale (small for a quick pass)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        metavar="NAME",
        help="restrict to a subset of benchmarks",
    )
    parser.add_argument("--out", help="also write results to this file")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each experiment's last column as a bar chart",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="progress-message verbosity (default: info; --quiet implies "
        "warning)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write host-side profiling metrics (phase wall-clock, cache "
        "hits, per-worker throughput) to FILE as JSON",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=usable_cores(),
        metavar="N",
        help="simulate up to N distinct (kernel, config) pairs in parallel "
        "(default: every usable core, here %(default)s; 1 runs serially)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk result cache location (default: .repro-cache, "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (in-process memo only)",
    )
    parser.add_argument(
        "--cluster",
        metavar="HOST:PORT",
        help="run cache misses on a worker fleet via this cluster "
        "coordinator (see `repro cluster`); results are byte-identical "
        "to a local run",
    )
    parser.add_argument(
        "--replay-tier",
        action="store_true",
        help="re-price all-functional experiments from stored register-"
        "write traces (one capture per benchmark, zero simulations once "
        "the trace exists); timing experiments run normally",
    )
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in ALL_DRIVERS:
            print(exp_id)
        print(f"benchmarks: {', '.join(benchmark_names())}")
        return 0

    requested = args.experiments or ["all"]
    if "all" in requested:
        # "all" means the paper's evaluation; ablations run by name or
        # via "ablations".
        requested = list(EXPERIMENTS)
    if "ablations" in requested:
        requested = [e for e in requested if e != "ablations"]
        requested += list(ABLATIONS)
    if "extensions" in requested:
        requested = [e for e in requested if e != "extensions"]
        requested += list(EXTENSIONS)
    unknown = [e for e in requested if e not in ALL_DRIVERS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    # One knob for all progress output: every ad-hoc message below (and
    # in the session layer) goes through the repro.obs logging tree.
    level = args.log_level or ("warning" if args.quiet else "info")
    configure_logging(level)

    profiler = HostProfiler()
    if args.cluster:
        if args.no_cache:
            parser.error("--cluster needs the disk cache (drop --no-cache)")
        from repro.cluster.session import ClusterSession
        from repro.serve.http import parse_hostport

        host, port = parse_hostport(args.cluster, 8650)
        session = ClusterSession(
            host,
            port,
            cache_dir=args.cache_dir,
            scale=args.scale,
            verbose=not args.quiet,
            subset=args.benchmarks,
            max_workers=args.jobs,
            profiler=profiler,
        )
    else:
        session = Session(
            scale=args.scale,
            verbose=not args.quiet,
            subset=args.benchmarks,
            cache_dir=args.cache_dir,
            use_disk_cache=not args.no_cache,
            max_workers=args.jobs,
            profiler=profiler,
        )
    drivers = {}
    for exp_id in requested:
        driver = ALL_DRIVERS[exp_id]
        if args.replay_tier and replayable(driver):
            driver = replay_spec(driver)
            logger.info(f"{exp_id}: replay tier (pricing from stored traces)")
        drivers[exp_id] = driver

    # Simulate the whole pass as one batch: one pool, keys that share a
    # kernel run in one job, then every experiment renders from the memo.
    start = time.time()
    with profiler.phase("plan"):
        batch = plan(drivers.values(), session)
        logger.info(
            f"planned {len(batch)} distinct requests for "
            f"{len(drivers)} experiments ..."
        )
        session.run_many(batch)
    logger.info(f"  ({time.time() - start:.1f}s)\n")

    blocks = []
    for exp_id, driver in drivers.items():
        start = time.time()
        logger.info(f"running {exp_id} ...")
        with profiler.phase(exp_id):
            result = driver(session)
            text = result.render()
        if args.chart:
            from repro.analysis.plots import chart_experiment

            text += "\n\n" + chart_experiment(result)
        blocks.append(text)
        print(text, flush=True)
        logger.info(f"  ({time.time() - start:.1f}s)\n")

    logger.info(
        f"session: {session.simulated} simulated, "
        f"{session.replayed} trace-replayed, "
        f"{session.memo_hits} memo hits, "
        f"{session.disk_hits} disk-cache hits"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(blocks) + "\n")
    if args.metrics_out:
        payload = profiler.to_dict()
        payload["jobs"] = args.jobs
        payload["session"] = {
            "simulated": session.simulated,
            "replayed": session.replayed,
            "memo_hits": session.memo_hits,
            "disk_hits": session.disk_hits,
        }
        with open(args.metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        logger.info(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
