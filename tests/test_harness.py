"""Tests for the experiment harness, report rendering, and CLI."""

import json

import pytest

from repro.analysis.report import ExperimentResult, fmt
from repro.harness import runner
from repro.harness.ablations import ABLATIONS
from repro.harness.engine import (
    ExperimentSpec,
    Variant,
    evaluate,
    experiment,
    plan,
)
from repro.harness.experiments import EXPERIMENTS, run_experiment, table1
from repro.harness.extensions import EXTENSIONS
from repro.harness.runner import main
from repro.sim import Session, SimRequest

#: Two cheap benchmarks exercising both divergence regimes.
SUBSET = ["lib", "pathfinder"]


@pytest.fixture(scope="module")
def cache():
    return Session(scale="small", subset=SUBSET, use_disk_cache=False)


class TestReport:
    def test_fmt(self):
        assert fmt(None).strip() == "N/A"
        assert fmt(0.12345).strip() == "0.123"
        assert fmt("x", width=3) == "  x"

    def test_table_roundtrip(self):
        r = ExperimentResult("figX", "demo", ["benchmark", "a", "b"])
        r.add_row("lib", 1.0, 2.0)
        r.add_row("aes", 3.0, None)
        assert r.column("a") == [1.0, 3.0]
        assert r.cell("aes", "b") is None
        assert r.row("lib")[0] == "lib"
        with pytest.raises(KeyError):
            r.row("nope")
        text = r.render()
        assert "figX" in text and "lib" in text and "N/A" in text

    def test_notes_rendered(self):
        r = ExperimentResult("f", "t", ["benchmark"], notes="hello")
        assert "note: hello" in r.render()


class TestSession:
    def test_memoises_runs(self, cache):
        first = cache.timing_run("lib", policy="baseline")
        second = cache.timing_run("lib", policy="baseline")
        assert first is second

    def test_distinct_keys_distinct_runs(self, cache):
        a = cache.functional_run("lib")
        b = cache.functional_run("lib", policy="static-4-0")
        assert a is not b

    def test_subset_respected(self, cache):
        assert cache.benchmarks() == SUBSET
        assert cache.benchmarks(["aes"]) == ["aes"]

    def test_request_is_hashable_identity(self):
        assert SimRequest("lib") == SimRequest("lib")
        assert SimRequest("lib") != SimRequest("lib", policy="baseline")

    def test_legacy_shim_importable(self):
        from repro.harness.sweeps import RunKey, SimulationCache

        assert RunKey is SimRequest
        assert SimulationCache is Session


class TestEngine:
    def test_variant_builds_request(self):
        variant = Variant(
            "x", policy="baseline", config_overrides=(("num_collectors", 8),)
        )
        request = variant.request("lib", "small")
        assert request.benchmark == "lib"
        assert request.policy == "baseline"
        assert request.scale == "small"
        assert request.gpu_config().num_collectors == 8

    def test_spec_grid_shape(self, cache):
        spec = EXPERIMENTS["fig09"]
        requests = spec.requests(cache)
        assert set(requests) == {
            (b, v) for b in SUBSET for v in ("baseline", "warped")
        }

    def test_reduction_id_mismatch_rejected(self, cache):
        @experiment("right", "t")
        def bad(grid):
            return ExperimentResult("wrong", "t", ["benchmark"])

        with pytest.raises(ValueError, match="produced 'wrong'"):
            evaluate(bad, cache)

    def test_spec_is_callable_driver(self, cache):
        spec = EXPERIMENTS["table1"]
        assert isinstance(spec, ExperimentSpec)
        assert spec(cache).exp_id == "table1"

    def test_grid_missing_cell_raises(self, cache):
        result_grid = EXPERIMENTS["fig03"].requests(cache)
        assert ("lib", "func") in result_grid
        from repro.harness.engine import ResultGrid

        grid = ResultGrid(SUBSET, {})
        with pytest.raises(KeyError, match="no result"):
            grid.get("lib", "func")


class TestExperiments:
    def test_registry_covers_every_figure(self):
        expected = {"table1"} | {
            f"fig{n:02d}"
            for n in (2, 3, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)
        }
        assert set(EXPERIMENTS) == expected

    def test_registries_are_disjoint(self):
        assert not set(EXPERIMENTS) & set(ABLATIONS)
        assert not set(EXPERIMENTS) & set(EXTENSIONS)
        assert not set(ABLATIONS) & set(EXTENSIONS)

    def test_table1_static(self):
        result = table1(Session(use_disk_cache=False))
        assert result.cell("<4,1>", "banks") == 3
        assert result.cell("<8,1>", "comp_bytes") == 23
        assert len(result.rows) == 9

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_fig03_rows_and_average(self, cache):
        result = EXPERIMENTS["fig03"](cache)
        assert [r[0] for r in result.rows] == SUBSET + ["AVERAGE"]
        for value in result.column("nondivergent"):
            assert 0.0 <= value <= 1.0

    def test_fig02_fractions_sum_to_one(self, cache):
        result = EXPERIMENTS["fig02"](cache)
        for row in result.rows:
            nd = sum(row[1:5])
            assert nd == pytest.approx(1.0, abs=1e-6)

    def test_fig05_breakdown(self, cache):
        result = EXPERIMENTS["fig05"](cache)
        lib_row = result.row("lib")
        assert sum(lib_row[1:]) == pytest.approx(1.0, abs=1e-6)
        # LIB's constant values are best served by <4,0>.
        assert result.cell("lib", "<4,0>") > 0.5

    def test_fig08_nondiv_ratio_reasonable(self, cache):
        result = EXPERIMENTS["fig08"](cache)
        assert result.cell("lib", "nondivergent") > 4.0
        assert result.cell("lib", "divergent") is None

    def test_fig09_energy_saving(self, cache):
        result = EXPERIMENTS["fig09"](cache)
        assert result.cell("lib", "wc_total") < 0.6
        for row in result.rows:
            total = row[-1]
            assert total == pytest.approx(sum(row[3:7]), rel=1e-6)

    def test_fig10_bank_monotonicity(self, cache):
        result = EXPERIMENTS["fig10"](cache)
        fractions = result.column("gated_fraction")[:-1]
        assert len(fractions) == 32
        # Highest bank of each cluster gated at least as much as lowest.
        for c in range(4):
            assert fractions[c * 8 + 7] >= fractions[c * 8] - 1e-9

    def test_fig11_mov_fractions(self, cache):
        result = EXPERIMENTS["fig11"](cache)
        assert result.cell("lib", "mov_fraction") == 0.0
        assert 0 < result.cell("pathfinder", "mov_fraction") < 0.1

    def test_fig12_na_handling(self, cache):
        result = EXPERIMENTS["fig12"](cache)
        assert result.cell("lib", "divergent") is None
        assert result.cell("pathfinder", "divergent") is not None

    def test_fig13_slowdown_moderate(self, cache):
        result = EXPERIMENTS["fig13"](cache)
        for value in result.column("slowdown"):
            assert 0.95 <= value <= 1.35

    def test_fig15_static_ratios_bounded_by_dynamic(self, cache):
        result = EXPERIMENTS["fig15"](cache)
        for row in result.rows:
            warped = row[1]
            # The dynamic scheme is at least as good as any static pick.
            assert warped >= max(row[2:]) - 1e-9

    def test_fig17_monotone_in_unit_energy(self, cache):
        result = EXPERIMENTS["fig17"](cache)
        for row in result.rows:
            values = row[1:]
            assert values == sorted(values)

    def test_fig19_wire_activity_helps_compression(self, cache):
        result = EXPERIMENTS["fig19"](cache)
        avg = result.row("AVERAGE")
        # Higher activity -> wires dominate -> compression saves more.
        assert avg[-1] <= avg[1] + 1e-9

    def test_fig20_monotone_in_latency(self, cache):
        result = EXPERIMENTS["fig20"](cache)
        for row in result.rows:
            assert row[1] <= row[-1] + 1e-9


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "benchmarks:" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bad_jobs_errors(self):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])

    def test_single_experiment_to_file(self, tmp_path, capsys):
        out = tmp_path / "results.txt"
        code = main(
            [
                "table1",
                "--scale",
                "small",
                "--quiet",
                "--no-cache",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "table1" in out.read_text()

    def test_parallel_default_equals_serial(self, tmp_path, monkeypatch):
        """The default fans out; ``--jobs 1`` writes the same bytes.

        Timing (fig09), functional (fig15) and BDI-collecting (fig05)
        keys, each on a cold cache of its own.
        """
        monkeypatch.setattr(runner, "usable_cores", lambda: 2)
        args = ["fig05", "fig09", "fig15", "--scale", "small",
                "--benchmarks", *SUBSET, "--quiet"]
        runs = {}
        for name, extra in (("default", []), ("serial", ["--jobs", "1"])):
            out, metrics = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
            assert main([*args, *extra,
                         "--cache-dir", str(tmp_path / name),
                         "--out", str(out),
                         "--metrics-out", str(metrics)]) == 0
            runs[name] = out.read_bytes(), json.loads(metrics.read_text())
        (default_out, default), (serial_out, serial) = runs.values()
        assert default_out == serial_out
        assert default["session"] == serial["session"]
        assert default["session"]["simulated"] > 0
        assert (default["jobs"], serial["jobs"]) == (2, 1)
        # Pool workers ship their codec-memo counters back to the parent.
        for metrics in (default, serial):
            workers = metrics["workers"].values()
            assert sum(w["simulations"] for w in workers) == (
                metrics["session"]["simulated"]
            )
            assert sum(w["memo_hits"] + w["memo_misses"] for w in workers)
        assert len(default["workers"]) > 1 and len(serial["workers"]) == 1

    def test_pass_runs_in_one_pool(self, tmp_path):
        """The whole pass is one batch: one pool of at most ``--jobs``.

        Figure 5's BDI key and Figure 15's four keys of a benchmark
        share one kernel run.
        """
        metrics = tmp_path / "metrics.json"
        assert main(["fig05", "fig15", "--jobs", "2", "--scale", "small",
                     "--benchmarks", *SUBSET, "--quiet", "--no-cache",
                     "--metrics-out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        workers = payload["workers"].values()
        assert 1 <= len(workers) <= 2
        simulated = payload["session"]["simulated"]
        assert simulated == 5 * len(SUBSET)
        assert sum(w["simulations"] for w in workers) == simulated
        assert payload["simulations"]["count"] == simulated
        assert payload["simulations"]["kernel_runs"] == len(SUBSET)
        assert payload["phases"]["plan"]["calls"] == 1

    def test_plan_orders_timing_first_then_shared_runs(self):
        session = Session(scale="small", subset=SUBSET, use_disk_cache=False)
        batch = plan([EXPERIMENTS[e] for e in ("fig15", "fig09", "fig05")],
                      session)
        # fig15: four functional keys; fig09: two timing; fig05: one BDI
        assert len(batch) == len(set(batch)) == 7 * len(SUBSET)
        timing = [r for r in batch if r.timing]
        assert batch[: len(timing)] == timing
        runs = [r.benchmark for r in batch[len(timing):]]
        # Each benchmark's functional keys are adjacent, in first-seen order.
        assert runs == sorted(runs, key=SUBSET.index)

    def test_cache_dir_flag_populates_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "fig03",
            "--scale",
            "small",
            "--benchmarks",
            "lib",
            "--quiet",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("results/*/*.json"))
        # Second invocation re-renders from the warm cache, identically.
        assert main(args) == 0
        assert capsys.readouterr().out == first
