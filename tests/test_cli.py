"""Tests for the ``deact`` command-line interface."""

import pytest

from repro.cli import main


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--benchmark", "mcf", "--arch", "deact-n",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "deact-n" in out
        assert "ACM hit rate" in out
        assert "node streams 1 built, 0 reused, 0 refused" in out

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "doom", "--arch", "e-fam"])

    def test_run_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "mcf", "--arch", "z-fam"])


class TestCompareCommand:
    def test_compare_lists_all_architectures(self, capsys):
        code = main(["compare", "--benchmark", "mg",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        for arch in ("e-fam", "i-fam", "deact-w", "deact-n"):
            assert arch in out
        assert "vs I-FAM" in out

    def test_compare_multi_node(self, capsys):
        code = main(["compare", "--benchmark", "mg", "--nodes", "2",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0

    def test_compare_with_jobs(self, capsys):
        code = main(["compare", "--benchmark", "mg", "--jobs", "2",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        for arch in ("e-fam", "i-fam", "deact-w", "deact-n"):
            assert arch in out

    def test_compare_rejects_zero_jobs(self):
        with pytest.raises(SystemExit):
            main(["compare", "--benchmark", "mg", "--jobs", "0"])

    def test_compare_output_identical_across_jobs(self, capsys):
        argv = ["compare", "--benchmark", "mg",
                "--events", "800", "--footprint-scale", "0.01"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestSweepCommand:
    def test_sweep_prints_every_cell(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--arch", "i-fam", "--events", "1500",
                     "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "e-fam" in out and "i-fam" in out
        assert "default" in out

    def test_sweep_repeated_axis_accumulates_values(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--axis", "stu-entries=256",
                     "--axis", "stu-entries=512",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stu-entries=256" in out
        assert "stu-entries=512" in out

    def test_sweep_with_axis_and_jobs(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--axis", "stu-entries=256,512", "--jobs", "2",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stu-entries=256" in out
        assert "stu-entries=512" in out

    def test_sweep_writes_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "1500", "--footprint-scale", "0.01",
                     "--cache", str(cache)])
        assert code == 0
        assert cache.exists()

    def test_sweep_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "doom"])

    def test_sweep_rejects_unknown_architecture(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--arch", "z-fam"])

    def test_sweep_rejects_unknown_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf",
                  "--axis", "warp-factor=9"])
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_sweep_rejects_malformed_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--axis", "stu-entries"])
        assert "NAME=V1" in capsys.readouterr().err

    def test_sweep_jobs_defaults_to_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=3" in capsys.readouterr().out

    def test_sweep_jobs_flag_overrides_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--jobs", "1",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_sweep_garbage_env_var_falls_back_to_serial(
            self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "a-lot")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out


class TestShardedSweep:
    SPEC = ["--benchmark", "mcf", "--arch", "e-fam", "--arch", "i-fam",
            "--events", "800", "--footprint-scale", "0.01"]

    def test_shard_requires_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "1/2"])
        assert "--shard requires --cache" in capsys.readouterr().err

    def test_shard_rejects_malformed_spec(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "oops",
                  "--cache", str(tmp_path / "r.json")])
        assert "--shard expects I/N" in capsys.readouterr().err

    def test_shard_rejects_out_of_range_index(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "3/2",
                  "--cache", str(tmp_path / "r.json")])
        assert "1..count" in capsys.readouterr().err

    def test_shard_writes_shard_cache_and_manifest(self, capsys, tmp_path):
        cache = tmp_path / "r.json"
        code = main(["sweep", *self.SPEC, "--cache", str(cache),
                     "--shard", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shard 1/2: 1 of 2 cells" in out
        assert (tmp_path / "r.shard-1-of-2.json").exists()
        assert (tmp_path / "r.shard-1-of-2.manifest.json").exists()
        assert not cache.exists()  # canonical cache only via merge

    def test_shard_merge_validate_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "r.json")
        assert main(["sweep", *self.SPEC, "--cache", cache,
                     "--shard", "1/2"]) == 0
        assert main(["sweep", *self.SPEC, "--cache", cache,
                     "--shard", "2/2"]) == 0
        assert main(["cache", "merge", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard cache(s)" in out
        assert main(["cache", "validate", "--cache", cache,
                     *self.SPEC]) == 0
        assert "verdict   : OK" in capsys.readouterr().out
        assert main(["cache", "status", "--cache", cache,
                     *self.SPEC]) == 0
        assert "2/2 cells (100.0%)" in capsys.readouterr().out

        # The reassembled cache equals what an unsharded sweep writes.
        from repro.experiments.shardfile import canonical_cache_text

        unsharded = str(tmp_path / "full.json")
        assert main(["sweep", *self.SPEC, "--cache", unsharded]) == 0
        assert canonical_cache_text(cache) == \
            canonical_cache_text(unsharded)


class TestCacheCommand:
    SPEC = ["--benchmark", "mcf", "--arch", "e-fam",
            "--events", "800", "--footprint-scale", "0.01"]

    def test_merge_without_shards_fails(self, capsys, tmp_path):
        code = main(["cache", "merge",
                     "--cache", str(tmp_path / "r.json")])
        assert code == 1
        assert "no shard caches" in capsys.readouterr().err

    def test_merge_unverifiable_shards_fail_without_force(
            self, capsys, tmp_path):
        import json

        # Hand-written shard caches with no manifests: strict mode
        # cannot verify they belong to any sweep and refuses; --force
        # merges anyway with first-seen payload winning.
        base = tmp_path / "r.json"
        (tmp_path / "r.shard-1-of-2.json").write_text(
            json.dumps({"k": {"v": 1}}))
        (tmp_path / "r.shard-2-of-2.json").write_text(
            json.dumps({"k": {"v": 2}}))
        assert main(["cache", "merge", "--cache", str(base)]) == 1
        assert "no manifest" in capsys.readouterr().err
        assert main(["cache", "merge", "--cache", str(base),
                     "--force"]) == 0
        assert json.loads(base.read_text()) == {"k": {"v": 1}}

    def test_validate_missing_cell_fails(self, capsys, tmp_path):
        import json

        cache = tmp_path / "r.json"
        cache.write_text(json.dumps({}))
        code = main(["cache", "validate", "--cache", str(cache),
                     *self.SPEC])
        assert code == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert "FAIL" in out

    def test_validate_strict_fails_on_orphans(self, capsys, tmp_path):
        import json

        from repro.config.presets import default_config
        from repro.experiments.runner import RunSettings, SweepJob, job_key

        settings = RunSettings(n_events=800, footprint_scale=0.01, seed=7)
        key = job_key(SweepJob("mcf", "e-fam", default_config(), settings))
        cache = tmp_path / "r.json"
        cache.write_text(json.dumps({key: {"v": 1},
                                     "orphan-key": {"v": 2}}))
        assert main(["cache", "validate", "--cache", str(cache),
                     *self.SPEC]) == 0
        assert "verdict   : OK" in capsys.readouterr().out
        assert main(["cache", "validate", "--cache", str(cache),
                     "--strict", *self.SPEC]) == 1
        out = capsys.readouterr().out
        assert "verdict   : FAIL" in out  # report agrees with exit code
        assert "fatal under --strict" in out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestBenchCommand:
    ARGS = ["bench", "--events", "800", "--repeats", "1",
            "--benchmark", "hot-loop", "--arch", "deact-n"]

    def test_bench_appends_census_and_provenance(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code = main(self.ARGS + ["--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "core-loop tiers" in out
        assert "fast/ref=" in out
        assert "appended entry" in out
        import json

        trajectory = json.loads(out_path.read_text())
        assert trajectory["schema"] == 2
        (entry,) = trajectory["entries"]
        tiers = {row["tier"] for row in entry["rows"]}
        assert tiers == {"reference", "fast"}
        assert all(row["identical_to_first_tier"]
                   for row in entry["rows"])
        assert "fast_speedup_vs_reference" in \
            entry["aggregates"]["hot-loop"]
        assert entry["provenance"]["hostname"]
        assert entry["settings_fingerprint"]

    def test_bench_twice_appends_two_entries(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        import json

        trajectory = json.loads(out_path.read_text())
        assert len(trajectory["entries"]) == 2

    def test_bench_refuses_diverged_tiers(self, capsys, tmp_path,
                                          monkeypatch):
        # A diverged tier must not be silently serialized: exit
        # non-zero without touching the trajectory, unless the
        # operator explicitly records it with --no-verify.
        import json

        from repro.experiments import bench as bench_mod

        real = bench_mod.measure_core_loop

        def diverged(*args, **kwargs):
            payload = real(*args, **kwargs)
            payload["rows"][-1]["identical_to_first_tier"] = False
            return payload

        monkeypatch.setattr(bench_mod, "measure_core_loop", diverged)
        out_path = tmp_path / "bench.json"
        code = main(self.ARGS + ["--out", str(out_path)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert not out_path.exists()

        code = main(self.ARGS + ["--out", str(out_path), "--no-verify"])
        assert code == 0
        assert "--no-verify" in capsys.readouterr().err
        assert len(json.loads(out_path.read_text())["entries"]) == 1

    def test_bench_accepts_catalog_benchmarks(self, capsys, tmp_path):
        code = main(["bench", "--events", "600", "--repeats", "1",
                     "--benchmark", "mg", "--arch", "e-fam",
                     "--out", str(tmp_path / "b.json")])
        assert code == 0
        assert "mg" in capsys.readouterr().out

    def test_bench_rejects_zero_repeats(self):
        with pytest.raises(SystemExit):
            main(["bench", "--repeats", "0"])

    def test_bench_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["bench", "--benchmark", "doom"])


class TestBenchCompareCommand:
    @staticmethod
    def _write_trajectory(path, scale=1.0, n_events=800):
        # tests/ is on sys.path under pytest's default import mode.
        from test_trajectory import make_payload

        from repro.experiments.trajectory import append_entry

        append_entry(str(path), make_payload(n_events=n_events,
                                             scale=scale))

    def test_compare_parity_exits_zero(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trajectory(a)
        self._write_trajectory(b)
        code = main(["bench", "compare", str(a), str(b)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 of 2 cell(s) regressed" in out

    def test_compare_regression_exits_nonzero_with_table(self, capsys,
                                                         tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trajectory(a, scale=1.0)
        self._write_trajectory(b, scale=0.4)
        code = main(["bench", "compare", str(a), str(b)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "2 of 2 cell(s) regressed" in out

    def test_compare_tolerance_flag_relaxes_verdict(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trajectory(a, scale=1.0)
        self._write_trajectory(b, scale=0.4)
        assert main(["bench", "compare", str(a), str(b),
                     "--tolerance", "0.7"]) == 0

    def test_compare_refuses_mismatched_settings(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trajectory(a, n_events=800)
        self._write_trajectory(b, n_events=9000)
        code = main(["bench", "compare", str(a), str(b)])
        assert code == 2
        assert "refusing" in capsys.readouterr().err

    def test_compare_against_baseline(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        self._write_trajectory(baseline, scale=1.0)
        self._write_trajectory(candidate, scale=1.0)
        assert main(["bench", "compare", "--against-baseline",
                     str(candidate), "--baseline", str(baseline)]) == 0
        # An injected slowdown flips the exit code.
        slow = tmp_path / "slow.json"
        self._write_trajectory(slow, scale=0.3)
        assert main(["bench", "compare", "--against-baseline",
                     str(slow), "--baseline", str(baseline)]) == 1

    def test_compare_baseline_env_override(self, capsys, tmp_path,
                                           monkeypatch):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        self._write_trajectory(baseline)
        self._write_trajectory(candidate)
        monkeypatch.setenv("REPRO_BENCH_JSON", str(baseline))
        assert main(["bench", "compare", "--against-baseline",
                     str(candidate)]) == 0

    def test_compare_missing_entries_fails_cleanly(self, capsys,
                                                   tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_trajectory(a)
        code = main(["bench", "compare", str(a), str(b)])
        assert code == 2
        assert "no entries" in capsys.readouterr().err

    def test_compare_wrong_arity_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "compare", "only-one.json"])
        assert "BASELINE CANDIDATE" in capsys.readouterr().err

    def test_compare_rejects_bad_tolerance(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self._write_trajectory(a)
        with pytest.raises(SystemExit):
            main(["bench", "compare", str(a), str(a),
                  "--tolerance", "fast=lots"])
        assert "FRACTION" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["bench", "compare", str(a), str(a),
                  "--tolerance", "1.5"])

    def test_tolerance_unpinned_requires_against_baseline(self, capsys,
                                                          tmp_path):
        a = tmp_path / "a.json"
        self._write_trajectory(a)
        with pytest.raises(SystemExit):
            main(["bench", "compare", str(a), str(a),
                  "--tolerance-unpinned", "0.75"])
        assert "--against-baseline" in capsys.readouterr().err

    def test_tolerance_unpinned_rejects_out_of_range(self, capsys,
                                                     tmp_path):
        a = tmp_path / "a.json"
        self._write_trajectory(a)
        with pytest.raises(SystemExit):
            main(["bench", "compare", "--against-baseline", str(a),
                  "--baseline", str(a), "--tolerance-unpinned", "1.5"])
        assert "[0, 1)" in capsys.readouterr().err

    def test_unpinned_baseline_applies_fallback_tolerance(self, capsys,
                                                          tmp_path):
        # One baseline entry: this runner is not pinned yet, so the
        # loose cross-host tolerance gates and a 60% slowdown passes.
        baseline = tmp_path / "baseline.json"
        slow = tmp_path / "slow.json"
        self._write_trajectory(baseline, scale=1.0)
        self._write_trajectory(slow, scale=0.4)
        assert main(["bench", "compare", "--against-baseline",
                     str(slow), "--baseline", str(baseline),
                     "--tolerance-unpinned", "0.75"]) == 0
        assert "not runner-pinned" in capsys.readouterr().out

    def test_pinned_baseline_gates_at_per_tier_defaults(self, capsys,
                                                        tmp_path):
        # Two same-host baseline entries pin the runner: the fallback
        # tolerance is dropped and the same 60% slowdown regresses
        # against the per-tier defaults.
        baseline = tmp_path / "baseline.json"
        slow = tmp_path / "slow.json"
        self._write_trajectory(baseline, scale=1.0)
        self._write_trajectory(baseline, scale=1.0)
        self._write_trajectory(slow, scale=0.4)
        assert main(["bench", "compare", "--against-baseline",
                     str(slow), "--baseline", str(baseline),
                     "--tolerance-unpinned", "0.75"]) == 1
        out = capsys.readouterr().out
        assert "runner-pinned (>=2 same-host entries)" in out
        assert "REGRESSED" in out

    def test_cli_literals_match_real_constants(self):
        # The parser spells the hot-bench name as a literal to keep the
        # heavy bench stack un-imported for other subcommands; pin it.
        from repro.core.system import EXECUTION_MODES
        from repro.experiments.bench import HOT_BENCH

        assert EXECUTION_MODES == ("fast", "reference")
        assert HOT_BENCH == "hot-loop"


class TestProfileCommand:
    def test_profile_prints_hot_functions(self, capsys):
        code = main(["profile", "--benchmark", "hot-loop",
                     "--arch", "deact-n", "--events", "1500",
                     "--limit", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: hot-loop on deact-n" in out
        assert "cumulative" in out
        assert "function calls" in out

    @pytest.mark.parametrize("mode", ("fast", "reference"))
    def test_profile_other_tiers(self, capsys, mode):
        code = main(["profile", "--benchmark", "mg", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01",
                     "--mode", mode, "--limit", "5"])
        assert code == 0
        assert "function calls" in capsys.readouterr().out

    def test_profile_requires_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "--arch", "e-fam"])

    def test_profile_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            main(["profile", "--benchmark", "mg", "--mode", "warp"])

    def test_profile_batch_mode_says_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--benchmark", "mg", "--events", "800",
                  "--footprint-scale", "0.01", "--mode", "batch"])
        assert exc.value.code == 2
        assert "unknown execution mode 'batch'" in capsys.readouterr().err


class TestFiguresCommand:
    def test_figures_forwards_to_harness(self, capsys):
        code = main(["figures", "--figure", "t1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAM Architectures Comparison" in out

    def test_figures_forwards_jobs_flag(self, capsys):
        code = main(["figures", "--figure", "3", "--jobs", "2",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Slowdown of I-FAM" in out

    def test_figures_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["figures", "--figure", "t1", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestArgumentValidation:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
