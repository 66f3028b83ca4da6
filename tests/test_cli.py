"""CLI tests (python -m repro)."""

import gzip
import json
import socket

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.exp import SCHEMA_VERSION, get_spec


@pytest.fixture(autouse=True)
def _isolated_results_dir(tmp_path, monkeypatch):
    """Keep CLI-driven cache/result files out of the repository, and pin
    the scale so result-file names don't depend on the caller's env."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    return tmp_path / "results"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "fixed-home" in out and "4-ary" in out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "congestion_ratio" in out
        assert "handopt" in out

    def test_ablation_embedding(self, capsys):
        assert main(["ablation-embedding", "--workload", "matmul"]) == 0
        out = capsys.readouterr().out
        assert "modified" in out and "random" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig5"])  # the paper has no figure 5 (circuit picture)

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "enormous"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--scale", "quick", "--jobs", "0"])

    @pytest.mark.parametrize("name", ["fig2", "ablation-remapping"])
    def test_bad_repro_scale_exits_2_for_figures_and_ablations(
        self, name, _isolated_results_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(SystemExit) as exc:
            main([name, "--json"])
        assert exc.value.code == 2
        assert "error: scale must be quick/default/paper, got 'huge'" in (
            capsys.readouterr().err
        )
        assert not list(_isolated_results_dir.glob("*.huge.json"))

    def test_repro_scale_names_the_title_and_the_file(
        self, _isolated_results_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(["fig2", "--json"]) == 0
        assert "fig2 (quick scale)" in capsys.readouterr().out
        assert (_isolated_results_dir / "fig2.quick.json").is_file()

    @pytest.mark.parametrize("nodes", ["3", "1", "1024,48"])
    def test_xscale_nodes_must_be_powers_of_two(self, nodes, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["xscale", "--nodes", nodes])
        assert exc.value.code == 2
        assert "power of two" in capsys.readouterr().err


class TestOrchestratorCli:
    def test_json_flag_writes_schema_valid_file(self, _isolated_results_dir, capsys):
        assert main(["fig2", "--scale", "quick", "--json"]) == 0
        path = _isolated_results_dir / "fig2.quick.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "fig2"
        assert payload["scale"] == "quick"
        assert payload["columns"] == list(get_spec("fig2").columns)
        assert payload["rows"], "empty rows"
        for row in payload["rows"]:
            for col in get_spec("fig2").columns:
                assert col in row

    def test_cached_rerun_identical_output(self, capsys):
        assert main(["fig2", "--scale", "quick"]) == 0
        cold = capsys.readouterr().out
        assert main(["fig2", "--scale", "quick"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_no_cache_flag(self, _isolated_results_dir, capsys):
        assert main(["fig2", "--scale", "quick", "--no-cache"]) == 0
        assert not (_isolated_results_dir / "cache").exists()
        assert main(["fig2", "--scale", "quick"]) == 0
        assert (_isolated_results_dir / "cache").is_dir()

    def test_jobs_flag_identical_output(self, capsys):
        assert main(["fig2", "--scale", "quick", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2", "--scale", "quick", "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_results_dir_flag_overrides_env(self, tmp_path, capsys):
        override = tmp_path / "elsewhere"
        assert main(["fig2", "--scale", "quick", "--json",
                     "--results-dir", str(override)]) == 0
        assert (override / "fig2.quick.json").is_file()

    def test_app_sensitive_ablation_gets_own_file(self, _isolated_results_dir, capsys):
        """--workload bitonic must not overwrite the matmul result file."""
        assert main(["ablation-embedding", "--workload", "matmul", "--json"]) == 0
        assert main(["ablation-embedding", "--workload", "bitonic", "--json"]) == 0
        matmul = _isolated_results_dir / "ablation-embedding.default.json"
        bitonic = _isolated_results_dir / "ablation-embedding.bitonic.default.json"
        assert matmul.is_file() and bitonic.is_file()
        assert json.loads(matmul.read_text())["workload"] == "matmul"
        assert json.loads(bitonic.read_text())["workload"] == "bitonic"

    def test_topology_axis_gets_own_file(self, _isolated_results_dir, capsys):
        """--topology torus must not overwrite the mesh result file, and
        the payload must record the topology."""
        assert main(["ablation-barrier", "--topology", "torus", "--json"]) == 0
        path = _isolated_results_dir / "ablation-barrier.torus.default.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["topology"] == "torus"
        assert all(row["topology"] == "torus" for row in payload["rows"])

    def test_topology_ignored_note_for_mesh_bound_experiment(self, capsys):
        assert main(["fig2", "--scale", "quick", "--topology", "torus"]) == 0
        err = capsys.readouterr().err
        assert "mesh-bound" in err

    @pytest.mark.parametrize("name", ["xfail", "xadapt"])
    def test_topology_ignored_note_for_internal_sweeps(self, name, capsys):
        """An experiment that sweeps topologies itself says so -- decided
        from its resolved parameters, not from its name."""
        argv = [name, "--scale", "quick", "--topology", "torus", "--jobs", "2"]
        if name == "xfail":
            argv += ["--failures", "none"]  # one schedule is enough here
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"[{name}] note: sweeps its topologies internally" in err
        assert "mesh-bound" not in err

    def test_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--scale", "quick", "--topology", "ring"])

    def test_workload_axis_gets_own_file(self, _isolated_results_dir, capsys):
        """--workload zipf must produce its own schema-v3 result file
        carrying the workload name."""
        assert main(["ablation-embedding", "--workload", "zipf", "--json"]) == 0
        path = _isolated_results_dir / "ablation-embedding.zipf.default.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["workload"] == "zipf"
        assert "app" not in payload  # the v3 alias was removed in schema v4
        assert all(row["workload"] == "zipf" for row in payload["rows"])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["ablation-embedding", "--workload", "tetris"])

    def test_xcap_quick_schema_v5_fields(self, _isolated_results_dir, capsys):
        """xcap rows carry the schema-v5 strategy/capacity fields."""
        assert main(["xcap", "--scale", "quick", "--json"]) == 0
        payload = json.loads((_isolated_results_dir / "xcap.quick.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        for row in payload["rows"]:
            assert "strategy_params" in row and "strategy_family" in row
            assert "capacity_bytes" in row
            assert "hit_rate" in row and "evictions" in row
        caps = {row["capacity_copies"] for row in payload["rows"]}
        assert "unbounded" in caps and len(caps) >= 2
        # Pressure really evicts for the replicating strategies.
        assert any(row["evictions"] > 0 for row in payload["rows"])

    def test_xwork_readfrac_quick(self, _isolated_results_dir, capsys):
        assert main(["xwork-readfrac", "--scale", "quick", "--json"]) == 0
        payload = json.loads(
            (_isolated_results_dir / "xwork-readfrac.quick.json").read_text()
        )
        assert payload["workload"] == "zipf"
        fracs = {row["read_frac"] for row in payload["rows"]}
        assert len(fracs) >= 3


class TestTraceCli:
    def test_record_then_replay_roundtrip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "bitonic.trace.gz")
        assert main(["trace-record", "--workload", "bitonic", "--strategy", "2-4-ary",
                     "--side", "4", "--size", "32", "--trace", trace_path]) == 0
        recorded = capsys.readouterr()
        assert "recorded bitonic" in recorded.err
        assert main(["trace-replay", "--trace", trace_path]) == 0
        replayed = capsys.readouterr().out
        # Same config -> the summary row (time, congestion, totals) is
        # identical to the recording run's.
        assert recorded.out.splitlines()[-2:] == replayed.splitlines()[-2:]

    def test_replay_under_other_strategy_and_topology(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.trace.gz")
        assert main(["trace-record", "--workload", "zipf", "--side", "4",
                     "--size", "8", "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["trace-replay", "--trace", trace_path,
                     "--strategy", "fixed-home", "--topology", "hypercube"]) == 0
        out = capsys.readouterr().out
        assert "fixed-home" in out and "hypercube" in out

    def test_replay_topology_equals_form(self, tmp_path, capsys):
        """Regression: the --topology=kind spelling must count as an
        override too (the CLI once scanned argv for the space-separated
        form only)."""
        trace_path = str(tmp_path / "t.trace.gz")
        assert main(["trace-record", "--workload", "zipf", "--side", "4",
                     "--size", "8", "--trace", trace_path]) == 0
        capsys.readouterr()
        assert main(["trace-replay", "--trace", trace_path,
                     "--topology=torus"]) == 0
        assert "torus" in capsys.readouterr().out

    def test_trace_flag_required(self, capsys):
        assert main(["trace-replay"]) == 2
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--topology", "hypercube", "--side", "3"],
                                       ["--side", "0"]], ids=" ".join)
    def test_record_rejects_a_bad_topology(self, flags, tmp_path, capsys):
        trace_path = tmp_path / "t.trace.gz"
        assert main(["trace-record", "--workload", "zipf", *flags,
                     "--trace", str(trace_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not trace_path.exists()

    UNREADABLE = {
        "missing": None,
        "not-gzip": b"not a trace",
        "truncated": gzip.compress(b'{"header": {"format": "repro-trace"}}')[:20],
        "not-json": gzip.compress(b"\x00\xff"),
        "no-header": gzip.compress(b"{}"),
        "not-an-object": gzip.compress(b"[]"),
        "header-not-an-object": gzip.compress(b'{"header": [], "ops": []}'),
    }

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_replay_rejects_an_unreadable_trace(self, kind, tmp_path, capsys):
        trace_path = tmp_path / "t.trace.gz"
        if self.UNREADABLE[kind] is not None:
            trace_path.write_bytes(self.UNREADABLE[kind])
        assert main(["trace-replay", "--trace", str(trace_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read trace {trace_path}")

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        assert main(["trace-record", "--workload", "zipf", "--strategy", "octopus",
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_malformed_strategy_spec_rejected(self, tmp_path, capsys):
        assert main(["trace-record", "--workload", "zipf",
                     "--strategy", "dynrep:threshold=0",
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_record_and_replay_under_registry_specs(self, tmp_path, capsys):
        """--strategy accepts any registry spec: record under migratory,
        replay under a parameterized dynrep."""
        trace_path = str(tmp_path / "t.trace.gz")
        assert main(["trace-record", "--workload", "zipf", "--side", "4",
                     "--size", "8", "--strategy", "migratory",
                     "--trace", trace_path]) == 0
        assert "migratory" in capsys.readouterr().out
        assert main(["trace-replay", "--trace", trace_path,
                     "--strategy", "dynrep:threshold=3"]) == 0
        assert "dynrep:threshold=3" in capsys.readouterr().out

    @pytest.mark.slow
    def test_xtopo_experiments_json_contract(self, _isolated_results_dir, capsys):
        """Acceptance contract: the cross-topology experiments emit
        schema-valid JSON with a topology field, comparing torus and
        hypercube against the mesh at >= 256 nodes."""
        for name, target in (("xtopo-torus", "torus"), ("xtopo-hypercube", "hypercube")):
            assert main([name, "--scale", "quick", "--jobs", "2", "--json"]) == 0
            payload = json.loads(
                (_isolated_results_dir / f"{name}.quick.json").read_text()
            )
            assert payload["schema_version"] == SCHEMA_VERSION
            assert payload["topology"] == f"mesh+{target}"
            kinds = {row["topology"] for row in payload["rows"]}
            assert kinds == {"mesh", target}
            assert all(row["nodes"] >= 256 for row in payload["rows"])

    @pytest.mark.slow
    def test_xwork_zipf_all_topologies_contract(self, _isolated_results_dir, capsys):
        """Acceptance contract: xwork-zipf emits schema-v3 cached results
        covering all three topology families."""
        assert main(["xwork-zipf", "--scale", "quick", "--jobs", "2", "--json"]) == 0
        payload = json.loads(
            (_isolated_results_dir / "xwork-zipf.quick.json").read_text()
        )
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["workload"] == "zipf"
        assert payload["topology"] == "mesh+torus+hypercube"
        assert {row["topology"] for row in payload["rows"]} == {
            "mesh", "torus", "hypercube"
        }
        # Cached: the immediate re-run hits every cell.
        assert main(["xwork-zipf", "--scale", "quick", "--json"]) == 0
        assert "27/27 cells cached" in capsys.readouterr().err

    @pytest.mark.slow
    def test_run_all_quick_writes_every_result(self, _isolated_results_dir, capsys):
        """The CI smoke contract: every registered experiment produces a
        non-empty, schema-valid JSON result file."""
        assert main(["run-all", "--scale", "quick", "--jobs", "2", "--json"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            path = _isolated_results_dir / f"{name}.quick.json"
            assert path.is_file(), f"missing {path}"
            payload = json.loads(path.read_text())
            assert payload["schema_version"] == SCHEMA_VERSION
            assert payload["experiment"] == name
            assert payload["rows"], f"{name}: empty rows"
            for row in payload["rows"]:
                # Schema v5: every cell row carries the cache columns.
                for col in ("hits", "misses", "hit_rate", "evictions"):
                    assert col in row, f"{name}: row missing {col}"
                # Schema v7: the metric suite rides on every cell row,
                # well-formed (ordered percentiles, non-negative costs).
                for col in ("latency_p50", "latency_p95", "latency_p99",
                            "storage_cost", "effective_network_usage"):
                    assert col in row, f"{name}: row missing {col}"
                assert (0.0 <= row["latency_p50"] <= row["latency_p95"]
                        <= row["latency_p99"]), f"{name}: unordered percentiles"
                assert row["storage_cost"] >= 0.0, f"{name}: negative storage cost"
            spec = get_spec(name)
            for row in payload["rows"]:
                for col in spec.columns:
                    assert col in row, f"{name}: row missing {col}"
            assert spec.title.format(scale="quick", workload="matmul") in out


class TestServeCli:
    """serve and loadgen build their topology once, from the same flags,
    and reject a bad one (or a bad window) before any session or socket."""

    BAD = (["--topology", "hypercube", "--side", "3"], ["--side", "0"],
           ["--max-queue", "0"], ["--max-inflight", "0"])

    @pytest.mark.parametrize("flags", BAD, ids=" ".join)
    @pytest.mark.parametrize("command", [["loadgen"], ["serve"], ["serve", "--selfcheck"]],
                             ids=" ".join)
    def test_bad_flag_exits_2_before_binding(self, command, flags, capsys, monkeypatch):
        def no_bind(sock, address):
            raise AssertionError(f"bound {address} despite a bad flag")

        monkeypatch.setattr(socket.socket, "bind", no_bind)
        assert main([*command, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_selfcheck_serves_the_topology_it_was_given(self, capsys):
        assert main(["serve", "--selfcheck", "--topology", "hypercube", "--side", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["answered"] == out["requests"] == 200
        assert out["network"].startswith("hypercube")


class TestFailuresCli:
    """The --failures flag: accepted where it means something, rejected
    loudly everywhere else, and the xfail sweep emits the schema-v6
    availability contract CI smokes."""

    AVAILABILITY_COLUMNS = (
        "requests_failed", "requests_stalled", "requests_retried",
        "repairs", "failure_events",
    )

    def test_malformed_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["xfail", "--scale", "quick", "--failures", "linkflap:rate=-1"])
        assert "within [0.0, 1.0]" in capsys.readouterr().err

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["xfail", "--scale", "quick", "--failures", "meteor:rate=1"])
        assert "unknown failure model" in capsys.readouterr().err

    def test_schedule_only_drives_xfail(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "quick",
                  "--failures", "churn:nodes=0.1"])
        assert "only applies to the xfail" in capsys.readouterr().err

    def test_explicit_none_accepted_everywhere(self, capsys):
        assert main(["fig2", "--scale", "quick", "--failures", "none"]) == 0

    def test_trace_record_rejects_malformed_spec(self, tmp_path, capsys):
        assert main(["trace-record", "--workload", "zipf",
                     "--failures", "linkflap:wat=3",
                     "--trace", str(tmp_path / "t.trace.gz")]) == 2
        assert "has no parameter 'wat'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["loadgen"], ["serve"], ["serve", "--selfcheck"]])
    def test_serve_commands_reject_a_malformed_spec(self, command, capsys):
        assert main([*command, "--failures", "bogus"]) == 2
        assert "unknown failure model" in capsys.readouterr().err

    CHURN = "churn:nodes=0.2:seed=3:horizon=0.01"

    def test_loadgen_serves_under_the_schedule(self, _isolated_results_dir, capsys):
        """loadgen passes --failures to its session: the schedule applies,
        the session's rings serve, and the report and table carry the
        availability counters."""
        assert main(["loadgen", "--failures", self.CHURN, "--requests", "600",
                     "--rate", "20000", "--json"]) == 0
        out = capsys.readouterr().out
        rep = json.loads((_isolated_results_dir / "SERVE_loadgen.json").read_text())
        assert rep["requests"] == 600
        assert rep["failure_events"] > 0 and rep["repairs"] > 0
        dispatch = rep["extra"]["dispatch"]
        assert dispatch["mode"] == "classic"
        assert "failure schedule" in dispatch["reason"] or "no C kernel" in dispatch["reason"]
        for col in self.AVAILABILITY_COLUMNS:
            assert col in out

    def test_loadgen_fleet_workers_serve_under_the_schedule(self, _isolated_results_dir,
                                                            capsys):
        assert main(["loadgen", "--failures", self.CHURN, "--requests", "600",
                     "--rate", "20000", "--workers", "2", "--json"]) == 0
        rep = json.loads((_isolated_results_dir / "SERVE_loadgen.json").read_text())
        fleet, workers = rep["fleet"], rep["workers"]
        assert all(w["failure_events"] > 0 for w in workers)
        for col in self.AVAILABILITY_COLUMNS:
            assert fleet[col] == sum(w[col] for w in workers), col

    def test_selfcheck_serves_under_the_schedule(self, capsys):
        assert main(["serve", "--selfcheck", "--failures", self.CHURN]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["answered"] == out["requests"] == 200
        assert out["dispatch"]["mode"] == "classic"

    def test_xfail_single_spec_override(self, _isolated_results_dir, capsys):
        """--failures SPEC narrows the xfail sweep to that one schedule."""
        spec = "nodedown:node=3:at=0.002"
        assert main(["xfail", "--scale", "quick", "--jobs", "2", "--json",
                     "--failures", spec]) == 0
        payload = json.loads(
            (_isolated_results_dir / "xfail.quick.json").read_text()
        )
        assert {row["failures"] for row in payload["rows"]} == {spec}
        assert all(row["failure_model"] == "nodedown" for row in payload["rows"])
        assert all(row["failure_events"] == 1 for row in payload["rows"])

    @pytest.mark.slow
    def test_xfail_quick_json_contract(self, _isolated_results_dir, capsys):
        """The CI smoke contract for the failure axis: the quick xfail
        sweep covers every strategy family on every topology under every
        scheduled spec, rows carry the schema-v6 availability columns,
        zero-failure rows stay all-zero, and churn really fires."""
        assert main(["xfail", "--scale", "quick", "--jobs", "2", "--json"]) == 0
        payload = json.loads(
            (_isolated_results_dir / "xfail.quick.json").read_text()
        )
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "xfail"
        rows = payload["rows"]
        assert {row["strategy"] for row in rows} == {
            "fixed-home", "4-ary", "2-4-ary", "migratory", "dynrep"
        }
        assert {row["topology"] for row in rows} == {
            "mesh", "torus", "hypercube"
        }
        models = {row["failure_model"] for row in rows}
        assert models == {"none", "linkflap", "churn"}
        for row in rows:
            for col in self.AVAILABILITY_COLUMNS:
                assert col in row, f"row missing {col}"
        for row in rows:
            if row["failure_model"] == "none":
                assert all(row[col] == 0 for col in self.AVAILABILITY_COLUMNS)
            else:
                assert row["failure_events"] > 0
            if row["failure_model"] == "churn":
                assert row["repairs"] > 0


class TestXadaptCli:
    """The adaptation axis: the quick xadapt sweep covers every strategy
    of the comparison on every topology at every drift rate, and rows
    carry the full schema-v7 metric suite."""

    METRIC_COLUMNS = (
        "latency_p50", "latency_p95", "latency_p99",
        "storage_cost", "effective_network_usage",
    )

    @pytest.mark.slow
    def test_xadapt_quick_json_contract(self, _isolated_results_dir, capsys):
        assert main(["xadapt", "--scale", "quick", "--jobs", "2", "--json"]) == 0
        payload = json.loads(
            (_isolated_results_dir / "xadapt.quick.json").read_text()
        )
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "xadapt"
        rows = payload["rows"]
        assert {row["strategy"] for row in rows} == {
            "adaptive", "dynrep", "fixed-home", "4-ary"
        }
        assert {row["topology"] for row in rows} == {"mesh", "torus", "hypercube"}
        assert {row["drift"] for row in rows} == {0, 2}
        for row in rows:
            assert row["workload"] == "hotspot-drift"
            for col in self.METRIC_COLUMNS:
                assert col in row, f"row missing {col}"
            assert 0.0 <= row["latency_p50"] <= row["latency_p95"] <= row["latency_p99"]
            assert row["storage_cost"] >= 0.0
            assert row["effective_network_usage"] >= 0.0
            assert 0.0 <= row["hit_rate"] <= 1.0
        # Immediate re-run is fully cached (cell determinism).
        assert main(["xadapt", "--scale", "quick", "--json"]) == 0
        assert "24/24 cells cached" in capsys.readouterr().err
