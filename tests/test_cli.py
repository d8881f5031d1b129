"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "cifar10"])

    def test_parses_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "iris", "--n", "3", "--depth", "2", "--domain", "box"]
        )
        assert args.dataset == "iris"
        assert args.n == 3
        assert args.domain == "box"

    def test_parses_composite_options(self):
        args = build_parser().parse_args(
            ["certify", "iris", "--model", "composite", "--n-remove", "2", "--n-flip", "3"]
        )
        assert args.model == "composite"
        assert args.n_remove == 2
        assert args.n_flip == 3

    @pytest.mark.parametrize("command", ["verify", "certify", "sweep"])
    @pytest.mark.parametrize("seconds", ["0", "-1"])
    def test_rejects_non_positive_timeout(self, command, seconds, capsys):
        # A bad budget is a usage error (exit 2), not an engine traceback.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "iris", "--timeout", seconds])
        assert excinfo.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_parses_fractional_timeout(self):
        args = build_parser().parse_args(["verify", "iris", "--timeout", "0.5"])
        assert args.timeout == 0.5


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "mnist17-binary" in output
        assert "wdbc" in output

    def test_verify_command_runs(self, capsys):
        code = main(
            [
                "verify",
                "iris",
                "--n",
                "1",
                "--depth",
                "1",
                "--scale",
                "0.3",
                "--seed",
                "1",
                "--timeout",
                "20",
            ]
        )
        assert code in (0, 1)  # 0 = certified, 1 = inconclusive
        output = capsys.readouterr().out
        assert "test point #0" in output

    def test_verify_command_bad_point(self, capsys):
        code = main(
            ["verify", "iris", "--point", "100000", "--scale", "0.3", "--depth", "1"]
        )
        assert code == 2

    def test_table1_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table1", "--quick", "--save", "cli_table1"]) == 0
        output = capsys.readouterr().out
        assert "acc@d1 (%)" in output
        assert (tmp_path / "cli_table1.txt").exists()

    def test_figure_command_quick(self, capsys):
        assert main(["figure", "iris", "--quick"]) == 0
        assert "Figure 8" in capsys.readouterr().out


class TestCertifyComposite:
    def test_composite_model_certifies_through_cli(self, capsys, tmp_path):
        code = main(
            [
                "certify", "iris", "--model", "composite",
                "--n-remove", "1", "--n-flip", "1",
                "--points", "2", "--depth", "1", "--scale", "0.3",
                "--json", str(tmp_path / "composite.json"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "removal of up to 1 training elements and flipping of up to 1" in output
        import json

        payload = json.loads((tmp_path / "composite.json").read_text())
        assert payload["total"] == 2
        assert all(r["domain"].startswith("flip-") for r in payload["results"])
        assert all(r["poisoning_amount"] == 2 for r in payload["results"])


class TestCertifyCache:
    CERTIFY = [
        "certify", "iris", "--model", "removal", "--n", "2", "--points", "4",
        "--depth", "1", "--scale", "0.3", "--quiet",
    ]

    def test_warm_cache_rerun_reports_zero_invocations(self, capsys, tmp_path):
        cache_args = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.CERTIFY + cache_args) == 0
        capsys.readouterr()
        assert main(self.CERTIFY + cache_args) == 0
        output = capsys.readouterr().out
        assert "learner invocations        | 0" in output
        assert "100.0% served" in output

    def test_interrupt_and_resume_round_trip(self, capsys, tmp_path):
        cache_args = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.CERTIFY + cache_args + ["--max-new-points", "1"]) == 3
        err = capsys.readouterr().err
        assert "rerun with --resume" in err
        assert main(self.CERTIFY + cache_args + ["--resume"]) == 0
        assert "journal-restored" in capsys.readouterr().out

    @staticmethod
    def _metric(output, name):
        for line in output.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if cells[0] == name:
                return cells[1]
        raise AssertionError(f"metric {name!r} not found in:\n{output}")

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.CERTIFY + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert self._metric(capsys.readouterr().out, "verdicts") == "4"
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 4 cached verdict(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert self._metric(capsys.readouterr().out, "verdicts") == "0"

    def test_cache_subcommand_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_cache_stats_rejects_missing_directory(self, capsys, tmp_path):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "typo")])
        assert code == 2
        assert "no certification cache" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()

    def test_resume_flags_require_cache_dir(self, capsys):
        assert main(self.CERTIFY + ["--resume"]) == 2
        assert "require --cache-dir" in capsys.readouterr().err
        assert main(self.CERTIFY + ["--max-new-points", "1"]) == 2
        assert "require --cache-dir" in capsys.readouterr().err


class TestCacheGC:
    CERTIFY = TestCertifyCache.CERTIFY

    def test_gc_requires_a_bound(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.CERTIFY + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 2
        assert "at least one bound" in capsys.readouterr().err

    def test_gc_evicts_and_reports(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.CERTIFY + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir, "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 3 verdict(s)" in out
        assert "1 remaining" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert TestCertifyCache._metric(capsys.readouterr().out, "verdicts") == "1"

    def test_gc_age_and_byte_bounds(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.CERTIFY + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # Freshly used verdicts survive a generous age bound...
        assert main(["cache", "gc", "--cache-dir", cache_dir, "--max-age", "3600"]) == 0
        assert "evicted 0 verdict(s)" in capsys.readouterr().out
        # ...but an impossible byte bound empties the cache entirely.
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0"]) == 0
        assert "0 remaining" in capsys.readouterr().out


class TestServeAndConnect:
    def test_serve_parser_options(self):
        args = build_parser().parse_args(
            ["serve", "/tmp/x.sock", "--cache-dir", "/tmp/c", "--max-engines", "3"]
        )
        assert args.socket == "/tmp/x.sock"
        assert args.cache_dir == "/tmp/c"
        assert args.max_engines == 3

    def test_connect_rejects_local_cache_flags(self, capsys):
        code = main(
            ["certify", "iris", "--points", "1", "--depth", "1", "--scale", "0.3",
             "--connect", "/tmp/nope.sock", "--cache-dir", "/tmp/c"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "server owns the runtime" in err
        assert "shared-memory" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "iris", "--points", "1", "--no-shared-memory"],
            ["serve", "/tmp/x.sock", "--no-shared-memory"],
        ],
    )
    def test_shared_memory_flags_are_unknown_arguments(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--no-shared-memory" in capsys.readouterr().err

    def test_sweep_connect_rejects_cache_dir(self, capsys):
        code = main(
            ["sweep", "iris", "--points", "1", "--depth", "1", "--scale", "0.3",
             "--connect", "/tmp/nope.sock", "--cache-dir", "/tmp/c"]
        )
        assert code == 2
        assert "--connect is incompatible" in capsys.readouterr().err

    def test_certify_and_sweep_against_a_live_daemon(self, capsys, tmp_path):
        from repro.service import CertificationServer, wait_for_server

        server = CertificationServer(tmp_path / "s", cache_dir=tmp_path / "cache")
        base = ["--points", "2", "--depth", "1", "--scale", "0.3", "--quiet"]
        with server:
            wait_for_server(server.socket_path, timeout=30)
            connect = ["--connect", str(server.socket_path)]
            assert main(["certify", "iris", "--model", "removal", "--n", "2",
                         *base, *connect]) == 0
            capsys.readouterr()
            # The warm rerun answers from the server's cache.
            assert main(["certify", "iris", "--model", "removal", "--n", "2",
                         *base, *connect,
                         "--json", str(tmp_path / "warm.json")]) == 0
            output = capsys.readouterr().out
            assert "learner invocations        | 0" in output
            import json as json_module

            warm = json_module.loads((tmp_path / "warm.json").read_text())
            assert warm["runtime_stats"]["learner_invocations"] == 0
            # A scalar sweep through the same daemon.
            assert main(["sweep", "iris", "--model", "removal", "--max-n", "2",
                         *base, *connect]) == 0
            sweep_out = capsys.readouterr().out
            assert "largest max budget" in sweep_out
            assert "learner invocations" in sweep_out


class TestSweepCommand:
    SWEEP = ["sweep", "iris", "--depth", "1", "--scale", "0.3", "--timeout", "20"]

    def test_parses_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "iris", "--model", "composite", "--frontier",
             "--max-remove", "2", "--max-flip", "3"]
        )
        assert args.frontier
        assert args.max_remove == 2
        assert args.max_flip == 3

    def test_scalar_sweep_runs_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main(
            self.SWEEP
            + ["--max-n", "4", "--points", "2",
               "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "max certified budget" in output
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert payload["family"] == "removal"
        assert len(payload["outcomes"]) == 2
        assert all(
            set(row) == {"index", "max_certified_n", "attempts", "learner_invocations"}
            for row in payload["outcomes"]
        )
        header = csv_path.read_text().splitlines()[0]
        assert header == "index,max_certified_n,attempts"

    def test_label_flip_family_sweep(self, capsys):
        code = main(self.SWEEP + ["--model", "label-flip", "--max-n", "2", "--points", "1"])
        assert code == 0
        assert "label-flip" in capsys.readouterr().out

    def test_frontier_requires_composite(self, capsys):
        assert main(self.SWEEP + ["--frontier"]) == 2
        assert "--model composite" in capsys.readouterr().err

    def test_composite_requires_frontier(self, capsys):
        assert main(self.SWEEP + ["--model", "composite"]) == 2
        assert "--frontier" in capsys.readouterr().err

    def test_frontier_sweep_with_warm_cache(self, capsys, tmp_path):
        import json as json_module

        cache = tmp_path / "cache"
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        csv_path = tmp_path / "frontier.csv"
        frontier_args = self.SWEEP + [
            "--model", "composite", "--frontier",
            "--max-remove", "1", "--max-flip", "1", "--points", "2",
            "--cache-dir", str(cache),
        ]
        assert main(frontier_args + ["--json", str(cold_path), "--csv", str(csv_path)]) == 0
        assert "frontier" in capsys.readouterr().out
        assert main(frontier_args + ["--json", str(warm_path), "--quiet"]) == 0
        cold = json_module.loads(cold_path.read_text())
        warm = json_module.loads(warm_path.read_text())
        assert cold["runtime_stats"]["learner_invocations"] > 0
        # The warm rerun re-derives every frontier from the pair-dominance
        # cache: identical frontiers, zero learner invocations.
        assert warm["runtime_stats"]["learner_invocations"] == 0
        assert [f["frontier"] for f in warm["frontiers"]] == [
            f["frontier"] for f in cold["frontiers"]
        ]
        header = csv_path.read_text().splitlines()[0]
        assert header == "index,n_remove,n_flip,probes"


class TestObservabilityCommands:
    """`repro top`, `repro trace`, `--log-json`, and request-id minting."""

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.connect is None
        assert args.interval == 2.0
        assert args.iterations == 0

    def test_top_renders_one_local_frame(self, capsys):
        assert main(["top", "--iterations", "1", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out

    def test_trace_misses_locally_with_a_hint(self, capsys):
        assert main(["trace", "0123456789abcdef"]) == 2
        err = capsys.readouterr().err
        assert "0123456789abcdef" in err
        assert "--connect" in err

    def test_log_json_emits_correlated_events_and_prints_the_id(
        self, capsys, tmp_path
    ):
        import json as json_module

        from repro.telemetry import events

        log = tmp_path / "events.jsonl"
        events._reset_for_tests()
        try:
            code = main(
                ["verify", "iris", "--point", "0", "--n", "1", "--depth", "1",
                 "--scale", "0.3", "--log-json", str(log)]
            )
        finally:
            events.configure(None)
            events._reset_for_tests()
        assert code in (0, 1)  # 0 = certified, 1 = inconclusive
        err = capsys.readouterr().err
        assert "[request id " in err
        rid = err.split("[request id ")[1].split("]")[0]
        records = [
            json_module.loads(line) for line in log.read_text().splitlines()
        ]
        assert {r["event"] for r in records} >= {"cli.command", "cli.exit"}
        assert {r.get("rid") for r in records} == {rid}

    def test_top_and_trace_against_a_live_daemon(self, capsys, tmp_path):
        from repro.service import CertificationServer, wait_for_server
        from repro.telemetry import events, tracing

        server = CertificationServer(tmp_path / "s", cache_dir=tmp_path / "cache")
        tracing.enable_spans(True)
        try:
            with server:
                wait_for_server(server.socket_path, timeout=30)
                connect = ["--connect", str(server.socket_path)]
                log = tmp_path / "events.jsonl"
                assert main(
                    ["certify", "iris", "--model", "removal", "--n", "1",
                     "--points", "1", "--depth", "1", "--scale", "0.3",
                     "--quiet", "--log-json", str(log), *connect]
                ) == 0
                err = capsys.readouterr().err
                rid = err.split("[request id ")[1].split("]")[0]

                assert main(["top", "--iterations", "1", "--no-clear", *connect]) == 0
                top_out = capsys.readouterr().out
                assert "certify" in top_out

                assert main(["trace", rid, *connect]) == 0
                trace_out = capsys.readouterr().out
                assert "server.certify" in trace_out

                assert main(["trace", "ffffffffffffffff", *connect]) == 2
                assert "ffffffffffffffff" in capsys.readouterr().err
        finally:
            tracing.enable_spans(False)
            events.configure(None)
            events._reset_for_tests()
