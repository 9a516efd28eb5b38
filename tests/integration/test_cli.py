"""Integration tests for the ``vitex`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.figures import FIGURE_1_QUERY, FIGURE_1_XML
from repro.xmlstream.dom import parse_document


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "figure1.xml"
    path.write_text(FIGURE_1_XML, encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_run_prints_solutions_and_count(self, figure1_file, capsys):
        exit_code = main(["run", FIGURE_1_QUERY, figure1_file])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "1 solution(s)" in captured.out
        assert "cell_8" in captured.out

    def test_run_quiet(self, figure1_file, capsys):
        main(["run", FIGURE_1_QUERY, figure1_file, "--quiet"])
        captured = capsys.readouterr()
        assert "1 solution(s)" in captured.out
        assert "cell_8" not in captured.out

    def test_run_with_stats(self, figure1_file, capsys):
        main(["run", "//table", figure1_file, "--stats"])
        captured = capsys.readouterr()
        assert "pushes" in captured.out

    def test_run_with_fragments(self, figure1_file, capsys):
        main(["run", "//cell", figure1_file, "--fragments"])
        captured = capsys.readouterr()
        assert "<cell>" in captured.out

    def test_run_expat_backend(self, figure1_file, capsys):
        exit_code = main(["run", "//table", figure1_file, "--parser", "expat"])
        assert exit_code == 0
        assert "3 solution(s)" in capsys.readouterr().out

    def test_run_eager_flag_same_answers(self, figure1_file, capsys):
        main(["run", FIGURE_1_QUERY, figure1_file, "--eager"])
        assert "1 solution(s)" in capsys.readouterr().out

    def test_bad_query_reports_error(self, figure1_file, capsys):
        exit_code = main(["run", "//a[", figure1_file])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_unsupported_query_reports_error(self, figure1_file, capsys):
        exit_code = main(["run", "//a[position()=1]", figure1_file])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_shows_machine(self, capsys):
        exit_code = main(["explain", FIGURE_1_QUERY])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "TwigM machine" in captured.out
        assert "section" in captured.out
        assert "output" in captured.out

    @pytest.mark.parametrize(
        "query, sharing",
        [
            (
                "/ticker/quote[price>495]/vol",
                "Sharing: anchor //quote, residual /ticker/quote, "
                "predicate [price > 495], output child vol",
            ),
            (
                "//a[b]//c",
                "Sharing: private (the output is a descendant, not a child, "
                "of the predicated step)",
            ),
        ],
    )
    def test_explain_shows_sharing(self, capsys, query, sharing):
        assert main(["explain", query]) == 0
        assert sharing in capsys.readouterr().out.splitlines()


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["protein", "recursive", "auction", "newsfeed", "treebank"])
    def test_generate_writes_well_formed_file(self, dataset, tmp_path, capsys):
        output = tmp_path / f"{dataset}.xml"
        exit_code = main(["generate", dataset, str(output), "--size-mb", "0.05"])
        assert exit_code == 0
        assert output.exists()
        parse_document(output.read_text(encoding="utf-8"))  # raises XMLSyntaxError when malformed
        assert "wrote" in capsys.readouterr().out


class TestRemovedVerbs:
    def test_bench_is_not_a_verb(self, capsys):
        # perfbench (python3 -m perfbench) is the only benchmark.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "pipeline"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestWatchCommand:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# standing subscriptions\n"
            "tables: //table\n"
            "//cell\n"
            "\n",
            encoding="utf-8",
        )
        return str(path)

    def test_watch_streams_named_matches(self, query_file, figure1_file, capsys):
        exit_code = main(["watch", query_file, figure1_file])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[tables]" in captured.out
        assert "[q0]" in captured.out  # bare line was auto-named
        assert "tables: 3 solution(s)" in captured.out

    def test_watch_quiet_prints_totals_only(self, query_file, figure1_file, capsys):
        exit_code = main(["watch", query_file, figure1_file, "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[tables]" not in captured.out
        assert "3 solution(s)" in captured.out

    def test_watch_expat_backend(self, query_file, figure1_file, capsys):
        exit_code = main(["watch", query_file, figure1_file, "--parser", "expat"])
        assert exit_code == 0
        assert "tables: 3 solution(s)" in capsys.readouterr().out

    def test_watch_bad_query_reports_error(self, tmp_path, figure1_file, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("//a[\n", encoding="utf-8")
        exit_code = main(["watch", str(path), figure1_file])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_watch_empty_file_reports_error(self, tmp_path, figure1_file, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        exit_code = main(["watch", str(path), figure1_file])
        assert exit_code == 1
        assert "no queries" in capsys.readouterr().err


class TestWatchInterrupt:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("tables: //table\ncells: //cell\n", encoding="utf-8")
        return str(path)

    def test_sigint_prints_counts_and_closes_engine(
        self, query_file, figure1_file, capsys, monkeypatch
    ):
        # Raise a *real* SIGINT mid-stream: the handler installed by the
        # watch command must convert it into the summary path (exit 130,
        # delivery counts, engine closed) instead of a traceback.
        import signal as signal_module

        from repro.core.builder import shared_compiled_cache
        from repro.core.multi import MultiQueryEvaluator

        baseline_cached = len(shared_compiled_cache)
        original_stream = MultiQueryEvaluator.stream

        def interrupted_stream(self, source, **kwargs):
            iterator = original_stream(self, source, **kwargs)
            yield next(iterator)
            signal_module.raise_signal(signal_module.SIGINT)
            yield from iterator  # the handler interrupts before this drains

        monkeypatch.setattr(MultiQueryEvaluator, "stream", interrupted_stream)
        exit_code = main(["watch", query_file, figure1_file])
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "interrupted" in captured.err
        assert "solution(s)" in captured.out
        # close() ran: the compiled-query cache refs were released.
        assert len(shared_compiled_cache) == baseline_cached

    def test_sigint_handler_restored(self, query_file, figure1_file, capsys):
        import signal as signal_module

        before = signal_module.getsignal(signal_module.SIGINT)
        assert main(["watch", query_file, figure1_file]) == 0
        capsys.readouterr()
        assert signal_module.getsignal(signal_module.SIGINT) is before


class TestServiceCommands:
    def test_publish_unreachable_service_reports_error(self, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<a/>", encoding="utf-8")
        # Port 1 on loopback is essentially never listening.
        exit_code = main(
            ["publish", str(document), "--host", "127.0.0.1", "--port", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "cannot reach service" in captured.err

    def test_subscribe_unreachable_service_reports_error(self, capsys):
        exit_code = main(["subscribe", "//a", "--host", "127.0.0.1", "--port", "1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "cannot reach service" in captured.err

    def test_publish_rejects_bad_chunk_size(self, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<a/>", encoding="utf-8")
        exit_code = main(["publish", str(document), "--chunk-size", "0"])
        assert exit_code == 1
        assert "chunk-size" in capsys.readouterr().err

    def test_serve_missing_watch_file_reports_error(self, tmp_path, capsys):
        exit_code = main(
            ["serve", "--watch", str(tmp_path / "empty.txt"), "--port", "0"]
        )
        assert exit_code == 1

    def test_publish_stream_flags_need_follow(self, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<a/>", encoding="utf-8")
        exit_code = main(["publish", str(document), "--retain-docs", "8"])
        assert exit_code == 1
        assert "--follow" in capsys.readouterr().err

    def test_publish_follow_rejects_no_finish(self, tmp_path, capsys):
        document = tmp_path / "doc.xml"
        document.write_text("<a/>", encoding="utf-8")
        exit_code = main(["publish", str(document), "--follow", "--no-finish"])
        assert exit_code == 1
        assert "no-finish" in capsys.readouterr().err

    def test_publish_follow_unreachable_service_reports_error(
        self, tmp_path, capsys
    ):
        document = tmp_path / "doc.xml"
        document.write_text("<a/>", encoding="utf-8")
        exit_code = main(
            ["publish", str(document), "--follow", "--host", "127.0.0.1", "--port", "1"]
        )
        assert exit_code == 1
        assert "cannot reach service" in capsys.readouterr().err


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "vitex-repro" in capsys.readouterr().out

    def test_build_parser_has_subcommands(self):
        parser = build_parser()
        assert parser.prog == "vitex"


#: Every verb that parses XML (or forwards a backend selection) must accept
#: the one shared ``--parser`` flag.
PARSING_VERBS = ("run", "watch", "serve", "resume", "publish")


def _subparsers():
    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse introspection
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return action.choices
    raise AssertionError("no subparsers found")


class TestSharedParserFlag:
    def test_every_parsing_verb_accepts_the_flag(self):
        subparsers = _subparsers()
        for verb in PARSING_VERBS:
            actions = [
                action
                for action in subparsers[verb]._actions
                if "--parser" in getattr(action, "option_strings", ())
            ]
            assert len(actions) == 1, f"vitex {verb} must accept --parser exactly once"

    def test_choices_stay_in_sync_with_engine_config(self):
        """The CLI spelling can never drift from the library's backends."""
        from repro.api import EngineConfig

        subparsers = _subparsers()
        for verb in PARSING_VERBS:
            action = next(
                action
                for action in subparsers[verb]._actions
                if "--parser" in getattr(action, "option_strings", ())
            )
            assert tuple(action.choices) == EngineConfig.PARSERS, verb

    def test_uniform_spelling_parses_on_every_verb(self):
        parser = build_parser()
        argv_by_verb = {
            "run": ["run", "//a", "f.xml"],
            "watch": ["watch", "q.txt", "f.xml"],
            "serve": ["serve"],
            "resume": ["resume", "ck.json"],
            "publish": ["publish", "f.xml"],
        }
        for verb, argv in argv_by_verb.items():
            for backend in ("pure", "native", "expat"):
                args = parser.parse_args(argv + ["--parser", backend])
                assert args.parser == backend, (verb, backend)
            args = parser.parse_args(argv)
            assert args.parser is None, f"{verb} default must defer to the verb"

    def test_run_expat_backend_works_end_to_end(self, figure1_file, capsys):
        exit_code = main(["run", FIGURE_1_QUERY, figure1_file, "--parser", "expat"])
        assert exit_code == 0
        assert "1 solution(s)" in capsys.readouterr().out
