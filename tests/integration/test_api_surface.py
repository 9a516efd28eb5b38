"""The committed API-surface snapshot and the README snippets stay honest.

Mirrors the CI ``api-surface`` job so the gate also runs under plain
``pytest``: ``tools/check_api_surface.py`` must report no drift against the
committed ``api_surface.txt``, and every runnable python block in README.md
must execute cleanly against the live package.  The ``lint`` job's
``tools/check_single_kernel.py`` (no transition internals outside
``core/transitions.py`` and ``core/stack.py``) runs here the same way.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC_DIR = os.path.join(ROOT, "src")


def run_tool(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=ROOT,
    )


class TestApiSurfaceSnapshot:
    def test_committed_snapshot_matches_live_package(self):
        result = run_tool("check_api_surface.py")
        assert result.returncode == 0, (
            "public API surface drifted from api_surface.txt — regenerate "
            "with `PYTHONPATH=src python tools/check_api_surface.py --write` "
            f"if intentional.\n{result.stderr}"
        )

    def test_snapshot_mentions_the_facade(self):
        with open(os.path.join(ROOT, "api_surface.txt"), encoding="utf-8") as handle:
            surface = handle.read()
        for needle in (
            "class repro.Engine",
            "class repro.Query",
            "class repro.Match",
            "repro.connect(",
            "[repro.api]",
        ):
            assert needle in surface, needle


class TestReadmeSnippets:
    def test_every_runnable_snippet_executes(self):
        result = run_tool("run_readme_snippets.py")
        assert result.returncode == 0, result.stderr
        assert "0 skipped" in result.stdout or "skipped" in result.stdout

    def test_readme_documents_migration_and_stability(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        assert "## Migrating from the pre-1.1 API" in readme
        assert "## API stability policy" in readme
        assert "DeprecationWarning" in readme


class TestSingleKernel:
    def test_no_module_inlines_the_transition_functions(self):
        result = run_tool("check_single_kernel.py")
        assert result.returncode == 0, result.stderr

    def test_an_inlined_copy_is_reported(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "stack.py").write_text("def acquire_entry(): pass\n")
        (core / "fastpath.py").write_text(
            "from .stack import acquire_entry\n"
            "def scan(target, entry):\n"
            "    target.absorb_candidates(entry)\n"
        )
        result = run_tool("check_single_kernel.py", str(tmp_path))
        assert result.returncode == 1
        assert "fastpath.py:1: acquire_entry" in result.stderr
        assert "fastpath.py:3: absorb_candidates" in result.stderr
        assert "stack.py:" not in result.stderr

    def test_a_second_driver_for_an_input_format_is_reported(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "kernel.py").write_text("from .transitions import process_end_element\n")
        (core / "multi.py").write_text("from .transitions import process_end_element\n")
        (core / "framepath.py").write_text(
            "from ..xmlstream.eventcodec import EventFrameDecoder, _read_varint\n"
            "from .transitions import process_start_element\n"
        )
        result = run_tool("check_single_kernel.py", str(tmp_path))
        assert result.returncode == 1
        assert "framepath.py:1: xmlstream.eventcodec._read_varint" in result.stderr
        assert "EventFrameDecoder" not in result.stderr
        assert "framepath.py:2: import from transitions" in result.stderr
        assert "multi.py:1: import from transitions" in result.stderr
        assert "kernel.py:1" not in result.stderr

    def test_a_hand_copied_text_accumulator_is_reported(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "fastpath.py").write_text(
            "def _append_text(text_nodes, text, level):\n"
            "    for node in text_nodes:\n"
            "        for entry in node.stack.entries:\n"
            "            entry.string_parts.append(text)\n"
        )
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "naive.py").write_text("def collect(record, text):\n    record.direct_parts.append(text)\n")
        result = run_tool("check_single_kernel.py", str(tmp_path))
        assert result.returncode == 1
        assert "fastpath.py:4: string_parts" in result.stderr
        assert "naive.py" not in result.stderr
