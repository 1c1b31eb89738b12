"""Smoke tests for the console entry points.

``repro`` (repro.api.cli) is the single front door.  These tests invoke
the ``main([...])`` functions exactly as the installed script and the
module CLIs do — with ``--smoke``-class arguments kept small enough for
CI — and pin the ``setup.py`` declaration to a real import target so a
rename can never ship a broken script.  (The ``repro``
subcommands themselves are covered in ``tests/test_api.py``.)
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestConsoleScriptDeclarations:
    def _declared_entry_points(self) -> dict[str, tuple[str, str]]:
        text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        entries = re.findall(r'"([\w-]+)\s*=\s*([\w.]+):(\w+)"', text)
        assert entries, "no console_scripts found in setup.py"
        return {name: (module, func) for name, module, func in entries}

    def test_declared_targets_resolve(self):
        declared = self._declared_entry_points()
        assert set(declared) == {"repro"}
        for name, (module_name, func_name) in declared.items():
            module = importlib.import_module(module_name)
            target = getattr(module, func_name)
            assert callable(target), name


class TestPerfCli:
    def test_tiny_cell_writes_json(self, capsys, tmp_path):
        from repro.harness.perf import main

        out = tmp_path / "perf.json"
        code = main([
            "--benchmark", "mcf", "--mechanism", "baseline",
            "--warmup", "256", "--measure", "1024",
            "--repeats", "1", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["warmup"] == 256 and report["measure"] == 1024
        assert "baseline" in report["aggregate_kips"]
        assert report["aggregate_kips"]["baseline"] > 0
        samples = report["samples"]
        assert [s["benchmark"] for s in samples] == ["mcf"]
        rendered = capsys.readouterr().out
        assert "mcf" in rendered and "baseline" in rendered

    def test_sampled_flag_times_sampled_runs(self, capsys):
        from repro.harness.perf import main

        code = main([
            "--benchmark", "mcf", "--mechanism", "rsep-realistic",
            "--warmup", "512", "--measure", "2000", "--repeats", "1",
            "--sampled", "--interval", "1000", "--detail-ratio", "0.25",
            "--json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["aggregate_kips"]["rsep-realistic"] > 0

    def test_unknown_mechanism_is_rejected(self):
        from repro.harness.perf import main

        with pytest.raises(SystemExit):
            main(["--mechanism", "definitely-not-a-preset"])


class TestSweepCli:
    def test_no_arguments_prints_help(self, capsys):
        from repro.harness.sweep import main

        assert main([]) == 2
        assert "--smoke" in capsys.readouterr().out

    def test_smoke_gate_passes(self, capsys):
        # The actual CI gate: cold == memoised == warm-store over a
        # private temporary store.  (The sampled extension has its own
        # CI invocation; it is too slow for the tier-1 suite.)
        from repro.harness.sweep import main

        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: cold == memoised == warm-store" in out
