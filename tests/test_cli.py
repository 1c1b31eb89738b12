"""Smoke tests for the console entry point.

``repro`` (repro.api.cli) is the single front door.  These tests invoke
its ``main([...])`` exactly as the installed script does — with
``--smoke``-class arguments kept small enough for CI — pin the
``setup.py`` declaration to a real import target so a rename can never
ship a broken script, and check that every ``python -m repro…`` command
the documentation teaches names the ``repro`` module and parses.  (The
remaining subcommands are covered in ``tests/test_api.py``.)
"""

from __future__ import annotations

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.api.cli import build_parser, main

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
        out = tmp_path / "perf.json"
        code = main([
            "perf", "--benchmark", "mcf", "--mechanism", "baseline",
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
        code = main([
            "perf", "--benchmark", "mcf", "--mechanism", "rsep-realistic",
            "--warmup", "512", "--measure", "2000", "--repeats", "1",
            "--sampled", "--interval", "1000", "--detail-ratio", "0.25",
            "--json", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["aggregate_kips"]["rsep-realistic"] > 0

    def test_unknown_mechanism_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["perf", "--mechanism", "definitely-not-a-preset"])


class TestSweepCli:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        listed = capsys.readouterr().out
        for command in ("sweep", "perf", "figures", "report", "inspect",
                        "profile", "tail", "serve"):
            assert command in listed

    def test_smoke_gate_passes(self, capsys):
        # The actual CI gate: cold == memoised == warm-store over a
        # private temporary store.  (The sampled extension has its own
        # CI invocation; it is too slow for the tier-1 suite.)
        assert main(["sweep", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: cold == memoised == warm-store" in out


#: Where the project documents commands to run.
DOCUMENTED = ("README.md", ".claude/skills/verify/SKILL.md",
              ".github/workflows/ci.yml")

_COMMAND = re.compile(r"python3? -m (repro[\w.]*)([^`\n]*)")


def documented_commands(text: str) -> list[tuple[str, list[str]]]:
    """Every ``python -m repro…`` command in *text*: (module, argv).

    Backslash continuations are joined; an argument list ends at a shell
    operator or comment, and shell variables such as ``$args`` are
    skipped.
    """
    commands = []
    for match in _COMMAND.finditer(text.replace("\\\n", " ")):
        lexer = shlex.shlex(match.group(2), posix=True,
                            punctuation_chars=True)
        lexer.whitespace_split = True
        argv = []
        for token in lexer:
            if token[0] in "&|;<>()":
                break
            if not token.startswith("$"):
                argv.append(token)
        commands.append((match.group(1), argv))
    return commands


class TestDocumentedCommands:
    def test_extractor_handles_shell_syntax(self):
        text = ("$ python -m repro serve --tcp 0.0.0.0:9091 &  # note\n"
                "  python -m repro.harness.perf \\\n    --repeats 1\n"
                "run: python -m repro figures $args --out out\n")
        assert documented_commands(text) == [
            ("repro", ["serve", "--tcp", "0.0.0.0:9091"]),
            ("repro.harness.perf", ["--repeats", "1"]),
            ("repro", ["figures", "--out", "out"]),
        ]

    @pytest.mark.parametrize("document", DOCUMENTED)
    def test_documented_commands_parse(self, document, capsys):
        commands = documented_commands(
            (REPO_ROOT / document).read_text(encoding="utf-8")
        )
        assert commands, f"{document} documents no repro command"
        for module, argv in commands:
            assert module == "repro", (
                f"{document} teaches `python -m {module}`; every command "
                "goes through the `repro` front door"
            )
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{document}: `repro {shlex.join(argv)}` does "
                            f"not parse: {capsys.readouterr().err}")


def readme_env_rows() -> list[str]:
    """The variable named by each row of README's environment table."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables → spec fields", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\|\s*`(REPRO_\w+)`", section, flags=re.MULTILINE)


#: A literal read of a ``REPRO_*`` variable from the environment.
_ENV_READ = re.compile(
    r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](REPRO_\w+)["']"""
)


class TestEnvironmentReaders:
    def test_readme_table_matches_known_vars(self):
        from repro.api.env import KNOWN_VARS

        rows = readme_env_rows()
        assert len(rows) == len(set(rows)), f"duplicate rows: {rows}"
        assert set(rows) - set(KNOWN_VARS) == set(), "rows nothing reads"
        assert set(KNOWN_VARS) - set(rows) == set(), "variables without rows"

    def test_only_api_env_reads_repro_variables(self):
        assert _ENV_READ.findall(
            "os.environ.get(\n 'REPRO_A') os.environ[\"REPRO_B\"] "
            "os.getenv('REPRO_C') os.environ.get(name)"
        ) == ["REPRO_A", "REPRO_B", "REPRO_C"]
        package = REPO_ROOT / "src" / "repro"
        readers = [
            f"{path.relative_to(package)}: {name}"
            for path in sorted(package.rglob("*.py"))
            if path != package / "api" / "env.py"
            for name in _ENV_READ.findall(path.read_text(encoding="utf-8"))
        ]
        assert readers == [], (
            "read REPRO_* through repro.api.env, at a front door"
        )
