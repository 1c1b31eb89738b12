"""Smoke tests for the console entry point.

``repro`` (repro.api.cli) is the single front door.  These tests invoke
its ``main([...])`` exactly as the installed script does — with
arguments kept small enough for CI — pin the ``setup.py`` declaration
to a real import target so a rename can never ship a broken script, and
check that every ``python -m repro…`` command the documentation teaches
names the ``repro`` module and parses.  (The remaining subcommands are
covered in ``tests/test_api.py``.)
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path, PurePosixPath

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


class TestShardsFromEnvironment:
    """``REPRO_SHARDS=-3`` is rejected like ``--shards -3``, not read as
    0 (in process)."""

    @pytest.mark.parametrize("command", [
        ["sweep", "--benchmark", "mcf", "--mechanism", "baseline"],
        ["figures", "fig4", "--benchmark", "mcf"],
    ], ids=["sweep", "figures"])
    def test_negative_count_exits_2(self, monkeypatch, capsys, command):
        monkeypatch.setenv("REPRO_SHARDS", "-3")
        assert main([*command, "--warmup", "0", "--measure", "200"]) == 2
        assert "shards must be >= 0" in capsys.readouterr().err


class TestBadWindow:
    """A bad ``--warmup``/``--measure`` is a one-line exit 2, as in
    ``repro sweep``, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["profile", "--full-detail"],
        ["figures", "fig4", "--benchmark", "mcf"],
    ], ids=["profile", "figures"])
    @pytest.mark.parametrize("window,message", [
        (["--warmup", "-5", "--measure", "100"],
         "warmup must be non-negative"),
        (["--measure", "0"], "measure must be positive"),
    ], ids=["negative-warmup", "zero-measure"])
    def test_exits_2_with_one_line(self, capsys, command, window, message):
        assert main([*command, *window]) == 2
        err = capsys.readouterr().err
        assert err == f"repro {command[0]}: {message}\n"


class TestSweepCli:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        listed = capsys.readouterr().out
        choices = re.search(r"\{([\w,]+)\}", listed).group(1).split(",")
        assert choices == ["sweep", "figures", "inspect", "profile", "serve"]
        for retired in ("perf", "report", "tail"):
            assert retired not in choices
            with pytest.raises(SystemExit) as exit_info:
                main([retired])
            assert exit_info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--smoke"], ["profile", "--gate"],
        ["profile", "--repeats", "3"],
    ], ids=["sweep-smoke", "profile-gate", "profile-repeats"])
    def test_retired_gate_options_are_unrecognised(self, argv, capsys):
        # The checks these options ran are tier-1 tests; the program
        # carries no test mode.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in (
            capsys.readouterr().err
        )


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
                "  python -m repro.harness.sweep \\\n    --repeats 1\n"
                "run: python -m repro figures $args --out out\n")
        assert documented_commands(text) == [
            ("repro", ["serve", "--tcp", "0.0.0.0:9091"]),
            ("repro.harness.sweep", ["--repeats", "1"]),
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


class TestTraceStoreCacheKey:
    """CI restores the trace store under one key, and that key rolls over
    whenever a module that re-keys stored traces is edited."""

    def test_ci_cache_key_covers_the_versioned_modules(self):
        from repro.workloads.store import _VERSIONED_MODULES

        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        keys = re.findall(r"^\s*key: (trace-store-.*)$", text, re.MULTILINE)
        assert keys and len(set(keys)) == 1, keys
        globs = re.findall(r"'([^']+)'", keys[0].split("hashFiles(", 1)[1])
        for name in _VERSIONED_MODULES:
            source = PurePosixPath("src", *name.split(".")).with_suffix(".py")
            assert (REPO_ROOT / source).is_file(), source
            assert any(
                len(PurePosixPath(glob).parts) == len(source.parts)
                and source.match(glob)
                for glob in globs
            ), f"{source} is not in the CI trace-store key {globs}"


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
