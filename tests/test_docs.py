"""Documentation checks: the docs exist, are linked, and their CLI
code fences actually execute.

README.md's CLI tour is run command-by-command against a small fixture
database (every ``repro ...`` line in an ``sh`` fence, with file
placeholders substituted), so a renamed flag or subcommand breaks CI
instead of the first reader.  CI's docs job runs this module together
with ``tests/test_examples.py``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_examples import REPO_ROOT, subprocess_env

FIXTURE_DB = """%database
%table R/2
0 1
0 2
1 3
?v 4 :: v = 0
%table S/2
0 5
1 6
%table T/2
1 7
2 8
3 9
"""

FIXTURE_INSTANCE = """%instance
%relation R/2
0 1
"""

FIXTURE_QUERY = "V(Y) :- R(X, Y), S(X, Z), X = 0.\n"


def _cli_lines():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    fences = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = []
    for fence in fences:
        for raw in fence.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("repro "):
                lines.append(line)
    return lines


CLI_LINES = _cli_lines()


def test_readme_and_architecture_exist_and_are_linked():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert "docs/architecture.md" in readme
    assert "docs/architecture.md" in roadmap
    assert "README.md" in roadmap


def test_readme_covers_the_required_tour():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for required in (
        "pytest",
        "--explain",
        "bench_histogram_selectivity.py",
        "examples/quickstart.py",
    ):
        assert required in readme, f"README.md lost its {required} section"


def test_readme_mentions_every_package():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    packages = sorted(
        p.name
        for p in (REPO_ROOT / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    )
    missing = [name for name in packages if f"`{name}`" not in readme]
    assert not missing, f"README package index is missing {missing}"


def test_readme_has_cli_fences():
    assert len(CLI_LINES) >= 8, "README's CLI tour shrank unexpectedly"


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_fence_executes(line, tmp_path):
    """Each ``repro ...`` line in README's sh fences runs without a usage
    error against fixture files (exit 0 or a legitimate yes/no 0/1)."""
    files = {
        "db.pwt": FIXTURE_DB,
        "sub.pwt": FIXTURE_DB,
        "super.pwt": FIXTURE_DB,
        "world.pwi": FIXTURE_INSTANCE,
        "facts.pwi": FIXTURE_INSTANCE,
        "q.dl": FIXTURE_QUERY,
        "q1.dl": FIXTURE_QUERY,
        "q2.dl": FIXTURE_QUERY,
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")

    args = []
    for token in re.findall(r"'[^']*'|\S+", line)[1:]:
        token = token.strip("'")
        if token in files:
            token = str(tmp_path / token)
        args.append(token)

    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode in (0, 1), (
        f"README fence {line!r} exited {result.returncode}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
