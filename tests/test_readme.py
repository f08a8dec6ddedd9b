"""Every bash and python block documented in the README must execute
cleanly.

The bash blocks run once, in README order, in one shared working
directory: later walkthrough blocks read the files that earlier ones
write. They run the CLI as ``python3 -m daoracle`` against this checkout's
``src``, so no install step is needed. Each python block runs on its own,
in a fresh interpreter with the same ``src`` first on ``sys.path``, so a
sketch of a renamed or deleted API fails here.
"""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def blocks(language: str) -> list[str]:
    text = README.read_text()
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def recurses(script: str) -> bool:
    return "pytest tests/" in script


def block_env() -> dict:
    """The suite's environment with the checkout's ``src`` first on
    PYTHONPATH and the running interpreter first on PATH, so ``python3``
    in a block is this interpreter and imports this checkout."""
    env = dict(os.environ)
    for var, first in (
        ("PYTHONPATH", REPO / "src"),
        ("PATH", Path(sys.executable).parent),
    ):
        env[var] = os.pathsep.join(filter(None, (str(first), env.get(var))))
    return env


@dataclass(frozen=True)
class BlockRun:
    returncode: int = 0
    stdout: str = ""
    stderr: str = ""
    blocked_by: int | None = None  # an earlier block that failed; not run


@pytest.fixture(scope="session")
def readme_runs(tmp_path_factory) -> dict:
    workdir = tmp_path_factory.mktemp("readme_session")
    shutil.copytree(REPO / "scenarios", workdir / "scenarios")
    env = block_env()
    runs = {}
    failed = None
    for idx, script in enumerate(blocks("bash")):
        if recurses(script):
            continue
        if failed is not None:
            runs[idx] = BlockRun(blocked_by=failed)
            continue
        proc = subprocess.run(
            ["bash", "-e", "-c", script],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        runs[idx] = BlockRun(proc.returncode, proc.stdout, proc.stderr)
        if proc.returncode != 0:
            failed = idx
    return runs


@pytest.mark.parametrize("idx", range(len(blocks("bash"))))
def test_readme_block(idx, readme_runs):
    script = blocks("bash")[idx]
    if recurses(script):
        pytest.skip("the test-suite block would recurse")
    run = readme_runs[idx]
    assert run.blocked_by is None, (
        f"README block {idx} did not run: README block {run.blocked_by} "
        f"before it failed\n--- script ---\n{script}"
    )
    assert run.returncode == 0, (
        f"README block {idx} failed\n--- script ---\n{script}\n"
        f"--- stdout ---\n{run.stdout}\n--- stderr ---\n{run.stderr}"
    )


@pytest.mark.parametrize("idx", range(len(blocks("python"))))
def test_readme_python_block(idx, tmp_path):
    script = blocks("python")[idx]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=block_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"README python block {idx} failed\n--- script ---\n{script}\n"
        f"--- stderr ---\n{proc.stderr}"
    )
