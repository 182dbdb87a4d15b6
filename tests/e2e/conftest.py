"""Fixtures of the execution-mode matrix: one bundle, one corpus, one
in-process golden per command, and one owner of every ``repro serve``
subprocess (SIGKILLed when its test, at the latest the session, ends)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import __file__ as CLI, main
from repro.dataset.corpus import CorpusGenerator
from repro.serve import faults

COMMANDS = ("suggest-dir", "rewrite-dir")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "corpus"


class Fleet:
    """Starts ``repro serve`` daemons and SIGKILLs them."""

    def __init__(self, root: Path) -> None:
        self.root, self.procs = root, []
        (root / "tmp").mkdir()

    def start(self, *argvs, env=None) -> list:
        """One daemon per argv, started together; returns them ready,
        each with its ``address`` and stderr ``log``."""
        # temp dirs stay under the root, and no armed fault plan leaks
        path = [str(Path(CLI).parents[1]), os.environ.get("PYTHONPATH")]
        child_env = {**os.environ, "TMPDIR": str(self.root / "tmp"),
                     "PYTHONPATH": os.pathsep.join(filter(None, path)),
                     **(env or {})}
        child_env.pop(faults.ENV_VAR, None)
        started = []
        for argv in argvs:
            n = len(self.procs)
            listen = [] if "--unix" in argv else ["--listen", "127.0.0.1:0"]
            ready = self.root / f"{n}.ready"
            with open(self.root / f"{n}.log", "w") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve", *listen,
                     *map(str, argv), "--ready-file", str(ready)],
                    env=child_env, stdout=subprocess.DEVNULL, stderr=log)
            proc.log, proc.ready = Path(log.name), ready
            self.procs.append(proc)
            started.append(proc)
        deadline = time.monotonic() + 120
        for proc in started:
            while not (proc.ready.exists() and proc.ready.read_text()):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"no daemon:\n{proc.log.read_text()}")
                time.sleep(0.02)
            proc.address = proc.ready.read_text()
        return started

    def kill(self, procs=None) -> None:
        for proc in self.procs if procs is None else procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)


@pytest.fixture(scope="session")
def fleet(tmp_path_factory):
    owner = Fleet(tmp_path_factory.mktemp("fleet"))
    yield owner
    owner.kill()


@pytest.fixture
def serve(fleet):
    """``fleet.start`` for one test: its daemons die when it ends."""
    mine = []

    def start(*argvs, env=None):
        mine.extend(fleet.start(*argvs, env=env))
        return mine[-len(argvs):]

    yield start
    fleet.kill(mine)


@pytest.fixture(scope="session")
def pair(fleet, tmp_path_factory):
    """Two ``--accept-bundles`` peers, for checks that hold whatever
    the peers already hold."""
    root = tmp_path_factory.mktemp("pair")
    return [proc.address for proc in fleet.start(
        *(["--accept-bundles", "--cache-dir", root / tag] for tag in "ab"))]


@pytest.fixture(scope="session")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "advisor"
    assert main(["train", "--scale", "0.005", "--epochs", "1", "--dim",
                 "16", "--bundle-out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """32 generated files plus ``examples/corpus``."""
    root = tmp_path_factory.mktemp("corpus")
    _, files = CorpusGenerator(seed=41).generate(scale=0.004)
    for f in files:
        (root / f"file_{f.file_id}.c").write_text(f.source)
    for path in EXAMPLES.glob("*.c"):
        (root / path.name).write_text(path.read_text())
    return root


@pytest.fixture(scope="session")
def golden(bundle, corpus, tmp_path_factory):
    """Each command's in-process ``--out`` bytes: every cell's oracle."""
    root = tmp_path_factory.mktemp("golden")
    for command in COMMANDS:
        assert main([command, str(corpus), "--bundle", bundle, "--quiet",
                     "--out", str(root / command)]) == 0
    return {command: (root / command).read_bytes() for command in COMMANDS}


@pytest.fixture
def repro(capsys):
    """``repro ARGV`` in process: asserts exit 0, returns (out, err)."""

    def run(*argv):
        code = main([str(arg) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 0, err
        return out, err

    return run


@pytest.fixture
def armed(monkeypatch):
    """``--faults`` writes ``os.environ`` and ``repro.serve.faults``:
    put both back after a fault cell."""
    monkeypatch.setenv(faults.ENV_VAR, os.environ.get(faults.ENV_VAR, ""))
    monkeypatch.setattr(faults, "_armed", faults._armed)
    monkeypatch.setattr(faults, "_env_checked", faults._env_checked)
