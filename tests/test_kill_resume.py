"""Kill/resume chaos: a ``--workers 2 --cache --checkpoint`` synthesis
SIGKILLed at seeded random points -- the parent, or one of its pool
workers -- resumes to the uncached result, leaves a store that reloads
clean, and a warm rerun then replays every shard.
"""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import api
from repro.enumeration import get_config, shard_signatures
from repro.enumeration.canonical import canonical_key
from repro.harness.pipeline import CheckPipeline
from repro.harness.verdict_cache import VerdictCache
from repro.obs import REGISTRY, reset_observability

SRC = Path(__file__).resolve().parent.parent / "src"

#: The child: prints ``ready`` once its pipeline is open, then the
#: suites' canonical keys, in order, when the synthesis finishes.
CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.enumeration.canonical import canonical_key
    from repro.harness.pipeline import CheckPipeline

    cache, checkpoint = sys.argv[1:]
    with CheckPipeline(
        workers=2, cache=cache, checkpoint=checkpoint, runlog=False
    ) as pipeline:
        print("ready", flush=True)
        result = pipeline.synthesis("x86", 3)
    print(json.dumps([
        [repr(canonical_key(x)) for x in result.forbidden],
        [repr(canonical_key(x)) for x in result.allowed],
    ]), flush=True)
    """
)


def _suite_keys(result) -> list:
    return [
        [repr(canonical_key(x)) for x in result.forbidden],
        [repr(canonical_key(x)) for x in result.allowed],
    ]


def _start(cache: Path, checkpoint: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(cache), str(checkpoint)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    assert child.stdout.readline().strip() == "ready"
    return child


def _workers(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(token) for token in text.split()]


def _kill(child: subprocess.Popen, delay: float, target: str) -> str:
    """SIGKILL ``target`` (the parent, or one worker) ``delay`` seconds
    into the run, then the rest of the process group; returns what was
    actually killed."""
    time.sleep(delay)
    killed = "finished"
    if child.poll() is None:
        workers = _workers(child.pid) if target == "worker" else []
        victim = workers[0] if workers else child.pid
        try:
            os.kill(victim, signal.SIGKILL)
            killed = "worker" if workers else "parent"
        except ProcessLookupError:
            pass
        if workers:
            # The parent waits forever on the lost chunk; let it run a
            # moment longer (it may record more), then take it down too.
            time.sleep(0.2)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.communicate()
    return killed


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}").is_dir() or os.name != "posix",
    reason="needs POSIX signals and /proc",
)
def test_killed_runs_resume_to_the_uncached_suites(tmp_path):
    expected = _suite_keys(api.synthesize("x86", 3, workers=1))
    cache, checkpoint = tmp_path / "cache", tmp_path / "synth.jsonl"
    rng = random.Random(16)
    killed = [
        _kill(_start(cache, checkpoint), rng.uniform(0.0, 0.4), target)
        for target in ("parent", "worker", rng.choice(["parent", "worker"]))
    ]
    assert killed.count("finished") < len(killed), killed

    final = _start(cache, checkpoint)
    out, _ = final.communicate(timeout=300)
    assert final.returncode == 0
    assert json.loads(out) == expected

    # Every shard line the killed and resumed runs left loads.
    lines = [
        line
        for segment in sorted(cache.glob("shards-*.jsonl"))
        for line in segment.read_text().splitlines()
    ]
    keys = [json.loads(line)["key"] for line in lines]
    assert len(set(keys)) == len(keys)
    reader = VerdictCache(cache)
    assert all(reader.shard_lookup(key) is not None for key in keys)

    # A warm rerun replays every shard and evaluates no chunk.
    config = get_config("x86")
    shards = sum(len(list(shard_signatures(config, n))) for n in (2, 3))
    reset_observability()
    with CheckPipeline(workers=2, cache=cache, runlog=False) as pipeline:
        assert _suite_keys(pipeline.synthesis("x86", 3)) == expected
    counters = REGISTRY.snapshot()["counters"]
    reset_observability()
    assert counters["verdict_cache.shards.hits"] == shards
    assert counters.get("scheduler.chunks", 0) == 0
