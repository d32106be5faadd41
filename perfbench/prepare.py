"""Input preparation for the benchmark, run in its own process.

Every input a workload reads is built here, from the repository's own
dataset twins and generator API, and cached under
``.perfbench_cache/`` at the checkout root.  Nothing built here is
timed or counted in the measured process's peak RSS: ``run.py`` runs
this script first, then starts the measured process on the files it
names.

Dataset twins and the ``generate`` artifact are fixed inputs (dataset
seed 0, model seed 0); the query streams depend on the workload seed.
Cache file names carry a digest of this file and of every source file
under ``src/``, because the inputs are built by the program itself
(dataset twins, archive format, VRDAG fit, query generator): each
version of the program builds and measures its own inputs.

Usage::

    PYTHONPATH=src python3 perfbench/prepare.py --workload serve --seed 3

prints one JSON manifest (input name -> path or value) on stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"


@functools.lru_cache(maxsize=None)
def version() -> str:
    """Digest of this file and of the program source under ``src/``."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]

#: (dataset, scale, timesteps kept) of each graph archive
GRAPHS = {
    "email_t6": ("email", 0.05, 6),
    "email_t14": ("email", 0.05, 14),
    "wiki": ("wiki", 0.2, None),
}

#: query pools: (archive, mix, requests, queries per request).  The
#: live pool holds that many requests *per epoch*, each drawn against
#: the graph prefix sealed at that epoch, so reads target sealed data.
POOLS = {
    "serve": ("wiki", "serving", 32, 256),
    "live": ("wiki", "oltp", 32, 64),
}

WORKLOAD_INPUTS = {
    "fit": ("email_t6",),
    "generate": ("email_t14", "artifact"),
    "serve": ("wiki", "pool"),
    "live": ("wiki", "pool"),
}


def _cached(name: str, build) -> Path:
    """Directory of cache entry ``name``, built on first use.

    ``build`` fills a temporary directory, which is then renamed into
    place, so a crashed build never leaves a partial entry.
    """
    path = CACHE / f"{version()}-{name}"
    if not path.is_dir():
        tmp = CACHE / f".tmp-{name}"
        shutil.rmtree(tmp, ignore_errors=True)  # left by a crashed build
        tmp.mkdir(parents=True)
        build(tmp)
        os.replace(tmp, path)
    return path


def graph_archive(key: str) -> Path:
    """A ``graph.io`` archive of one dataset twin (store-backed on load)."""
    from repro.datasets import load_dataset
    from repro.graph import DynamicAttributedGraph
    from repro.graph import io as graph_io

    name, scale, steps = GRAPHS[key]

    def build(tmp: Path) -> None:
        graph = load_dataset(name, scale=scale, seed=0)
        if steps is not None:
            graph = DynamicAttributedGraph.from_store(
                graph.store.slice_timesteps(0, steps)
            )
        graph_io.save(graph, tmp / "graph.npz")

    return _cached(key, build) / "graph.npz"


def artifact() -> Path:
    """VRDAG artifact fitted on ``email_t14`` with the harness defaults.

    ``loss.json`` beside it keeps the fit's final training loss, which
    the artifact envelope does not carry.
    """
    from repro.api import save_artifact
    from repro.eval.harness import VRDAGGenerator
    from repro.graph import io as graph_io

    reference = graph_archive("email_t14")

    def build(tmp: Path) -> None:
        generator = VRDAGGenerator(seed=0).fit(graph_io.load(reference))
        save_artifact(generator, tmp / "vrdag.npz")
        (tmp / "loss.json").write_text(
            json.dumps({"final_loss": generator.train_result.final_loss})
        )

    return _cached("artifact", build)


def query_pool(workload: str, seed: int) -> Path:
    """Seeded request pool for ``serve`` / ``live`` as query columns.

    Columns: ``kind`` (index into ``QueryKind``), ``t``, ``nargs`` and
    ``args`` (float64, up to four per query; ints are exact).  The
    live pool is the concatenation of the pools of epochs ``1..T``.
    """
    from repro.graph import DynamicAttributedGraph
    from repro.graph import io as graph_io
    from repro.workloads import (
        QueryKind,
        WorkloadConfig,
        WorkloadGenerator,
        serving_mix,
    )

    archive, mix, requests, per_request = POOLS[workload]
    graph_path = graph_archive(archive)

    def draw(graph, draw_seed):
        config = WorkloadConfig(num_queries=requests * per_request,
                                seed=draw_seed)
        if mix == "serving":
            config.mix = serving_mix()
        return WorkloadGenerator(graph, config).generate()

    def build(tmp: Path) -> None:
        graph = graph_io.load(graph_path)
        if workload == "serve":
            queries = draw(graph, seed)
        else:
            queries = []
            for epoch in range(1, graph.num_timesteps + 1):
                prefix = DynamicAttributedGraph.from_store(
                    graph.store.slice_timesteps(0, epoch))
                queries += draw(prefix, seed * 1000 + epoch)
        kinds = list(QueryKind)
        args = np.zeros((len(queries), 4))
        nargs = np.zeros(len(queries), dtype=np.int64)
        for i, q in enumerate(queries):
            nargs[i] = len(q.args)
            args[i, : len(q.args)] = q.args
        np.savez(
            tmp / "pool.npz",
            kind=np.array([kinds.index(q.kind) for q in queries]),
            t=np.array([q.t for q in queries], dtype=np.int64),
            nargs=nargs,
            args=args,
            per_request=np.array(per_request),
        )

    return _cached(f"{workload}-pool-{seed}", build) / "pool.npz"


def prepare(workload: str, seed: int) -> dict:
    """Build (or reuse) every input of ``workload``; returns the manifest."""
    manifest = {}
    for item in WORKLOAD_INPUTS[workload]:
        if item in GRAPHS:
            manifest["graph"] = str(graph_archive(item))
        elif item == "artifact":
            entry = artifact()
            manifest["artifact"] = str(entry / "vrdag.npz")
            manifest["artifact_final_loss"] = json.loads(
                (entry / "loss.json").read_text()
            )["final_loss"]
        elif item == "pool":
            manifest["pool"] = str(query_pool(workload, seed))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(prepare(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
