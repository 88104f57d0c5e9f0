"""The three closed-loop workloads.

A workload is built from the imported package and a seed.  ``run(i)`` is the
timed operation number i (inputs cycle), ``check(i, result)`` compares its
result with a reference from :mod:`reference` and returns None or what is
wrong, and the first ``trace_ops`` operations are the fixed list the traced
run replays.  Package functions are looked up on their module at every call,
so a traced run sees the wrappers the recorder installs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path

import gen
import reference


def _space(uf, tree: gen.MergeTree):
    return uf.metric.FiniteMetricSpace(gen.labels(tree.n), tree.matrix())


class Transport:
    """Certified transport norms, many vectors per space.

    Spaces cycle through the three height modes; each gets three random
    rational vectors, three sums of signed molecules and two Diracs.
    """

    name = "transport"

    def __init__(self, uf, seed: int, workdir: Path, n: int = 12, spaces: int = 160):
        self.freespace = uf.freespace
        self.inputs = []
        for k in range(spaces):
            tree = gen.merge_tree(n, f"{seed}/{k}", gen.MODES[k % len(gen.MODES)])
            rng = random.Random(f"vectors:{seed}/{k}")
            vectors = [gen.random_vector(rng, n - 1) for _ in range(3)]
            vectors += [gen.molecule_sum(rng, tree, terms) for terms in (2, 4, 8)]
            vectors += [gen.dirac_vector(tree, rng.randrange(1, n)) for _ in range(2)]
            space = _space(uf, tree)
            self.inputs += [(tree, space, v) for v in vectors]
        self.trace_ops = 8 * 2 * len(gen.MODES)

    def run(self, i: int):
        _, space, coeffs = self.inputs[i % len(self.inputs)]
        return self.freespace.free_norm_certificate(space, self.freespace.FreeVector(coeffs))

    def check(self, i: int, cert):
        tree, _, coeffs = self.inputs[i % len(self.inputs)]
        return reference.check_transport(tree, coeffs, cert.value, cert.flow, cert.potential.values)


class Pipeline:
    """One full ``ell1.pipeline`` verdict per fresh space."""

    name = "pipeline"

    def __init__(self, uf, seed: int, workdir: Path, n: int = 7, nodes: int = 10, spaces: int = 128):
        self.ell1 = uf.ell1
        self.inputs = []
        for k in range(spaces):
            tree = gen.merge_tree_with_nodes(n, f"{seed}/{k}", "coprime", nodes)
            self.inputs.append((tree, _space(uf, tree)))
        self.trace_ops = 3

    def run(self, i: int):
        return self.ell1.pipeline(self.inputs[i % len(self.inputs)][1], seed=i)

    def check(self, i: int, report):
        tree = self.inputs[i % len(self.inputs)][0]
        expected = reference.l1_lower(tree)
        if not report.passed:
            return "pipeline verdict failed"
        if report.size != tree.n or report.basis_constant != 1 or report.l1_upper != 1:
            return f"size {report.size}, basis constant {report.basis_constant}, l1 upper {report.l1_upper}"
        if report.retraction_constant > 4:
            return f"retraction constant {report.retraction_constant} > 4"
        if report.l1_lower != expected:
            return f"l1 lower {report.l1_lower} != chain-expansion value {expected}"
        return None


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


class Cli:
    """In-process ``ultrafree.cli.main`` calls: basis, embed and a small campaign.

    Every call writes its report into the work directory with ``--out``;
    the check reads it back.  Spaces are dyadic (tied powers of two), so
    ``embed`` accepts them.
    """

    name = "cli"
    COMMANDS = ("basis", "embed", "campaign")

    def __init__(self, uf, seed: int, workdir: Path, sizes=range(3, 13)):
        os.environ.pop("ULTRAFREE_OUT", None)
        self.cli = uf.cli
        self.seed = seed
        self.workdir = workdir
        self.trees = {}
        for n in sizes:
            tree = gen.merge_tree(n, seed, "ties")
            data = {"labels": list(gen.labels(n)), "dist": [[str(x) for x in row] for row in tree.matrix()]}
            (workdir / f"space{n}.json").write_text(json.dumps(data))
            self.trees[n] = tree
        self.inputs = [(n, command) for n in sizes for command in self.COMMANDS]
        self.trace_ops = len(self.inputs)

    def _out(self, command: str) -> Path:
        return self.workdir / f"{command}.json"

    def run(self, i: int) -> int:
        n, command = self.inputs[i % len(self.inputs)]
        out = ["--out", str(self._out(command))]
        if command == "campaign":
            argv = out + ["--seed", str(self.seed + i), "campaign", "--sizes", str(n), "--seeds", "1",
                          "--stages", "validate,basis,embed"]
        else:
            argv = out + [command, str(self.workdir / f"space{n}.json")]
        return self.cli.main(argv)

    def check(self, i: int, code: int):
        n, command = self.inputs[i % len(self.inputs)]
        if code != 0:
            return f"{command} exited with {code}"
        report = json.loads(self._out(command).read_text())
        tree = self.trees[n]
        if command == "basis":
            if Fraction(report["basis_constant"]) != 1:
                return f"basis constant {report['basis_constant']}"
            if _fractions(report["basis_norms"]) != reference.chain_norms(tree):
                return "basis norms differ from the merge-tree nearest distances"
            if any(report["violations"].values()):
                return "chain violations reported"
        elif command == "embed":
            if Fraction(report["attained_lipschitz_constant"]) > 4 or not report["claim_checks"]["idempotent"]:
                return "retraction claims fail"
            tree_shape = len(report["dendrogram"]["nodes"]), sum(_fractions(report["dendrogram"]["edge_lengths"]))
            if tree_shape != reference.dendrogram_size(tree):
                return f"dendrogram (nodes, length) {tree_shape} != {reference.dendrogram_size(tree)}"
        else:
            if report["failures"] != 0 or report["passes"] != 1:
                return f"campaign: {report['passes']} passes, {report['failures']} failures"
            stages = report["instances"][0]["stages"]
            if [s["stage"] for s in stages] != ["validate", "basis", "embed"] or not all(s["passed"] for s in stages):
                return "campaign stages missing or failed"
            if _fractions(stages[1]["details"]["basis_constants"]) != [1, 1]:
                return "campaign basis constants differ from 1"
            if Fraction(stages[2]["details"]["retraction_constant"]) > 4:
                return "campaign retraction constant > 4"
        return None


WORKLOADS = {w.name: w for w in (Transport, Pipeline, Cli)}
