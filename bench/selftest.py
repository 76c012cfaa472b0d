"""Self-tests for the benchmark: generators, referee, metric names, spans.

    python3 bench/selftest.py

Not named ``test_*.py``, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from decltrace import brute_force_traces, make_process  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from referee import Referee  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY,
    COUNT,
    KINDS,
    POSSIM,
    TRACES,
    TRACES_HEAD,
    TRACES_JSON,
    WORKLOADS,
    Instance,
    banded,
    chain,
    chain_reference,
    subset_dp,
)


ALL_COMMANDS = (TRACES, TRACES_JSON, TRACES_HEAD, CLASSIFY, COUNT, POSSIM)


def oracle_traces(instance: Instance) -> list[tuple[int, ...]]:
    process = make_process(
        instance.names,
        [(k, instance.names[a], instance.names[b]) for k, a, b in instance.constraints],
    )
    return brute_force_traces(process)


def as_text(instance: Instance, traces) -> bytes:
    return b"".join(
        (" ".join(instance.names[i] for i in t) or "-").encode() + b"\n" for t in traces
    )


def small_samples(seed: int) -> list[Instance]:
    """An n <= 8 draw from each generator family, with every command."""
    rng = random.Random(f"selftest:{seed}")
    any_count = (0, 10**9)
    return [
        banded(rng, "general", rng.randint(4, 8), (2, 5), KINDS, any_count, ALL_COMMANDS),
        banded(rng, "prec-only", rng.randint(4, 8), (1, 4), ("prec",), any_count, ALL_COMMANDS),
        banded(rng, "resp-only", rng.randint(4, 8), (1, 4), ("resp",), any_count, ALL_COMMANDS),
        banded(rng, "succ-only", rng.randint(4, 8), (1, 4), ("succ",), any_count, ALL_COMMANDS),
        banded(rng, "sparse", 8, (0, 3), KINDS, any_count, ALL_COMMANDS),
        chain(rng, "chain", rng.randint(4, 8), ALL_COMMANDS),
        chain(rng, "prec-chain", rng.randint(4, 8), ALL_COMMANDS, precedence_only=True),
    ]


@contextlib.contextmanager
def written(instances):
    """The instances' process files, deleted afterwards; yields label -> path."""
    paths = {i.label: run.WORK / f"selftest-{i.label}.txt" for i in instances}
    try:
        for instance in instances:
            paths[instance.label].write_text(instance.text(), encoding="utf-8")
        yield paths
    finally:
        for path in paths.values():
            path.unlink(missing_ok=True)


class Generators(unittest.TestCase):
    def test_same_seed_same_files(self):
        for name, generate in WORKLOADS.items():
            with self.subTest(workload=name):
                first = [i.text() for i in generate(3)]
                self.assertEqual(first, [i.text() for i in generate(3)])
                self.assertNotEqual(first, [i.text() for i in generate(4)])

    def test_chain_closed_form_matches_subset_dp(self):
        rng = random.Random(5)
        for k in range(40):
            instance = chain(rng, "chain", rng.randint(3, 13), (), precedence_only=k % 2 == 1)
            count, images = subset_dp(instance.n, instance.constraints)
            self.assertEqual((instance.count, instance.images), (count, images), instance.text())

    def test_chain_reference_handles_break_at_start(self):
        # The cycle reaches perm[0] through succ links: only the empty image.
        self.assertEqual(chain_reference([2, 0, 1], ["succ", "prec"], (1, 2)), (1, frozenset({0})))


class RefereeAgreesWithOracle(unittest.TestCase):
    def test_reference_answers_match_brute_force(self):
        for seed in range(6):
            for instance in small_samples(seed):
                with self.subTest(seed=seed, label=instance.label):
                    traces = oracle_traces(instance)
                    self.assertEqual(instance.count, len(traces))
                    masks = {sum(1 << i for i in t) for t in traces}
                    self.assertEqual(instance.images, frozenset(masks))

    def test_oracle_output_passes_every_check(self):
        for instance in small_samples(0):
            with self.subTest(label=instance.label):
                referee = Referee(instance)
                traces = oracle_traces(instance)
                text = as_text(instance, traces)
                names = [[instance.names[i] for i in t] for t in traces]
                self.assertIsNone(referee.check(TRACES, text))
                self.assertIsNone(referee.check(TRACES_JSON, json.dumps(names).encode()))
                self.assertIsNone(referee.check(TRACES_HEAD, b"".join(text.splitlines(True)[:10])))
                self.assertIsNone(referee.check(COUNT, f"{len(traces)}\n".encode()))

    def test_broken_outputs_are_rejected(self):
        instance = small_samples(1)[0]
        traces = oracle_traces(instance)
        self.assertGreater(len(traces), 3)
        wrong_order = traces[:1] + traces[2:3] + traces[1:2] + traces[3:]
        invalid = sorted(
            set(traces) | {tuple(range(instance.n))} | {tuple(reversed(range(instance.n)))},
            key=lambda t: (len(t), t),
        )
        for bad in (traces[:-1], traces + traces[-1:], wrong_order, invalid):
            self.assertIsNotNone(Referee(instance).check(TRACES, as_text(instance, bad)))
        referee = Referee(instance)
        referee.check(TRACES, as_text(instance, traces))
        self.assertIsNotNone(referee.check(TRACES_HEAD, as_text(instance, traces[1:11])))
        self.assertIsNotNone(referee.check(TRACES_JSON, json.dumps([["x"]] * len(traces)).encode()))
        self.assertIsNotNone(referee.check(COUNT, f"{len(traces) + 1}\n".encode()))
        self.assertIsNotNone(referee.check(POSSIM, b"{}\n"))

    def test_wrong_cover_pairs_are_rejected(self):
        constraints = (("prec", 0, 1), ("prec", 1, 2))
        count, images = subset_dp(3, constraints)
        instance = Instance("line", ("a", "b", "c"), constraints, count, images, (POSSIM,))
        head = b"{}\n{a}\n{a,b} a<b\n"
        self.assertIsNone(Referee(instance).check(POSSIM, head + b"{a,b,c} a<b b<c\n"))
        for last in (b"{a,b,c} a<b\n", b"{a,b,c} a<b b<c a<c\n", b"{a,b,c} b<a b<c\n"):
            with self.subTest(last=last):
                self.assertIsNotNone(Referee(instance).check(POSSIM, head + last))

    def test_program_output_passes_on_small_samples(self):
        instances = small_samples(2)
        ledger = run.Ledger()
        with written(instances) as paths:
            run.inprocess_pass(instances, {i.label: Referee(i) for i in instances}, paths, ledger, None)
        self.assertEqual([op.error for op in ledger.ops], [None] * len(ledger.ops))


class ChildMemory(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        held = bytearray(256 << 20)
        for k in range(0, len(held), 4096):
            held[k] = 1
        spawner = run.Spawner(dict(os.environ))
        try:
            with open(os.devnull, "wb") as sink:
                spawner.start([sys.executable, "-c", "pass"], sink.fileno(), sink.fileno())
            exit_code, rss_kib = spawner.reaped()
        finally:
            spawner.close()
        self.assertEqual(exit_code, 0)
        self.assertLess(rss_kib, 64 << 10)


class Names(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        instances = small_samples(3)[:2]
        referees = {i.label: Referee(i) for i in instances}
        with written(instances) as paths:
            _, plain = run.cli_run(instances, referees, paths, 0)
            _, traced = run.traced_run(instances, referees, paths, 0)
        for listed, measured in (("end_to_end", plain), ("per_layer", traced)):
            with self.subTest(listed=listed):
                self.assertEqual(
                    {(m["name"], m["unit"]) for m in spec[listed]},
                    {(name, unit) for name, (_, unit) in measured.items()},
                )


class SpansAccountForCliTime(unittest.TestCase):
    def _traced_pass(self, workload: str, commands: tuple[str, ...]):
        instances = [
            Instance(i.label, i.names, i.constraints, i.count, i.images, commands)
            for i in WORKLOADS[workload](1)
            if set(commands) & set(i.commands)
        ]
        tracer = tracing.Tracer()
        with written(instances) as paths, tracing.traced(tracer):
            run.inprocess_pass(instances, {i.label: Referee(i) for i in instances},
                               paths, run.Ledger(), tracer)
        return tracer

    @staticmethod
    def _span_total(tracer, prefix: str) -> float:
        return sum(end - start for name, start, end, _, _ in tracer.spans if name.startswith(prefix))

    def test_enumeration(self):
        tracer = self._traced_pass("enum-sparse", (TRACES, TRACES_JSON))
        layers = tracer.layer_times()
        covered = sum(layers[k] for k in ("possim.walk_s", "linext.generate_s",
                                          "traces.assemble_s", "cli.format_s"))
        total = self._span_total(tracer, "cli.main")
        self.assertAlmostEqual(covered / total, 1.0, delta=0.15)

    def test_sparse_count(self):
        tracer = self._traced_pass("enum-sparse", (COUNT,))
        layers = tracer.layer_times()
        covered = layers["possim.walk_s"] + layers["linext.count_s"]
        total = self._span_total(tracer, "traces.count_traces")
        self.assertAlmostEqual(covered / total, 1.0, delta=0.15)

    def test_self_times_add_up_to_root_spans(self):
        tracer = self._traced_pass("deep-chain", (POSSIM,))
        own = sum(t for _, t in tracer.self_times().values())
        self.assertAlmostEqual(own, self._span_total(tracer, "cli.main"), places=9)
        self.assertEqual(set(tracer.counters), {"possim.images", "quotient.classes"})


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    unittest.main()
