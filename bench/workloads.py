"""The three benchmark workloads: seeded inputs, timed passes and output gates.

Each workload runs in passes.  A pass times only calls into bruhatb; the
checks on its outputs run after the timed calls, inside `pause()` so that a
traced run does not charge them to the library.  Every check counts as one
attempted operation in the `Gate`; a failed check or an exception is a
failed one.

Library functions are looked up on their modules at call time
(`orders.build_poset(...)`), so that a traced run sees the patched names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import time
from array import array

from bruhatb import cli, core, orders, verify, weyl

clock = time.perf_counter

# Desk-scale counts every pass must reproduce.  Node and edge counts of the
# level-1 posets are |W| and |W| * (rank/2) for the weak order; the B_4
# chain count equals len(reduced_words_brute("B", 4)).
PINS = {
    "A7.1 nodes": 5040, "A7.1 edges": 15120,
    "B5.1 nodes": 3840, "B5.1 edges": 9600,
    "B4.1 nodes": 384, "B4.1 edges": 768,
    "A6.1 nodes": 720, "A6.1 edges": 1800,
    "B4.2 nodes": 330, "B4.2 edges": 618,
    "A6.4 nodes": 12, "A6.4 edges": 12,
    "A5.2 nodes": 62, "A5.2 edges": 100,
    "A6.1 chains": 292864, "B4.1 chains": 24024,
    "A5.2 chains": 112, "A6.4 chains": 2,
    "typeB-k2 checks": 6, "appendix checks": 14,
}

FLIP_POSETS = (("A", 7, 1), ("B", 5, 1), ("B", 4, 1), ("A", 6, 1))
FLIP_CHAINS = (("A", 6, 1), ("B", 4, 1))
WORD_SAMPLE = 1000
CLASS_POSETS = (("B", 4, 2), ("A", 6, 4), ("A", 5, 2))
CLASS_CHAINS = (("A", 5, 2), ("A", 6, 4))
VERIFY_SUITES = ("typeB-k2", "appendix")
QUERY_POOLS = (("B", 4, 2), ("B", 5, 1))

POOL_SIZE = 1024        # orderings per query pool
WALK_SWAPS = 2          # commuting swaps before each flip of a pool walk
QUERY_BATCH = 1000      # queries per pass of query-mix
AUDIT_SHARE = 0.01      # level-2 crosses answers also checked by class enumeration

# (kind, weight, metric prefix); class-level kinds make up 5% of the mix
QUERY_KINDS = (
    ("is_admissible", 15, "orders.is_admissible"),
    ("inversion_set", 15, "orders.inversion_set"),
    ("flip_candidates", 15, "orders.flip_candidates"),
    ("canonical_form", 15, "orders.canonical_form"),
    ("crosses", 15, "verify.crosses"),
    ("text", 10, "core.text"),
    ("packet_flip", 10, "orders.packet_flip"),
    ("class_flip_candidates", 2.5, "orders.class_flip_candidates"),
    ("blocks", 2.5, "verify.blocks"),
)


def tag(cfg) -> str:
    family, n, k = cfg
    return f"{family}{n}.{k}"


class Gate:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)

    def pin(self, key: str, got) -> bool:
        return self.check(got == PINS[key], f"{key}: got {got}, pinned {PINS[key]}")


def _gate_poset(gate: Gate, cfg, p, extrema, injective) -> None:
    gate.pin(f"{tag(cfg)} nodes", len(p.nodes))
    gate.pin(f"{tag(cfg)} edges", len(p.edges))
    gate.check(extrema.unique_min and extrema.unique_max and extrema.graded,
               f"{tag(cfg)} extrema {extrema}")
    gate.check(injective, f"{tag(cfg)} inversion sets not injective")


# ---------------------------------------------------------------------------
# flip-k1: singleton classes, flips, chains and signed permutations
# ---------------------------------------------------------------------------

class FlipK1:
    name = "flip-k1"
    setup_configs = FLIP_POSETS
    pass_statistic = staticmethod(statistics.median)

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}:flip-k1:words")
        # indices into the B_4 chains listed in the order of their label text
        self.word_sample = sorted(rng.sample(range(PINS["B4.1 chains"]), WORD_SAMPLE))
        chains = orders.maximal_chains(orders.build_poset("B", 4, 1))
        chains.sort(key=lambda c: tuple(core.format_element(K) for K in c))
        self.sample_chains = [chains[i] for i in self.word_sample if i < len(chains)]

    def inputs(self) -> dict:
        return {"word_sample": self.word_sample, "chains": self.sample_chains}

    def reset(self) -> None:
        pass

    def run_pass(self, gate: Gate, pause) -> dict:
        t0 = clock()
        built = {}
        for cfg in FLIP_POSETS:
            p = orders.build_poset(*cfg)
            built[cfg] = (p, orders.check_extrema(p), orders.inv_injectivity_check(p))
        iso = weyl.iso_check(4)
        poset_s = clock() - t0
        with pause():
            for cfg, (p, extrema, injective) in built.items():
                _gate_poset(gate, cfg, p, extrema, injective)
            gate.check(iso, "iso_check(4) failed")

        t0 = clock()
        chains = {cfg: orders.maximal_chains(built[cfg][0]) for cfg in FLIP_CHAINS}
        chains_s = clock() - t0
        with pause():
            for cfg, found in chains.items():
                gate.pin(f"{tag(cfg)} chains", len(found))
        del built, chains
        sample = self.sample_chains

        t0 = clock()
        longest = weyl.longest_b(4)
        words = []
        for labels in sample:
            word = weyl.chain_to_word(labels, "B", 4)
            words.append((word.letters, word.is_reduced() and word.evaluate() == longest))
        chains_s += clock() - t0
        with pause():
            for letters, ok in words:
                gate.check(ok, f"B4 chain word {letters} is not a reduced word of w0")
            gate.check(len({w for w, _ in words}) == len(sample),
                       "distinct B4 chains gave equal words")
        return {"pass_s": poset_s + chains_s, "poset_s": poset_s, "chains_s": chains_s}


# ---------------------------------------------------------------------------
# classes-k2: large commutation classes, export and the verify suites
# ---------------------------------------------------------------------------

class ClassesK2:
    name = "classes-k2"
    setup_configs = CLASS_POSETS
    pass_statistic = staticmethod(statistics.median)

    def __init__(self, seed: int):
        self.jobs = len(os.sched_getaffinity(0))

    def reset(self) -> None:
        pass

    def run_pass(self, gate: Gate, pause) -> dict:
        t0 = clock()
        built = {}
        for cfg in CLASS_POSETS:
            p = orders.build_poset(*cfg)
            extrema = orders.check_extrema(p)
            injective = orders.inv_injectivity_check(p)
            text = orders.poset_to_json(p)
            dot = orders.poset_to_dot(p)
            same = orders.poset_from_json_obj(json.loads(text)) == orders.poset_comparable(p)
            built[cfg] = (p, extrema, injective, same, dot)
        poset_s = clock() - t0
        with pause():
            for cfg, (p, extrema, injective, same, dot) in built.items():
                _gate_poset(gate, cfg, p, extrema, injective)
                gate.check(same, f"{tag(cfg)} JSON round trip differs")
                gate.check(dot.count(" -> ") == len(p.edges), f"{tag(cfg)} DOT edges")

        t0 = clock()
        chains = {cfg: orders.maximal_chains(built[cfg][0]) for cfg in CLASS_CHAINS}
        chains_s = clock() - t0
        with pause():
            for cfg, found in chains.items():
                gate.pin(f"{tag(cfg)} chains", len(found))
        del built, chains

        verify_s = 0.0
        for suite in VERIFY_SUITES:
            buf = io.StringIO()
            argv = ["verify", "--suite", suite, "--n", "3", "--jobs", str(self.jobs)]
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            verify_s += clock() - t0
            lines = buf.getvalue().splitlines()
            gate.check(status == 0, f"verify {suite} exited {status}")
            for line in lines[:-1]:
                gate.check(line.startswith("ok "), f"verify {suite}: {line}")
            gate.pin(f"{suite} checks", len(lines) - 1)
            gate.check(lines[-1:] == [f"all {len(lines) - 1} checks passed"],
                       f"verify {suite} summary {lines[-1:]}")
        return {"pass_s": poset_s + chains_s + verify_s, "poset_s": poset_s,
                "chains_s": chains_s, "verify_s": verify_s}


# ---------------------------------------------------------------------------
# query-mix: one closed-loop client over two seeded pools of orderings
# ---------------------------------------------------------------------------

class Pool:
    """Orderings of one (family, n, k), each with its expected inversion set.

    The walks that make the pool flip and swap with the benchmark's own
    reference code; the library is asked only which pairs commute.
    """

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        family, n, k = cfg
        upper = core.enumerate_B(n, k + 1)
        upper.sort(key=core.format_element)
        self.packets = [(K, core.packet_B(K).components) for K in upper]
        self.upper = frozenset(upper)
        ground = orders.rho_min(*cfg).seq
        self.index = {e: i for i, e in enumerate(ground)}
        self.index_packets = [(K, [[self.index[e] for e in c] for c in components])
                              for K, components in self.packets]
        self.commute = [[a != b and orders.commutes(a, b, *cfg) for b in ground]
                        for a in ground]
        rng = random.Random(f"{seed}:pool:{tag(cfg)}")
        self.entries = []
        for _ in range(POOL_SIZE):
            walked, inv = self._walk(rng, rng.randint(0, len(upper)))
            self.entries.append((tuple(ground[i] for i in walked), inv))

    def candidates(self, seq) -> list:
        """Flippable labels of seq, in label-text order (reference for flip_candidates)."""
        return self._candidates([self.index[e] for e in seq])

    def _candidates(self, walked) -> list:
        pos = [0] * len(walked)
        for i, v in enumerate(walked):
            pos[v] = i
        out = []
        for K, components in self.index_packets:
            for c in components:
                ps = [pos[j] for j in c]
                if max(ps) - min(ps) != len(c) - 1:
                    break
            else:
                out.append(K)
        return out

    def _swap(self, rng, walked: list) -> None:
        free = [i for i in range(len(walked) - 1)
                if self.commute[walked[i]][walked[i + 1]]]
        if free:
            i = free[rng.randrange(len(free))]
            walked[i], walked[i + 1] = walked[i + 1], walked[i]

    def _walk(self, rng, length: int):
        """Random flip walk from rho_min, mixing in commuting swaps.

        Works on indices into the ground set; returns them with the
        inversion set the flips produced.
        """
        walked = list(range(len(self.index)))
        inv = frozenset()
        packets = dict(self.index_packets)
        for _ in range(length):
            for _ in range(WALK_SWAPS):
                self._swap(rng, walked)
            cands = self._candidates(walked)
            for _ in range(len(walked) ** 2):
                if cands:
                    break
                self._swap(rng, walked)
                cands = self._candidates(walked)
            if not cands:
                break
            K = cands[rng.randrange(len(cands))]
            pos = {v: i for i, v in enumerate(walked)}
            for component in packets[K]:
                lo = min(pos[v] for v in component)
                hi = lo + len(component)
                walked[lo:hi] = reversed(walked[lo:hi])
            inv = inv ^ {K}
        for _ in range(WALK_SWAPS):
            self._swap(rng, walked)
        return walked, inv


class QueryMix:
    name = "query-mix"
    setup_configs = QUERY_POOLS
    # a batch's time depends on the few class-level queries it happens to
    # draw, so the mean over all batches is steadier than their median
    pass_statistic = staticmethod(statistics.fmean)

    def __init__(self, seed: int):
        self.seed = seed
        self.initial = [Pool(cfg, seed) for cfg in QUERY_POOLS]
        self.reset()

    def reset(self) -> None:
        """Fresh pool contents and a restarted query stream."""
        self.pools = [list(p.entries) for p in self.initial]
        self._rng = random.Random(f"{self.seed}:ops")
        # seconds per query, by kind; arrays keep the run's memory flat
        self.latencies = {kind: array("d") for kind, _w, _p in QUERY_KINDS}

    def inputs(self, queries: int = 200) -> dict:
        rng_state = self._rng.getstate()
        specs = [self.next_spec() for _ in range(queries)]
        self._rng.setstate(rng_state)
        return {"pools": [(p.cfg, p.entries) for p in self.initial], "specs": specs}

    def next_spec(self) -> tuple:
        rng = self._rng
        kind = rng.choices(QUERY_KINDS, weights=[w for _, w, _ in QUERY_KINDS])[0][0]
        return (kind, rng.randrange(len(self.pools)), rng.randrange(POOL_SIZE),
                rng.random(), rng.random(), rng.random() < AUDIT_SHARE)

    def run_pass(self, gate: Gate, pause) -> dict:
        busy = 0.0
        for _ in range(QUERY_BATCH):
            with pause():
                spec = self.next_spec()
                call, check = self._prepare(spec)
            t0 = clock()
            try:
                result = call()
            except Exception as exc:  # a query that raises is a failed operation
                gate.check(False, f"{spec[0]} raised {exc!r}")
                continue
            seconds = clock() - t0
            busy += seconds
            self.latencies[spec[0]].append(seconds)
            with pause():
                gate.check(check(result), f"{spec[0]} answer failed its check, spec {spec}")
        return {"pass_s": busy}

    def _prepare(self, spec):
        """The timed call and the check of its answer for one query."""
        kind, pool_i, entry_i, u1, u2, audit = spec
        pool = self.initial[pool_i]
        cfg = pool.cfg
        entries = self.pools[pool_i]
        seq, inv = entries[entry_i]
        level1 = cfg[2] == 1

        def order():
            return orders.TotalOrder(*cfg, seq)

        if kind == "is_admissible":
            return lambda: orders.is_admissible(order()), lambda r: r is True
        if kind == "inversion_set":
            return lambda: orders.inversion_set(order()), lambda r: r == inv
        if kind == "flip_candidates":
            expect = frozenset(pool.candidates(seq))
            return lambda: orders.flip_candidates(order()), lambda r: r == expect
        if kind == "canonical_form":
            def check(r):
                if level1 and r.canon.seq != seq:
                    return False
                return set(r.canon.seq) == set(seq) and orders.inversion_set(r.canon) == inv
            return lambda: orders.canonical_form(order()), check
        if kind == "crosses":
            i = int(u1 * len(seq))
            j = int(u2 * (len(seq) - 1))
            a, b = seq[i], seq[j + (j >= i)]

            def check(r):
                if level1 or not orders.commutes(a, b, *cfg):
                    return r is False
                return not audit or r == verify.crosses_oracle(order(), a, b)
            return lambda: verify.crosses(order(), a, b), check
        if kind == "text":
            return (lambda: tuple(core.parse_element(core.format_element(e)) for e in seq),
                    lambda r: r == seq)
        if kind == "packet_flip":
            # the first entry from entry_i on that has a flippable label
            for step in range(len(entries)):
                at = (entry_i + step) % len(entries)
                seq, inv = entries[at]
                cands = pool.candidates(seq)
                if cands:
                    break
            K = cands[int(u1 * len(cands))]

            def check(r):
                ok = orders.is_admissible(r) and orders.inversion_set(r) == inv ^ {K}
                entries[at] = (r.seq, inv ^ {K})
                return ok
            return lambda: orders.packet_flip(order(), K), check
        if kind == "class_flip_candidates":
            expect = frozenset(pool.candidates(seq))

            def check(r):
                return r == expect if level1 else expect <= r <= pool.upper
            return (lambda: orders.class_flip_candidates(orders.canonical_form(order())),
                    check)
        if kind == "blocks":
            K, components = pool.packets[int(u1 * len(pool.packets))]
            S = frozenset(e for c in components for e in c)
            outside = [e for e in seq if e not in S]
            x = outside[int(u2 * len(outside))]
            pos = {e: i for i, e in enumerate(seq)}
            inside = min(pos[e] for e in S) < pos[x] < max(pos[e] for e in S)

            def check(r):
                return r == inside if level1 else (not r or inside)
            return lambda: verify.blocks(order(), x, S), check
        raise ValueError(f"unknown query kind {kind!r}")


WORKLOADS = {w.name: w for w in (FlipK1, ClassesK2, QueryMix)}
