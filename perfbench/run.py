"""lexigraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lexigraph is imported from
``src/``.  Each workload is a closed loop with one caller in one process.
Every operation's output is checked against hand-written references
(``checks.py``); a wrong output counts as a failed operation and makes
the run exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``).  See README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import checks
import lexgen
from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
COPIES = 16
SUBJECTS = ("milk", "wind", "moon", "voice", "metal", "water")
MODULES = ("cli", "corpus", "lexicon", "defgraph", "frames", "reduction",
           "ssn", "parser")
CLI_TIMEOUT_S = 60
# In-process loops time the reference at least every REFERENCE_EVERY_S
# seconds, each time as the median of REFERENCE_REPS calls; the CLI loop
# times one interpreter start at least every CLI_REFERENCE_EVERY_S seconds.
REFERENCE_EVERY_S = 0.2
REFERENCE_REPS = 5
CLI_REFERENCE_EVERY_S = 0.5
# The reference's median time on the machine the baseline was recorded on;
# set-up times are reported as reference units times this.
REFERENCE_NOMINAL_S = 0.0012
HASH_SEED = "0"
# Runs lexigraph.cli as ``python -m lexigraph.cli`` does and, at exit,
# writes the process's peak RSS to stderr.  The peak is read from
# /proc/self/status: getrusage in a child also counts the peak RSS of the
# process that started it, because the kernel carries it across exec.
PEAK_TAG = "perfbench-peak-rss-kb"
CLI_MAIN = f"""\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        kb = next(ln.split()[1] for ln in status if ln.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_TAG} " + kb + "\\n")
atexit.register(peak)
runpy.run_module("lexigraph.cli", run_name="__main__", alter_sys=True)
"""


def fresh_import() -> SimpleNamespace:
    """Import lexigraph as a new process would (bytecode already cached)."""
    for name in [m for m in sys.modules
                 if m == "lexigraph" or m.startswith("lexigraph.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("lexigraph." + m)
                              for m in MODULES})


# ---------------------------------------------------------------------------
# calls into lexigraph's layers, one span each

def analyse(L, texts: list[str], rules, tr, pause=lambda: None) -> SimpleNamespace:
    """One full analysis: LEXF text to every product.  ``pause`` runs
    between stages (see Loop.pause)."""
    with tr.span("lexicon.ingest"):
        lexicon = L.lexicon.merge_lexicons(*(L.lexicon.parse_lexf(t) for t in texts))
    pause()
    with tr.span("defgraph.build"):
        graph = L.defgraph.build_graph(lexicon)
    pause()
    with tr.span("defgraph.resolve"):
        resolved = L.defgraph.apply_resolutions(graph, lexicon.resolutions)
    pause()
    with tr.span("defgraph.scc"):
        components = L.defgraph.strongly_connected_components(resolved, "resolved-only")
        condensation = L.defgraph.condensation(resolved, "resolved-only")
        L.defgraph.primitive_candidates(resolved)
    pause()
    with tr.span("frames.build"):
        frames = L.frames.build_frames(lexicon, rules)
    pause()
    with tr.span("reduction.fixpoint"):
        reduction = L.reduction.reduce_fixpoint(lexicon, resolved, frames, rules)
    pause()
    with tr.span("ssn.compile"):
        networks = L.ssn.build_all_ssns(lexicon, frames)
    pause()
    with tr.span("parser.autoresolve"):
        proposals = L.parser.autoresolve_all(lexicon, frames, rules)
    return SimpleNamespace(rules=rules, lexicon=lexicon, graph=resolved,
                           components=components, condensation=condensation,
                           frames=frames, reduction=reduction,
                           networks=networks, proposals=proposals)


def summarise(a) -> dict:
    """The facts of an analysis that checks.expected_summary predicts."""
    return {
        "reduction": {**a.reduction.tallies(),
                      "remaining": len(a.reduction.remaining)},
        "autoresolve": checks.autoresolve_tallies(
            (p.unique is not None, tuple(k.render() for k in p.candidates))
            for p in a.proposals),
        "resolved_condensation_acyclic": a.condensation.is_acyclic(),
        "one_frame_per_sense": set(a.frames) == set(a.lexicon.sense_keys()),
        "one_network_per_headword": set(a.networks) == set(a.lexicon.headwords()),
    }


def parse_sentence(L, state, text: str, tr):
    """The parse path: chunk, then disambiguate against the verb's network."""
    with tr.span("parser.chunk"):
        chunks = L.parser.chunk_sentence(text, state.lexicon)
    with tr.span("parser.disambiguate"):
        verb = L.parser.SentenceContext(chunks).verb
        return L.parser.disambiguate(
            verb.text, chunks, state.networks[verb.lemma], state.frames,
            state.rules, state.lexicon, L.parser.VarAllocator())


def sentence_check(text: str, expect):
    def check(result):
        return checks.sentence_failure(
            text, expect, tuple(k.render() for k in result.candidates),
            tuple(result.open_questions))
    return check


def sentence_stream(gen: lexgen.Generated, rng: random.Random):
    """Blocks of six in seeded order: the three change sentences and three
    sentences with seeded single-sense copy verbs and subjects."""
    while True:
        block = list(checks.CHANGE_SENTENCES.items())
        for verb in rng.sample(gen.copy_verbs, 3):
            text = f"The {rng.choice(SUBJECTS)} {verb.word}"
            if rng.random() < 0.5:
                text += f" into {rng.choice(SUBJECTS)}"
            block.append((text, verb.key))
        rng.shuffle(block)
        yield from block


def corpus_texts() -> list[str]:
    """The bundled corpus as the CLI loads it by default."""
    return [(lexgen.DATA / name).read_text(encoding="utf-8")
            for name in ("change_corpus.lexf", "resolutions.lexf")]


# ---------------------------------------------------------------------------
# the closed loop

class _Ref:
    __slots__ = ("key", "word", "pair")

    def __init__(self, key, word, pair):
        self.key, self.word, self.pair = key, word, pair


def reference_work() -> int:
    """Fixed pure-Python work of the kinds lexigraph does (object creation,
    attribute reads, tuple keys, dict and set building, string methods),
    none of it lexigraph's code.  About 2 ms."""
    items = [_Ref(i, f"w{i % 97}", (i, i % 7)) for i in range(1500)]
    index: dict[str, list] = {}
    for r in items:
        index.setdefault(r.word, []).append(r.pair)
    words = {r.word.upper() for r in items if r.key % 3}
    return len(index) + len(words) + sum(len(v) for v in index.values())


def time_reference() -> float:
    """Median seconds of REFERENCE_REPS calls of ``reference_work``."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_setups(reps: int, setup):
    """Run ``setup`` ``reps`` times, each between two timings of the
    reference.  Returns the median set-up time in nominal seconds (reference
    units times REFERENCE_NOMINAL_S) and in wall seconds, as a pair, and the
    last result.  Each earlier result is dropped before the next set-up."""
    nominal, wall, state = [], [], None
    for _ in range(reps):
        state = None
        gc.collect()
        before = time_reference()
        start = time.perf_counter()
        state = setup()
        seconds = time.perf_counter() - start
        wall.append(seconds)
        nominal.append(seconds / ((before + time_reference()) / 2)
                       * REFERENCE_NOMINAL_S)
    return (statistics.median(nominal), statistics.median(wall)), state


class Loop:
    """Runs operations back to back for a fixed time.  Each operation is a
    timed ``work(tracer)`` and an untimed ``check(result)`` returning a
    failure message or None.  Traced runs alternate traced and untraced
    operations, so tracing overhead is measured on the same run.

    The machine's speed drifts by up to half again over seconds to minutes
    (other tenants share the host), and the drift slows every in-process
    operation alike.  So the loop times a fixed reference between
    operations, and between the stages of a long operation when its work
    calls ``pause``, at least every ``every`` seconds.  Time spent paused is
    not part of the operation.  Each timed stretch is also expressed in
    reference units: divided by the mean of the reference times just
    before and just after it.
    """

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        # per operation of the loop: 0 untraced, 1 traced, -1 failed
        self._kind = array("b")
        self._seconds = array("d")
        self._relative = array("d")
        # stretches (operation, seconds, reference index) awaiting the
        # reference time after them
        self._pending: list[tuple[int, float, int]] = []

    def _calibrate(self) -> None:
        self.reference_s.append(self._reference())
        ref = self.reference_s
        for op, seconds, i in self._pending:
            self._relative[op] += seconds / ((ref[i] + ref[i + 1]) / 2)
        self._pending.clear()
        self._calibrated = time.perf_counter()

    def pause(self) -> None:
        """Called by an operation between its stages."""
        seconds = time.perf_counter() - self._resumed
        self._seconds[-1] += seconds
        self._pending.append((len(self._seconds) - 1, seconds,
                              len(self.reference_s) - 1))
        if time.perf_counter() - self._calibrated >= self._every:
            self._calibrate()
        self._resumed = time.perf_counter()

    def run(self, seconds: float, next_op, reference=time_reference,
            every: float = REFERENCE_EVERY_S) -> None:
        """At least one operation, and in a traced run one of each kind.
        ``reference()`` returns the reference's time in seconds."""
        self._reference, self._every = reference, every
        start = time.perf_counter()
        least = 2 if self.tracer else 1
        self._calibrate()
        while time.perf_counter() - start < seconds or self.attempted < least:
            if time.perf_counter() - self._calibrated >= every:
                self._calibrate()
            work, check = next_op()
            traced = self.tracer is not None and self.attempted % 2 == 1
            self.attempted += 1
            tr = self.tracer if traced else NULL
            self._seconds.append(0.0)
            self._relative.append(0.0)
            try:
                self._resumed = time.perf_counter()
                with tr.span("operation"):
                    result = work(tr)
                self.pause()
                failure = check(result)
                del result
            except Exception as exc:   # a failed operation, not a failed run
                failure = f"{type(exc).__name__}: {exc}"
            if failure:
                self.failures.append(failure)
            self._kind.append(-1 if failure else traced)
        self._calibrate()

    def latencies(self, traced: bool = False, relative: bool = False) -> list[float]:
        """Seconds, or reference units, per successful operation."""
        values = self._relative if relative else self._seconds
        return [v for v, kind in zip(values, self._kind) if kind == traced]

    def record(self, failure) -> None:
        """Count a check made outside the loop."""
        self.attempted += 1
        if failure:
            self.failures.append(failure)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# traced-run probes: every layer is timed on every workload

def interpreter_start(env: dict) -> float:
    """Seconds of one bare interpreter start, ``sys.executable -c pass``.
    Its output is captured, as a CLI call's is: the end of a child whose
    output is not piped is found by polling, in steps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def probe_cli(L, tr, env: dict, commands, loop: Loop) -> None:
    import_code = ("import time; t = time.perf_counter(); import lexigraph.cli; "
                   "print(time.perf_counter() - t)")
    for _ in range(5):
        tr.add("cli.interpreter", interpreter_start(env))
        child = subprocess.run([sys.executable, "-c", import_code], env=env,
                               check=True, capture_output=True, text=True,
                               timeout=CLI_TIMEOUT_S)
        tr.add("cli.import", float(child.stdout))
    for argv, code, check in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with tr.span("cli.run"):
                rc = L.cli.run(argv)
        loop.record(None if rc == code and check(out.getvalue())
                    else f"in-process {' '.join(argv)}: exit {rc}")
    for _ in range(5):
        with tr.span("corpus.load"):
            lexicon = L.corpus.load_corpus()
        with tr.span("corpus.verify"):
            report = L.corpus.verify_fixture(lexicon)
        loop.record(None if report.ok else "verify_fixture reports a mismatch")


class SentenceTally:
    """Sentences parsed, resolved to one sense, and open questions left."""

    def __init__(self):
        self.sentences = self.unique = self.open_questions = 0

    def add(self, result) -> None:
        self.sentences += 1
        self.unique += len(result.candidates) == 1
        self.open_questions += len(result.open_questions)


def probe_layers(L, rules, texts, expected, sentences, reps, tr, loop,
                 tally: SentenceTally):
    """Full analyses, one segmentation pass and a few sentences, traced.
    Returns the last analysis and the sentence tally."""
    for _ in range(reps):
        a = analyse(L, texts, rules, tr)
        loop.record("; ".join(checks.summary_failures(summarise(a), expected)))
    with tr.span("lexicon.segment"):
        for sense in a.lexicon.entries:
            L.lexicon.parse_sense(sense)
    for text, expect in sentences:
        result = parse_sentence(L, a, text, tr)
        loop.record(sentence_check(text, expect)(result))
        tally.add(result)
    return a, tally


def layer_metrics(a, tally: SentenceTally, tr: Tracer, loop: Loop) -> dict:
    ms = {name: statistics.median(v) * 1000 for name, v in tr.self_times().items()}
    metrics = {f"{name}_ms": (ms[name], "ms") for name in (
        "cli.interpreter", "cli.import", "cli.run", "corpus.load",
        "corpus.verify", "lexicon.ingest", "lexicon.segment", "defgraph.build",
        "defgraph.resolve", "defgraph.scc", "frames.build",
        "reduction.fixpoint", "ssn.compile", "parser.autoresolve",
        "parser.chunk", "parser.disambiguate")}
    unresolved = sum(1 for arc in a.graph.arcs if not arc.resolved)
    counts = {
        "lexicon.sense_lines": len(a.lexicon.entries),
        "lexicon.resolutions": len(a.lexicon.resolutions),
        "defgraph.arcs": len(a.graph.arcs),
        "defgraph.unresolved_bundles": unresolved,
        "defgraph.components": len(a.components),
        "frames.frames": len(a.frames),
        "frames.provisional": sum(f.provisional for f in a.frames.values()),
        "reduction.iterations": a.reduction.iterations,
        "reduction.set_aside": len(a.reduction.set_aside),
        "ssn.networks": len(a.networks),
        "ssn.questions": sum(len(n.questions()) for n in a.networks.values()),
    }
    metrics.update({k: (v, "count") for k, v in counts.items()})
    unique = sum(1 for p in a.proposals if p.unique is not None)
    metrics["parser.autoresolve_unique_ratio"] = (unique / len(a.proposals), "ratio")
    metrics["parser.unique_ratio"] = (tally.unique / tally.sentences, "ratio")
    metrics["parser.open_questions"] = (
        tally.open_questions / tally.sentences, "count")
    # compared in reference units, so machine drift between the traced and
    # the untraced operations does not count as overhead
    untraced = statistics.median(loop.latencies(traced=False, relative=True))
    traced = statistics.median(loop.latencies(traced=True, relative=True))
    overhead = (traced - untraced) / untraced
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.overhead_ms"] = (
        overhead * statistics.median(loop.latencies(traced=False)) * 1000, "ms")
    return metrics


# ---------------------------------------------------------------------------
# workloads: each sets up, runs its loop, and in a traced run probes every
# layer; each returns ((nominal, wall) setup seconds, peak RSS in MB, tail
# quantile, probe results or None)

def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LEXIGRAPH_RULES", None)
    return env


def documented_commands() -> list:
    """The documented CLI commands, with the discourse file they read."""
    OUT.mkdir(exist_ok=True)
    discourse = OUT / "discourse.txt"
    discourse.write_text(checks.DISCOURSE, encoding="utf-8")
    return checks.cli_commands(str(discourse))


def child_peak_kb(stderr: str):
    """The peak RSS that CLI_MAIN reported, or None."""
    tag, _, kb = stderr.rstrip().rpartition("\n")[2].partition(" ")
    return int(kb) if tag == PEAK_TAG else None


def cli_corpus(args, loop: Loop):
    """The documented commands as subprocesses on the bundled corpus."""
    commands = documented_commands()
    env = cli_env()

    def setup():
        L = fresh_import()
        L.corpus.load_corpus()
        L.corpus.load_rules()
        return L

    setup_times, L = timed_setups(25, setup)

    def call(argv):
        return subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)

    call(["ingest"])   # warm-up, so bytecode compilation is not timed
    rng = random.Random(args.seed)
    pending: list = []
    peaks_kb: list[int] = []

    def next_op():
        if not pending:
            pending.extend(rng.sample(commands, len(commands)))
        argv, code, check = pending.pop()

        def verify(proc):
            peak = child_peak_kb(proc.stderr)
            if peak is None:
                return f"{' '.join(argv)}: no peak RSS reported"
            peaks_kb.append(peak)
            if proc.returncode == code and check(proc.stdout):
                return None
            return f"{' '.join(argv)}: exit {proc.returncode}, output fails its check"

        return (lambda tr: call(argv)), verify

    loop.run(args.seconds, next_op, lambda: interpreter_start(env),
             CLI_REFERENCE_EVERY_S)
    rss_mb = max(peaks_kb, default=0) / 1024
    probe = None
    if loop.tracer:
        probe = probe_layers(L, L.corpus.load_rules(), corpus_texts(),
                             checks.expected_summary(1, supplement=False),
                             list(checks.CHANGE_SENTENCES.items()), 5,
                             loop.tracer, loop, SentenceTally())
        probe_cli(L, loop.tracer, env, commands, loop)
    return setup_times, rss_mb, 0.9, probe


def build_x16(args, loop: Loop):
    """Full analyses of the 16-copy lexicon, from LEXF text to every product."""
    gen = lexgen.generate(COPIES, args.seed)
    texts = gen.texts()
    expected = checks.expected_summary(COPIES, supplement=True)

    def setup():
        L = fresh_import()
        return L, L.corpus.load_rules()

    setup_times, (L, rules) = timed_setups(25, setup)

    def verify(a):
        return "; ".join(checks.summary_failures(summarise(a), expected))

    loop.run(args.seconds,
             lambda: (lambda tr: analyse(L, texts, rules, tr, loop.pause), verify))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = None
    if loop.tracer:
        sentences = sentence_stream(gen, random.Random(args.seed))
        probe = probe_layers(L, rules, texts, expected,
                             [next(sentences) for _ in range(6)], 1,
                             loop.tracer, loop, SentenceTally())
        probe_cli(L, loop.tracer, cli_env(), documented_commands(), loop)
    return setup_times, rss_mb, 1.0, probe


def parse_x16(args, loop: Loop):
    """A seeded stream of single sentences through the parse path, on the
    16-copy lexicon with frames and networks built in set-up."""
    gen = lexgen.generate(COPIES, args.seed)
    texts = gen.texts()

    def setup():
        L = fresh_import()
        rules = L.corpus.load_rules()
        lexicon = L.lexicon.merge_lexicons(*(L.lexicon.parse_lexf(t) for t in texts))
        frames = L.frames.build_frames(lexicon, rules)
        networks = L.ssn.build_all_ssns(lexicon, frames)
        return L, SimpleNamespace(rules=rules, lexicon=lexicon, frames=frames,
                                  networks=networks)

    setup_times, (L, state) = timed_setups(7, setup)
    stream = sentence_stream(gen, random.Random(args.seed))
    tally = SentenceTally()

    def next_op():
        text, expect = next(stream)
        check = sentence_check(text, expect)

        def verify(result):
            tally.add(result)
            return check(result)

        return (lambda tr: parse_sentence(L, state, text, tr)), verify

    loop.run(args.seconds, next_op)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = None
    if loop.tracer:
        probe = probe_layers(
            L, state.rules, texts, checks.expected_summary(COPIES, supplement=True),
            [next(stream) for _ in range(6)], 1, loop.tracer, loop, tally)
        probe_cli(L, loop.tracer, cli_env(), documented_commands(), loop)
    return setup_times, rss_mb, 0.99, probe


WORKLOADS = {"cli-corpus": cli_corpus, "build-x16": build_x16,
             "parse-x16": parse_x16}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexigraph" / "__init__.py").is_file():
        print(f"perfbench: no lexigraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    loop = Loop(bool(args.trace))
    (setup_s, setup_wall_s), rss_mb, tail_q, probe = WORKLOADS[args.workload](args, loop)
    raw, rel = loop.latencies(), loop.latencies(relative=True)
    tail = "slowest" if tail_q == 1 else f"p{round(tail_q * 100)}"
    print(f"# {args.workload} seed {args.seed}: {loop.attempted} operations "
          f"attempted, {len(loop.failures)} failed; {len(raw)} untraced "
          f"timed samples; tail = {tail}")
    if raw:
        print(f"# wall time: p50 {statistics.median(raw) * 1000:.3f} ms, {tail} "
              f"{percentile(raw, tail_q) * 1000:.3f} ms, {len(raw) / sum(raw):.3f} "
              f"ops/s; reference {statistics.median(loop.reference_s) * 1000:.3f} ms; "
              f"setup {setup_wall_s:.4f} s")
    for failure in loop.failures[:20]:
        print(f"# FAILED {failure}")
    if loop.tracer:
        metrics = layer_metrics(*probe, loop.tracer, loop)
        loop.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    elif rel:
        metrics = {
            "latency_rel.p50": (statistics.median(rel), "ref"),
            "latency_rel.tail": (percentile(rel, tail_q), "ref"),
            "throughput_rel": (len(rel) / sum(rel), "1/ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = {}
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if loop.failures else 0


if __name__ == "__main__":
    # String hashing is randomised per process, which gives every run its
    # own dict and set layouts.  Pin it (for the CLI subprocesses too), so
    # two runs with the same seed do the same work.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
