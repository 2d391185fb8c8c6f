"""In-memory span tracer for the benchmark's traced run.

The tracer replaces library functions with timing wrappers in the namespace
where their caller looks them up (``attack`` binds ``apply_perturbation`` and
``model_query`` at import, so those are patched in ``pst_evade.attack``, not
in ``pst_evade.corpus``), records one span per call, and puts every original
back on exit. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import gc
import importlib
import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass

ATTACK_SPAN = "attack.run"


def _kind_of_first_arg(prefix):
    """Span name from the detector kind of the call's first argument."""
    def name(args, kwargs):
        model = args[0] if args else kwargs.get("model")
        return f"{prefix}.{getattr(model, 'kind', 'unknown')}"
    return name


# (module, attribute, span name or name function, "span" | "count").
# Each entry is patched where the calling code resolves the name at call time.
TARGETS = (
    ("pst_evade.corpus", "generate_corpus", "corpus.generate", "span"),
    ("pst_evade.corpus", "save_corpus", "corpus.save", "span"),
    ("pst_evade.corpus", "load_corpus", "corpus.load", "span"),
    ("pst_evade.attack", "apply_perturbation", "corpus.apply", "span"),
    ("pst_evade.perturbset", "build_perturbation_set", "perturbset.build", "span"),
    ("pst_evade.harness", "build_perturbation_set", "perturbset.build", "span"),
    # Query-time extraction only: training featurizes through harness's own
    # bindings, which stay unwrapped.
    ("pst_evade.detectors", "extract_binary", "features.extract.binary", "span"),
    ("pst_evade.detectors", "extract_markov", "features.extract.markov", "span"),
    ("pst_evade.detectors", "extract_api_cluster", "features.extract.api_cluster", "span"),
    ("pst_evade.features", "function_family", "features.family_parse", "count"),
    ("pst_evade.harness", "train_detector", "detectors.train", "span"),
    ("pst_evade.harness", "make_default_ensemble", "detectors.train", "span"),
    ("pst_evade.detectors", "save_model", "detectors.model_save", "span"),
    ("pst_evade.detectors", "load_model", "detectors.model_load", "span"),
    ("pst_evade.attack", "model_query", _kind_of_first_arg("detectors.query"), "span"),
    ("pst_evade.harness", "model_query", _kind_of_first_arg("detectors.query"), "span"),
    # ensemble_query recurses through the module-global ``query``.
    ("pst_evade.detectors", "query", _kind_of_first_arg("detectors.query"), "span"),
    ("pst_evade.detectors", "confidence_from_dense",
     _kind_of_first_arg("detectors.score"), "span"),
    ("pst_evade.attack", "build_tree", "pstree.build", "span"),
    ("pst_evade.attack", "sample_path", "pstree.sample", "span"),
    ("pst_evade.attack", "adjust", "pstree.adjust", "span"),
    ("pst_evade.attack", "run_attack", ATTACK_SPAN, "span"),
    ("pst_evade.harness", "run_attack", ATTACK_SPAN, "span"),
    ("pst_evade.harness", "run_experiment", "harness.run", "span"),
    ("pst_evade.harness", "select_true_positives", "harness.select_tp", "span"),
)


@dataclass(slots=True)
class Span:
    """One call: wall-clock start and end, and the CPU time its thread spent
    inside it. The gap between the two is time the call waited (on
    ``linear-grid``, mostly for the interpreter lock held by the other worker)."""

    id: int
    parent: int | None
    name: str
    attack: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def replace(self, module: str, attr: str, make_wrapper) -> None:
        """Swap ``module.attr`` for ``make_wrapper(original)``. A module or
        name that no longer exists is recorded as absent, not raised."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer(Patches):
    """Spans with a thread-aware parent and one id per attack, held in memory.

    A span opened on a thread with nothing open (a harness worker thread) takes
    as parent the outermost span still open on any thread, so attacks run by
    the pool hang under ``harness.run``. ``"count"`` targets get no spans, only
    a call counter, because they run millions of times per pass.
    """

    def __init__(self, targets=TARGETS):
        super().__init__()
        self.spans: list[Span] = []
        self.recording = False
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._ids = itertools.count(1)
        self._root: Span | None = None
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._reads: Counter = Counter()
        self._targets = targets

    def _span_wrapper(self, original, span):
        tracer = self
        named = callable(span)
        local = self._local

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            name = span(args, kwargs) if named else span
            attack = sid if name == ATTACK_SPAN else (outer.attack if outer else None)
            record = Span(sid, outer.id if outer else None, name, attack,
                          threading.get_ident(), 0.0)
            if outer is None:
                tracer._root = record
            stack.append(record)
            cpu = time.thread_time()
            record.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                record.cpu = time.thread_time() - cpu
                stack.pop()
                if tracer._root is record:
                    tracer._root = None
                tracer.spans.append(record)

        traced.__wrapped__ = original
        return traced

    def _count_wrapper(self, original, name):
        # next() on itertools.count is one C call, so concurrent callers lose
        # no update. Counted functions are called positionally; leaving out
        # **kwargs keeps the wrapper cheap.
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args):
            tick()
            return original(*args)

        counted.__wrapped__ = original
        return counted

    def count(self, name: str) -> int:
        """Calls so far to the functions counted under ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            return 0
        # Reading takes a tick itself; earlier reads are subtracted.
        value = next(counter) - self._reads[name]
        self._reads[name] += 1
        return value

    def _on_gc(self, phase, info):
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_start
            self.gc_gen2 += info.get("generation") == 2

    def __enter__(self):
        """Wrap every target; recording starts when ``recording`` is set."""
        for module, attr, span, kind in self._targets:
            wrap = self._span_wrapper if kind == "span" else self._count_wrapper
            self.replace(module, attr, lambda original, s=span, w=wrap: w(original, s))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        self.recording = False
        gc.callbacks.remove(self._on_gc)
        return super().__exit__(*exc)


# ---------------------------------------------------------------------------
# Span arithmetic


def self_cpu(span: Span, children) -> float:
    """CPU time of a span minus that of its children on the same thread.
    Children on other threads (harness workers) never ran on this thread's
    clock, so they are not subtracted."""
    return span.cpu - sum(c.cpu for c in children if c.thread == span.thread)


class SpanIndex:
    """Queries over a finished trace."""

    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def select(self, name: str, *, prefix: bool = False, under: str | None = None):
        """Spans named ``name`` (or starting with it when ``prefix``), keeping
        only those whose parent's name starts with ``under`` when given."""
        names = [n for n in self.by_name if n.startswith(name)] if prefix else [name]
        out = []
        for n in names:
            for s in self.by_name.get(n, ()):
                if under is not None:
                    parent = self.by_id.get(s.parent)
                    if parent is None or not parent.name.startswith(under):
                        continue
                out.append(s)
        return out

    def busy(self, name: str, **kw) -> float:
        """CPU seconds spent inside the spans; across threads they add up."""
        return sum((s.cpu for s in self.select(name, **kw)), 0.0)

    def waited(self, name: str, **kw) -> float:
        """Wall seconds inside the spans that their threads were off the CPU."""
        return sum((s.duration - s.cpu for s in self.select(name, **kw)), 0.0)

    def calls(self, name: str, **kw) -> int:
        return len(self.select(name, **kw))

    def self_busy(self, name: str) -> float:
        return sum((self_cpu(s, self.children.get(s.id, ()))
                    for s in self.select(name)), 0.0)


def span_to_dict(span: Span) -> dict:
    return {"id": span.id, "parent": span.parent, "name": span.name,
            "attack": span.attack, "thread": span.thread,
            "start": span.start, "end": span.end, "cpu": span.cpu}
