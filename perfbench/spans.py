"""In-memory span and counter recorder, installed around the package from
outside.

``install(recorder)`` replaces every public function of the measured
modules, in every ``musicking_lab`` module namespace that binds it, with a
wrapper that records a span (name, start, end, parent span, thread, run
id) or, for per-record helpers, only a call count.  Nothing under ``src/``
is edited.  Spans stay in memory until ``Recorder.dump`` writes them once,
at the end of the process.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

LAYERS = ("ingest", "model", "quality", "timing", "analytics", "stats", "cluster", "svg")
CLI_WRITERS = ("write_json", "write_csv")
# Called once per record: a span each would swamp the trace, so count only.
COUNT_ONLY = {"timing.assign_musical_position", "model.validate_record"}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.skipped: set[tuple[str, str]] = set()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def note_skipped(self, skipped) -> None:
        with self._lock:
            self.skipped.update(skipped)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs inside the span to derive counters from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name + ".calls")
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": dict(self.counters),
            "skipped": sorted(self.skipped),
        }))


def _public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


def install(recorder: Recorder) -> None:
    """Wrap the measured functions wherever the package binds them."""
    import musicking_lab  # noqa: F401  (loads every layer module)
    import musicking_lab.cli as cli

    package = {name: mod for name, mod in sys.modules.items()
               if name == "musicking_lab" or name.startswith("musicking_lab.")}
    targets = {}
    for layer in LAYERS:
        module = package[f"musicking_lab.{layer}"]
        for name, fn in _public_functions(module).items():
            targets[id(fn)] = (f"{layer}.{name}", fn)
    for name in CLI_WRITERS:
        fn = getattr(cli, name)
        targets[id(fn)] = (f"cli.{name}", fn)

    def written(args, _result):
        recorder.count("cli.bytes_written", Path(args[0]).stat().st_size)

    hooks = {
        "ingest.parse_session_file":
            lambda _args, session: recorder.count("ingest.records_parsed", len(session.records)),
        "ingest.discover_dataset":
            lambda _args, manifest: recorder.note_skipped(manifest.skipped),
        "cli.write_json": written,
        "cli.write_csv": written,
    }
    wrappers = {}
    for key, (name, fn) in targets.items():
        if name in COUNT_ONLY:
            wrappers[key] = recorder.counted(name, fn)
        else:
            wrappers[key] = recorder.span(name, fn, hooks.get(name))
    for module in package.values():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
