"""Runtime spans around the pipeline's layers, installed from outside.

Each wrapped function is replaced at the name where its caller looks it up
(``setchoice.cli.parse_scenario``, ``setchoice._core.utility_matrix``...),
so the program's files are untouched.  Spans nest through a stack; a
layer's self time is its span time minus the span time of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

#: Layer names in pipeline order; each gets a ``.self_s`` metric.
LAYERS = (
    "cli.main",
    "scenario_io.parse",
    "universe",
    "core.encode",
    "core.utility_matrix",
    "evaluation.build_process",
    "evaluation.evaluate",
    "evaluation.rank",
    "scenario_io.render.table",
    "scenario_io.render.json",
    "scenario_io.render.csv",
)

#: Counters, each reported per operation.
COUNTS = (
    "scenario_io.parse.bytes",
    "scenario_io.parse.rejected",
    "scenario_io.parse.raised",
    "core.encode.int64_safe",
    "core.encode.int64_unsafe",
    "core.utility_matrix.cells",
    "core.utility_matrix.calls_pure",
    "core.utility_matrix.calls_compiled",
    "scenario_io.render.bytes",
)


class Tracer:
    """Collects self time per layer and counters while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # [start, time of child spans]
        self._installed: list[tuple[object, str, object]] = []

    def span(self, layer: str | Callable[..., str], fn, after=None, failed=None):
        """Wrap fn in a span; ``layer`` may pick the name from the call's
        arguments.  ``after(args, result)`` and ``failed(args)`` update
        counters."""
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failed is not None:
                    failed(args)
                raise
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call adds one to ``name``, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrap) -> bool:
        """Replace owner.attr by wrap(owner.attr); False if it is absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrap(original))
        return True

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- the setchoice pipeline ------------------------------------------

    def install_pipeline(self) -> list[str]:
        """Wrap every layer of the imported package; returns the names that
        could not be found."""
        from setchoice import _core, cli, scenario_io

        counts = self.counts

        def parsed(args, result):
            counts["scenario_io.parse.bytes"] += len(args[0].encode())
            if getattr(result, "ok", True) is False:
                counts["scenario_io.parse.rejected"] += 1

        def raised(args):
            counts["scenario_io.parse.raised"] += 1

        def encoded(args, enc):
            safe = enc.int64_safe
            counts["core.encode.int64_safe" if safe else "core.encode.int64_unsafe"] += 1

        def computed(args, result):
            counts["core.utility_matrix.cells"] += sum(len(row) for row in result[0])

        def rendered(args, text):
            counts["scenario_io.render.bytes"] += len(text.encode())

        def render_layer(first, output_format="table", *rest, **kwargs):
            return f"scenario_io.render.{output_format}"

        targets = [
            (cli, "main", "cli.main", None, None),
            (cli, "parse_scenario", "scenario_io.parse", parsed, raised),
            (cli, "validate_scenario", "scenario_io.parse", parsed, raised),
            (scenario_io, "opportunity_universe", "universe", None, None),
            (scenario_io, "exigence_universe", "universe", None, None),
            (scenario_io, "partition_universe", "universe", None, None),
            (_core, "encode", "core.encode", encoded, None),
            (_core, "utility_matrix", "core.utility_matrix", computed, None),
            (scenario_io, "build_process", "evaluation.build_process", None, None),
            (scenario_io, "evaluate", "evaluation.evaluate", None, None),
            (scenario_io, "rank", "evaluation.rank", None, None),
            (cli, "render_report", render_layer, rendered, None),
            (cli, "render_ranking", render_layer, rendered, None),
            (cli, "render_validation", render_layer, rendered, None),
        ]
        missing = []
        for owner, attr, layer, after, failed in targets:
            if not self.patch(owner, attr,
                              lambda fn: self.span(layer, fn, after, failed)):
                missing.append(f"{owner.__name__}.{attr}")
        # kernels a refactor may remove; a missing one counts no calls
        for owner, path, name in (
                (getattr(_core, "kernel_py", None), "_core.kernel_py.utility_matrix",
                 "core.utility_matrix.calls_pure"),
                (_core, "_core._fast_matrix", "core.utility_matrix.calls_compiled")):
            attr = path.rsplit(".", 1)[1]
            if not self.patch(owner, attr, lambda fn: self.counter(name, fn)):
                missing.append(f"setchoice.{path}")
        return missing
