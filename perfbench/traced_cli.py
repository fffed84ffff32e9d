"""Run one fsrecon command with timing wrappers on its layers, then write the
spans.

    python perfbench/traced_cli.py SPANS.json -- <fsrecon arguments>

The wrappers go on public functions and methods only, from outside the
package: nothing under src/ changes.  A span is [name, start, end, parent],
with parent the index of the enclosing span or -1; times are
``time.perf_counter`` seconds.  ``GroupSpec.element`` is called for every
group add and negation, so it only counts calls and records no span.
The exit code is the command's own.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# Spans named after the layer whose time they measure.  JSON decoding is
# "cli.parse" and encoding "cli.serialize", wherever the call comes from.
_FUNCTIONS = {
    ("fsrecon.radon", "forward"): "radon.forward",
    ("fsrecon.radon", "invert"): "radon.invert",
    ("fsrecon.radon", "verify_inverting"): "radon.verify_inverting",
    ("fsrecon.multisets", "sim0_check"): "multisets.sim0_check",
    ("fsrecon.search", "regularity_scan"): "search.regularity_scan",
    ("fsrecon.search", "fs_preimages"): "search.fs_preimages",
    ("json", "load"): "cli.parse",
    ("json", "loads"): "cli.parse",
    ("json", "dump"): "cli.serialize",
    ("json", "dumps"): "cli.serialize",
}
_METHODS = {
    ("FunctionTable", "from_obj"): "radon.table_from_obj",
    ("FunctionTable", "to_json"): "radon.table_to_json",
    ("RadonImage", "from_obj"): "radon.image_from_obj",
    ("RadonImage", "to_json"): "radon.image_to_json",
    ("Multiset", "from_obj"): "multisets.from_obj",
    ("Multiset", "to_json"): "multisets.to_json",
    ("Multiset", "subset_sums"): "multisets.subset_sums",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _rebind(old, new) -> None:
    """Replace a function everywhere fsrecon imported it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fsrecon" or mod_name.startswith("fsrecon."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the layers named in _FUNCTIONS and _METHODS.  A missing name is
    an error: the spans would silently stop covering that layer."""
    import fsrecon.cli  # noqa: F401  (loads every module the CLI uses)
    from fsrecon import groups, multisets, radon

    for (mod_name, attr), span in _FUNCTIONS.items():
        mod = sys.modules[mod_name]
        old = getattr(mod, attr)
        new = tracer.wrap(span, old)
        setattr(mod, attr, new)
        _rebind(old, new)
    classes = {
        "FunctionTable": radon.FunctionTable,
        "RadonImage": radon.RadonImage,
        "Multiset": multisets.Multiset,
    }
    for (cls_name, attr), span in _METHODS.items():
        cls = classes[cls_name]
        old = cls.__dict__[attr]
        if isinstance(old, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, old.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(span, old))
    groups.GroupSpec.element = tracer.count("groups.element.calls", groups.GroupSpec.element)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_cli.py SPANS.json -- <fsrecon arguments>", file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    dump = json.dump  # the tracer's own output is not the command's
    tracer = Tracer()
    install(tracer)
    from fsrecon import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
