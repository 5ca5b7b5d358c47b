"""Run one qhurwitz CLI request with spans around the calls into each layer.

Usage: python3 bench/traced.py OUT_PREFIX ARG...

Behaves like ``python -m qhurwitz ARG...`` (same stdout, same exit code), but
before ``cli.main`` runs it replaces the layer functions listed in TARGETS by
timing wrappers, in the defining module and in every qhurwitz module that
imported the name.  Each call becomes a span (name, start, end, parent).
Spans stay in memory until the request ends; then OUT_PREFIX.spans.json
receives them all and OUT_PREFIX.json a summary: self time and call count per
span name, the import time, lru_cache figures read from the original cached
functions, and the few counts the benchmark derives ratios from.
"""

from __future__ import annotations

import json
import sys
import time

perf_counter = time.perf_counter

#: (layer, module, attribute) of every traced function; "Class.method" wraps
#: a method, and a property is traced through its getter.
TARGETS = (
    ("characters", "characters", "character_table"),
    ("tau", "tau", "tau_coefficients"),
    ("tau", "tau", "content_product_coeffs"),
    ("tau", "tau", "species_content_coeffs"),
    ("tau", "tau", "verify_triangle"),
    ("qweights", "qweights", "symmetrized_weight"),
    ("qweights", "qweights", "weight_coefficient"),
    ("geometric", "geometric", "multispecies_hurwitz_number"),
    ("geometric", "geometric", "frobenius_hurwitz"),
    ("combinatorial", "combinatorial", "transfer_matrix"),
    ("combinatorial", "combinatorial", "multispecies_transfer_matrix"),
    ("combinatorial", "combinatorial", "TransferMatrix.__matmul__"),
    ("combinatorial", "combinatorial", "path_counts"),
    ("sn", "sn", "symmetric_group"),
    ("sn", "sn", "SymmetricGroup.table"),
)

#: lru_cache objects whose cache_info() the summary reports.
CACHES = (
    ("characters", "character_table"),
    ("characters", "_border_strip_character"),
    ("geometric", "frobenius_hurwitz"),
    ("geometric", "_profile_tuples"),
    ("combinatorial", "_path_counts"),
    ("sn", "symmetric_group"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.weight_keys: set = set()
        self.tau_entries = 0

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def observe_weight(self, args, kwargs, result):
        family, q, colengths = args
        self.weight_keys.add((family, str(q), tuple(sorted(colengths))))

    def observe_tau(self, args, kwargs, result):
        self.tau_entries += len(result.entries)

    def install(self, modules: dict) -> None:
        observers = {
            "symmetrized_weight": self.observe_weight,
            "tau_coefficients": self.observe_tau,
        }
        for layer, module_name, attribute in TARGETS:
            module = modules[module_name]
            name = f"{layer}.{attribute}"
            if "." in attribute:
                cls_name, member = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, property):
                    setattr(cls, member, property(self.wrap(name, original.fget)))
                else:
                    setattr(cls, member, self.wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original, observers.get(attribute))
            for other in modules.values():
                if getattr(other, attribute, None) is original:
                    setattr(other, attribute, wrapper)

    def summary(self) -> dict:
        """Self time and calls per span name; self time excludes child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name: dict[str, list] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = per_name.setdefault(name, [0.0, 0])
            entry[0] += end - start - child_time[index]
            entry[1] += 1
        return {name: {"self_s": s, "calls": c} for name, (s, c) in per_name.items()}


def main() -> int:
    out_prefix, argv = sys.argv[1], sys.argv[2:]
    import_start = perf_counter()
    import qhurwitz  # noqa: F401  (the package imports every layer module)
    from qhurwitz import cli

    import_s = perf_counter() - import_start
    modules = {
        name.rsplit(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("qhurwitz.")
    }
    originals = {(m, a): getattr(modules[m], a) for m, a in CACHES}
    tracer = Tracer()
    tracer.install(modules)

    def run(args):
        try:
            return cli.main(args)
        finally:
            sys.stdout.flush()

    code = tracer.wrap("cli.main", run)(argv)

    caches = {}
    for (module, attribute), fn in originals.items():
        info = fn.cache_info()
        caches[f"{module}.{attribute}"] = {"hits": info.hits, "misses": info.misses}
    document = {
        "import_s": import_s,
        "main_s": tracer.spans[0][2] - tracer.spans[0][1],
        "names": tracer.summary(),
        "caches": caches,
        "weight_keys": len(tracer.weight_keys),
        "tau_entries": tracer.tau_entries,
    }
    with open(out_prefix + ".json", "w") as handle:
        json.dump(document, handle)
    with open(out_prefix + ".spans.json", "w") as handle:
        json.dump({"request": out_prefix.rsplit("/", 1)[-1], "argv": argv, "spans": tracer.spans},
                  handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
