"""Traced `eitsim` entry point for the benchmark's traced pass.

    python3 perfbench/launcher.py SPANS_JSON -- <eitsim arguments>

Times `import eitsim.cli` as the `import.eitsim` span, wraps the public
functions at the names their callers look them up by, runs
`eitsim.cli.main(argv)` and writes the spans to SPANS_JSON at exit.  Spans
live in memory until then.  The process exits with the command's status.
"""

import json
import os
import sys
import threading
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end, parent=None, value=None):
        self.spans.append([name, start, end, parent, value])

    def wrap(self, name, fn, value_of=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool worker's first span is caused by whatever the main
            # thread is blocked in (the sweep that submitted it).
            if stack:
                parent = stack[-1]
            else:
                parent = self._main[-1] if self._main else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, None])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[index][1:3] = [start, end]
            if value_of is not None:
                self.spans[index][4] = value_of(args, result)
            return result
        return traced

    def patch(self, module, attr, name, value_of=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), value_of))


def install(tracer: Tracer) -> None:
    from eitsim import bloch, cli, config, kernels, optics, validation

    chi = "lambda_system.chi_analytic"
    patches = [
        (cli, "resolve", "config.resolve"),
        (cli, "chi_analytic", chi),
        (config, "derive_gamma", "materials.derive_gamma"),
        (optics, "sweep", "optics.sweep"),
        (optics, "full_model_chi", "optics.full_model_chi"),
        (optics, "build_hamiltonian", "bloch.build_hamiltonian"),
        (optics, "build_liouvillian", "bloch.build_liouvillian"),
        (optics, "steady_state", "bloch.steady_state"),
        (optics, "chi_analytic", chi),
        (validation, "validate_reduction", "validation.validate_reduction"),
        (validation, "full_model_chi", "optics.full_model_chi"),
        (validation, "chi_analytic", chi),
        (bloch, "build_hamiltonian", "bloch.build_hamiltonian"),
        (bloch, "build_liouvillian", "bloch.build_liouvillian"),
        (bloch, "steady_state", "bloch.steady_state"),
        (bloch, "evolve", "bloch.evolve"),
        (bloch, "assert_density_matrix", "states.assert_density_matrix"),
    ]
    for module, attr, name in patches:
        tracer.patch(module, attr, name)
    tracer.patch(cli, "_write_atomic", "cli.write",
                 lambda args, _: len(args[1].encode("utf-8")))
    tracer.patch(kernels, "integrate", "kernels.integrate",
                 lambda _, result: int(result[2]))
    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = tracer.wrap(f"cli.{command}", handler)


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: launcher.py SPANS_JSON -- <eitsim args>")
    argv = sys.argv[3:]
    # Nothing in this directory may shadow a module eitsim imports.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]

    started = perf_counter()
    import eitsim.cli
    tracer = Tracer()
    tracer.add("import.eitsim", started, perf_counter())
    install(tracer)
    try:
        return eitsim.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
