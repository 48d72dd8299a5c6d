"""Seeded invocation lists for the three benchmark workloads.

A workload is one cycle of `eitsim` invocations that the benchmark repeats
as a closed loop with a single client.  The seed only chooses `--set`
values inside the ranges the README documents; the program never sees the
seed.  Every draw goes through `random.Random(f"{workload}:{seed}")`, so the
same seed always yields the same cycle.
"""

import random
from dataclasses import dataclass, field

WORKLOADS = ("evolve-pumping", "sweep-full", "cli-short")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

COUPLING_RANGE = (1.5e6, 5e6)  # up to the README's Autler-Townes example
GRID_HALF_WIDTH_RANGE = (1e7, 2e7)
POINTS_CHOICES = (201, 1001, 2001)


@dataclass(frozen=True)
class Invocation:
    """One `eitsim` command line, minus `--out`."""

    command: str
    sets: dict = field(default_factory=dict)
    backend: str = None
    jobs: int = None

    def argv(self) -> list:
        args = [self.command]
        for path, value in self.sets.items():
            args += ["--set", f"{path}={value}"]
        if self.backend is not None:
            args += ["--backend", self.backend]
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        return args

    def key(self) -> str:
        return " ".join(self.argv())

    def as_dict(self) -> dict:
        return {"command": self.command, "sets": dict(self.sets),
                "backend": self.backend, "jobs": self.jobs}


def _at(bounds: tuple, u: float) -> float:
    """The point a share u of the way through bounds, to four significant
    digits, which keep command lines short and survive the JSON the CLI
    parses unchanged."""
    lo, hi = bounds
    return float(f"{lo + u * (hi - lo):.4g}")


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return _at((lo, hi), rng.random())


def _evolve_pumping(rng: random.Random) -> list:
    # Variants come in two strata around the default run: "light" ones
    # (weaker drives, fewer DP45 steps than the default's ~15.6k) and
    # "heavy" ones (aux drive >= 2e6 rad/s, >= 22k steps).  Half the cycle
    # is the default run, so the median stays on it whatever the seed draws.
    # Each stratum is drawn as an antithetic pair (u and 1 - u in every
    # range, the two initial states), so the cycle's total cost, and with
    # it the throughput, hardly depends on the seed either.
    def pair(coupling, aux, states):
        u = [rng.random() for _ in range(3)]
        flip = rng.random() < 0.5
        out = []
        for side in (0, 1):
            x = [ui if side == 0 else 1.0 - ui for ui in u]
            out.append(Invocation("evolve", {
                "drives.coupling_rabi_rad_s": _at(coupling, x[0]),
                "drives.aux_rabi_rad_s": _at(aux, x[1]),
                "evolve.initial_state": states[side ^ flip],
                "evolve.t_end_s": _at((5e-3, 1e-2), x[2]),
            }))
        return out

    light = pair((1e6, 1.3e6), (1e6, 1.3e6), ("mixed", "mixed"))
    heavy = pair((1e6, 3e6), (2e6, 3e6), ("mixed", "level_5"))
    default = Invocation("evolve")
    return [default, light[0], default, heavy[0],
            default, light[1], default, heavy[1]]


def _widened(rng: random.Random, points: int) -> dict:
    half = _draw(rng, *GRID_HALF_WIDTH_RANGE)
    return {
        "drives.coupling_rabi_rad_s": _draw(rng, *COUPLING_RANGE),
        "grid.delta_min_rad_s": -half,
        "grid.delta_max_rad_s": half,
        "grid.points_count": points,
    }


def _sweep_full(rng: random.Random) -> list:
    # Every cycle holds each grid size once, the 201-point one through the
    # --jobs 2 thread pool, so the cycle's cost does not depend on which
    # sizes the seed would otherwise have drawn.  Five commands of distinct
    # cost (validate, 201, 1,001 and 2,001 points, window) put the median
    # on the 1,001-point sweep and p75 on the 2,001-point one, never
    # between two commands.
    points = list(POINTS_CHOICES)
    rng.shuffle(points)
    cycle = [Invocation("window", {
        "drives.coupling_rabi_rad_s": _draw(rng, *COUPLING_RANGE)},
        backend="full")]
    cycle += [Invocation("spectrum", _widened(rng, p), backend="full",
                         jobs=2 if p == POINTS_CHOICES[0] else None)
              for p in points]
    # The probe reaches the C5 strength (1.5e4 rad/s), where validate exits
    # 4 by design; the expected status is part of the reference.
    cycle.append(Invocation("validate", {
        "drives.coupling_rabi_rad_s": _draw(rng, *COUPLING_RANGE),
        "drives.probe_rabi_rad_s": _draw(rng, 1.5e3, 1.5e4),
    }))
    return cycle


def _cli_short(rng: random.Random) -> list:
    def vg_point():
        return {"drives.coupling_rabi_rad_s": _draw(rng, *COUPLING_RANGE),
                "drives.probe_detuning_rad_s": _draw(rng, -1e5, 1e5)}

    # Seven commands, an odd count, so the median and p90 fall inside the
    # samples of one command rather than between two.
    return [
        Invocation("params", {"conventions.rate_convention": "cyclic"}),
        Invocation("params", {"conventions.rate_convention": "angular"}),
        Invocation("spectrum", _widened(rng, rng.choice(POINTS_CHOICES))),
        Invocation("window", {
            "drives.coupling_rabi_rad_s": _draw(rng, *COUPLING_RANGE)}),
        Invocation("vg", vg_point()),
        Invocation("vg", vg_point(), backend="full"),
        Invocation("evolve", {"evolve.t_end_s": _draw(rng, 1e-6, 1e-5)}),
    ]


_GENERATORS = {
    "evolve-pumping": _evolve_pumping,
    "sweep-full": _sweep_full,
    "cli-short": _cli_short,
}


def cycle(workload: str, seed: int) -> list:
    """The seeded invocation cycle of one workload."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
