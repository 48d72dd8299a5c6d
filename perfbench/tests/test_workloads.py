"""The seeded generator: reproducible, seed-dependent, inside its ranges."""

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_invocations_other_seed_different(name):
    first = [inv.key() for inv in workloads.cycle(name, 7)]
    again = [inv.key() for inv in workloads.cycle(name, 7)]
    other = [inv.key() for inv in workloads.cycle(name, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("seed", range(20))
def test_values_stay_in_documented_ranges(seed):
    for name in workloads.WORKLOADS:
        for inv in workloads.cycle(name, seed):
            s = inv.sets
            if "drives.aux_rabi_rad_s" in s:
                assert 1e6 <= s["drives.coupling_rabi_rad_s"] <= 3e6
                assert 1e6 <= s["drives.aux_rabi_rad_s"] <= 3e6
            elif "drives.coupling_rabi_rad_s" in s:
                assert 1.5e6 <= s["drives.coupling_rabi_rad_s"] <= 5e6
            if "evolve.t_end_s" in s:
                lo, hi = ((5e-3, 1e-2) if name == "evolve-pumping"
                          else (1e-6, 1e-5))
                assert lo <= s["evolve.t_end_s"] <= hi
            if "grid.points_count" in s:
                assert s["grid.points_count"] in workloads.POINTS_CHOICES
            assert inv.jobs in (None, 2)


def test_sweep_full_holds_every_grid_size_once_per_cycle():
    for seed in range(10):
        sizes = sorted(inv.sets["grid.points_count"]
                       for inv in workloads.cycle("sweep-full", seed)
                       if "grid.points_count" in inv.sets)
        assert sizes == list(workloads.POINTS_CHOICES)


def test_evolve_variants_come_in_antithetic_pairs():
    for seed in range(10):
        cycle = workloads.cycle("evolve-pumping", seed)
        assert [inv.sets for inv in cycle[0::2]] == [{}] * 4
        for first, second, lo, hi in ((cycle[1], cycle[5], 1e6, 1.3e6),
                                      (cycle[3], cycle[7], 2e6, 3e6)):
            total = (first.sets["drives.aux_rabi_rad_s"]
                     + second.sets["drives.aux_rabi_rad_s"])
            assert abs(total - (lo + hi)) <= 1e-3 * (lo + hi)
