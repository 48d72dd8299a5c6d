"""Self-time arithmetic on hand-built span trees."""

import pytest

import spans


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ["parent", 0.0, 10.0, None, None],
        ["a", 1.0, 3.0, 0, None],      # overlaps b: covered once
        ["b", 2.0, 5.0, 0, None],
        ["c", 8.0, 12.0, 0, None],     # runs past its parent: clipped
        ["grandchild", 1.5, 2.0, 1, None],
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(0.5)


def test_nested_child_inside_another_does_not_count_twice():
    tree = [["p", 0.0, 4.0, None, None], ["x", 0.0, 3.0, 0, None],
            ["y", 1.0, 2.0, 0, None]]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_parallel_ratio_is_one_when_serial_and_two_when_fully_overlapped():
    serial = [["optics.sweep", 0.0, 4.0, None, None],
              ["optics.full_model_chi", 0.0, 2.0, 0, None],
              ["optics.full_model_chi", 2.0, 4.0, 0, None]]
    busy, covered = spans.parallel_sums(serial, "optics.sweep")
    assert busy / covered == pytest.approx(1.0)
    overlapped = [["optics.sweep", 0.0, 2.0, None, None],
                  ["optics.full_model_chi", 0.0, 2.0, 0, None],
                  ["optics.full_model_chi", 0.0, 2.0, 0, None]]
    busy, covered = spans.parallel_sums(overlapped, "optics.sweep")
    assert busy / covered == pytest.approx(2.0)


def test_pass_metrics_totals_counts_and_computed_work():
    invocation = [
        ["import.eitsim", 0.0, 0.2, None, None],
        ["cli.evolve", 0.3, 1.3, None, None],
        ["bloch.evolve", 0.4, 1.2, 1, None],
        ["kernels.integrate", 0.5, 1.0, 2, 1000],
        ["cli.write", 1.21, 1.22, 1, 4096],
    ]
    m = spans.pass_metrics([invocation, invocation])
    assert m["import.eitsim_s"] == pytest.approx(0.4)
    assert m["kernels.integrate.calls"] == 2
    assert m["kernels.integrate.steps"] == 2000
    assert m["kernels.integrate.matvecs_computed"] == 6 * 2000 + 2
    assert m["kernels.integrate.flops_computed"] == 8 * 36 * 36 * 12002
    assert m["kernels.integrate.us_per_step"] == pytest.approx(1e6 / 2000)
    assert m["bloch.evolve.self_s"] == pytest.approx(2 * 0.3)
    assert m["cli.evolve.self_s"] == pytest.approx(2 * (1.0 - 0.8 - 0.01))
    assert m["cli.write.bytes"] == 8192
    assert m["optics.sweep.calls"] == 0
    assert m["cli.commands.self_s"] == m["cli.evolve.self_s"]
    assert set(m) == {name for name, _ in spans.PER_LAYER
                      + spans.LAYER_TIMES} - {"trace.overhead_p50_s"}
