"""The batch/sequential contract: ``Machine.run_batch`` must be
bit-identical to N sequential ``Machine.run`` calls.

Every assertion compares a batch member against a solo machine built
through the *same* :func:`repro.sim.batch.instantiate` helper —
identical configuration on both sides by construction, so any
divergence is the batching machinery itself.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS, get_app
from repro.compiler import compile_program
from repro.errors import DeadlockError, SimulationError
from repro.sim import Machine
from repro.sim.batch import instantiate, run_batch

from tests.sim.test_scheduler_equivalence import scratchpad_counters

#: mixed timing overrides exercised across the whole registry: the
#: as-compiled design, a shallow/re-banked one, and a deep pipeline on
#: a throttled DRAM queue
MIXED_PARAMS = [{}, {"stages": 3, "banks": 8},
                {"pipeline_depth": 10, "dram_queue_depth": 4}]


def _compiled(name, scale="tiny"):
    app = get_app(name)
    return compile_program(app.build(scale))


def _solo_outcome(source, overrides, scheduler="event"):
    machine = instantiate(source, overrides, scheduler=scheduler)
    try:
        machine.run()
        return machine, None
    except (SimulationError, DeadlockError) as err:
        return machine, f"{type(err).__name__}: {err}"


def assert_batch_equivalent(source, params, scheduler="event"):
    batch = run_batch(source, params, scheduler=scheduler)
    for i, overrides in enumerate(params):
        solo, solo_error = _solo_outcome(source, overrides, scheduler)
        inst = batch[i]
        if solo_error is not None:
            assert inst.error == solo_error, (
                f"instance {i}: batch said {inst.error!r}, "
                f"solo said {solo_error!r}")
            continue
        assert inst.ok, f"instance {i}: batch errored: {inst.error}"
        diverged = [k for k, v in solo.stats.as_dict().items()
                    if inst.stats.as_dict()[k] != v]
        assert not diverged, f"instance {i}: stats diverge in {diverged}"
        for name, buf in solo.image.buffers.items():
            np.testing.assert_array_equal(
                buf, inst.machine.image.buffers[name],
                err_msg=f"instance {i}: DRAM image {name!r} diverges")
        assert scratchpad_counters(inst.machine) == \
            scratchpad_counters(solo), f"instance {i}: scratchpad counters"
    return batch


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_registry_batch_matches_sequential(app_name):
    compiled = _compiled(app_name)
    batch = assert_batch_equivalent(
        (compiled.dhdl, compiled.config), MIXED_PARAMS)
    assert batch.cohorts == 1
    assert batch.replayed == 2


@pytest.mark.parametrize("scheduler", ["event", "dense"])
def test_both_schedulers_batch_equivalent(scheduler):
    compiled = _compiled("innerproduct")
    assert_batch_equivalent((compiled.dhdl, compiled.config),
                            MIXED_PARAMS, scheduler=scheduler)


def test_batch_of_one_matches_plain_run():
    compiled = _compiled("gemm")
    batch = run_batch((compiled.dhdl, compiled.config), [None])
    assert batch[0].role == "solo"
    assert batch.replayed == 0
    plain = Machine(compiled.dhdl, compiled.config)
    stats = plain.run()
    assert batch[0].stats.same_as(stats)
    for name, buf in plain.image.buffers.items():
        np.testing.assert_array_equal(
            buf, batch[0].machine.image.buffers[name])


def test_mixed_retirement_batch():
    """Instances that abort early (max-cycles, watchdog) must retire
    from the joint step loop without disturbing the survivors."""
    compiled = _compiled("gemm")
    source = (compiled.dhdl, compiled.config)
    params = [{}, {"max_cycles": 40}, {"stages": 6},
              {"max_cycles": 25, "stages": 3}, {"banks": 4}]
    batch = assert_batch_equivalent(source, params)
    assert batch[0].ok and batch[2].ok and batch[4].ok
    assert not batch[1].ok and not batch[3].ok


def test_data_override_splits_cohorts():
    compiled = _compiled("tpchq6")
    source = (compiled.dhdl, compiled.config)
    seeded = next(ref for ref in compiled.dhdl.drams
                  if ref.array.data is not None)
    alt = np.zeros(seeded.words(), dtype=np.float64)
    params = [{}, {"stages": 5},
              {"data": {seeded.name: alt}},
              {"data": {seeded.name: alt}, "banks": 4}]
    batch = assert_batch_equivalent(source, params)
    assert batch.cohorts == 2
    assert batch.replayed == 2
    roles = [inst.role for inst in batch]
    assert roles == ["leader", "replay", "leader", "replay"]


def test_leader_failure_falls_back_to_solo_runs():
    compiled = _compiled("gemm")
    source = (compiled.dhdl, compiled.config)
    params = [{"max_cycles": 30}, {}, {"stages": 5}]
    batch = assert_batch_equivalent(source, params)
    assert not batch[0].ok
    assert batch[1].ok and batch[2].ok
    assert batch.replayed == 0
    assert batch[1].role == "solo" and batch[2].role == "solo"


def test_tracer_attribution_matches_sequential():
    from repro.trace import RingTracer
    compiled = _compiled("gemm")
    source = (compiled.dhdl, compiled.config)
    overrides = {"stages": 3, "banks": 4}
    batch = run_batch(source, [{}, overrides],
                      tracer_factory=lambda i, p: RingTracer())
    solo = instantiate(source, overrides, scheduler="event",
                       tracer=RingTracer())
    solo.run()
    assert batch[1].role == "replay"
    assert (batch[1].machine.trace_report().render()
            == solo.trace_report().render())


def test_batch_runs_from_a_bitstream_artifact():
    from repro.compiler.artifact import freeze_program
    app = get_app("innerproduct")
    artifact = freeze_program(app.build("tiny"), "innerproduct", "tiny")
    batch = assert_batch_equivalent(artifact, [{}, {"stages": 8}])
    assert batch.replayed == 1
