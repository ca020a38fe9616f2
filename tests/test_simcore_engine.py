"""Unit tests for the discrete-event engine (engine + process semantics)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simcore import (
    Acquire,
    AllOf,
    Engine,
    Event,
    Get,
    Put,
    Resource,
    Store,
    Timeout,
    WaitEvent,
)


def test_timeout_advances_clock():
    eng = Engine()

    def p(env):
        yield Timeout(1.5)
        yield Timeout(2.5)
        return env.now

    proc = eng.spawn(p(eng))
    eng.run()
    assert proc.value == pytest.approx(4.0)
    assert eng.now == pytest.approx(4.0)


def test_zero_timeout_allowed():
    eng = Engine()

    def p(env):
        yield Timeout(0.0)
        return env.now

    proc = eng.spawn(p(eng))
    eng.run()
    assert proc.value == 0.0


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_processes_interleave_in_time_order():
    eng = Engine()
    log = []

    def p(name, delay):
        yield Timeout(delay)
        log.append((name, eng.now))

    eng.spawn(p("slow", 3.0))
    eng.spawn(p("fast", 1.0))
    eng.run()
    assert log == [("fast", 1.0), ("slow", 3.0)]


def test_fifo_tiebreak_is_spawn_order():
    eng = Engine()
    log = []

    def p(name):
        yield Timeout(1.0)
        log.append(name)

    for name in "abcd":
        eng.spawn(p(name))
    eng.run()
    assert log == list("abcd")


def test_return_value_via_done_event():
    eng = Engine()

    def child(env):
        yield Timeout(2.0)
        return 42

    def parent(env):
        c = env.spawn(child(env))
        val = yield WaitEvent(c.done)
        return val + 1

    proc = eng.spawn(parent(eng))
    eng.run()
    assert proc.value == 43


def test_yielding_process_directly_joins_it():
    eng = Engine()

    def child(env):
        yield Timeout(1.0)
        return "ok"

    def parent(env):
        val = yield env.spawn(child(env))
        return val

    proc = eng.spawn(parent(eng))
    eng.run()
    assert proc.value == "ok"


def test_wait_on_already_triggered_event_resumes_immediately():
    eng = Engine()
    ev = Event()
    ev.succeed("early")

    def p(env):
        val = yield WaitEvent(ev)
        return (val, env.now)

    proc = eng.spawn(p(eng))
    eng.run()
    assert proc.value == ("early", 0.0)


def test_event_double_trigger_is_error():
    ev = Event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_allof_waits_for_all():
    eng = Engine()

    def child(env, d, v):
        yield Timeout(d)
        return v

    def parent(env):
        procs = [env.spawn(child(env, d, d * 10)) for d in (3.0, 1.0, 2.0)]
        vals = yield AllOf([p.done for p in procs])
        return (vals, env.now)

    proc = eng.spawn(parent(eng))
    eng.run()
    vals, t = proc.value
    assert vals == [30.0, 10.0, 20.0]  # input order, not completion order
    assert t == pytest.approx(3.0)


def test_allof_with_all_pretriggered():
    eng = Engine()
    evs = [Event(), Event()]
    evs[0].succeed(1)
    evs[1].succeed(2)

    def p(env):
        vals = yield AllOf(evs)
        return vals

    proc = eng.spawn(p(eng))
    eng.run()
    assert proc.value == [1, 2]


def test_store_put_get_fifo():
    eng = Engine()
    store = Store()
    got = []

    def producer(env):
        for i in range(3):
            yield Timeout(1.0)
            yield Put(store, i)

    def consumer(env):
        for _ in range(3):
            item = yield Get(store)
            got.append((item, env.now))

    eng.spawn(producer(eng))
    eng.spawn(consumer(eng))
    eng.run()
    assert [i for i, _ in got] == [0, 1, 2]
    assert [t for _, t in got] == [1.0, 2.0, 3.0]


def test_store_filtered_get_preserves_other_items():
    eng = Engine()
    store = Store()

    def producer(env):
        yield Put(store, ("a", 1))
        yield Put(store, ("b", 2))

    def consumer(env):
        item_b = yield Get(store, filter=lambda it: it[0] == "b")
        item_a = yield Get(store)
        return [item_b, item_a]

    eng.spawn(producer(eng))
    proc = eng.spawn(consumer(eng))
    eng.run()
    assert proc.value == [("b", 2), ("a", 1)]


def test_store_blocked_filtered_getter_woken_by_matching_put():
    eng = Engine()
    store = Store()

    def consumer(env):
        item = yield Get(store, filter=lambda it: it == "wanted")
        return (item, env.now)

    def producer(env):
        yield Timeout(1.0)
        yield Put(store, "other")
        yield Timeout(1.0)
        yield Put(store, "wanted")

    proc = eng.spawn(consumer(eng))
    eng.spawn(producer(eng))
    eng.run()
    assert proc.value == ("wanted", 2.0)
    assert list(store.items) == ["other"]


def test_resource_serializes_access():
    eng = Engine()
    res = Resource(capacity=1)
    log = []

    def worker(env, name):
        yield Acquire(res)
        log.append((name, "in", env.now))
        yield Timeout(1.0)
        log.append((name, "out", env.now))
        res.release()

    for name in ("w0", "w1", "w2"):
        eng.spawn(worker(eng, name))
    eng.run()
    # Strictly serialized, FIFO order.
    assert log == [
        ("w0", "in", 0.0),
        ("w0", "out", 1.0),
        ("w1", "in", 1.0),
        ("w1", "out", 2.0),
        ("w2", "in", 2.0),
        ("w2", "out", 3.0),
    ]


def test_resource_capacity_two_overlaps():
    eng = Engine()
    res = Resource(capacity=2)
    done_times = []

    def worker(env):
        yield Acquire(res)
        yield Timeout(1.0)
        res.release()
        done_times.append(env.now)

    for _ in range(4):
        eng.spawn(worker(eng))
    eng.run()
    assert done_times == [1.0, 1.0, 2.0, 2.0]


def test_release_idle_resource_is_error():
    res = Resource(capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_deadlock_detection():
    eng = Engine()
    ev = Event(name="never")

    def p(env):
        yield WaitEvent(ev)

    eng.spawn(p(eng), name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run()


def test_deadlock_detection_can_be_disabled():
    eng = Engine()
    ev = Event()

    def p(env):
        yield WaitEvent(ev)

    eng.spawn(p(eng))
    eng.run(detect_deadlock=False)  # no raise


def test_run_until_stops_clock():
    eng = Engine()

    def p(env):
        yield Timeout(10.0)

    eng.spawn(p(eng))
    t = eng.run(until=3.0, detect_deadlock=False)
    assert t == 3.0
    assert eng.now == 3.0


def test_yield_garbage_raises():
    eng = Engine()

    def p(env):
        yield "not a command"

    eng.spawn(p(eng))
    with pytest.raises(SimulationError, match="non-command"):
        eng.run()


def test_spawn_non_generator_raises():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.spawn(lambda: None)


def test_subgenerator_composition_with_yield_from():
    eng = Engine()

    def sub(env):
        yield Timeout(1.0)
        return 5

    def main(env):
        a = yield from sub(env)
        b = yield from sub(env)
        return a + b

    proc = eng.spawn(main(eng))
    eng.run()
    assert proc.value == 10
    assert eng.now == pytest.approx(2.0)


def test_exception_in_process_propagates_from_run():
    eng = Engine()

    def p(env):
        yield Timeout(1.0)
        raise RuntimeError("boom")

    eng.spawn(p(eng))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


# --------------------------------------------------------------------------
# performance regressions (repro.perf hot-path work)
# --------------------------------------------------------------------------


def test_spawn_join_storm_completes_linearly():
    """5,000 spawn/join pairs must retire in O(1) each.

    The old ``list.remove``-based retirement made process completion
    O(live processes), turning this storm quadratic (tens of seconds);
    with O(1) retirement it takes a bounded, linear number of engine
    steps and well under a second of wall time.
    """
    import time

    from benchmarks.bench_selfperf import spawn_join_storm

    n = 5000
    t0 = time.perf_counter()
    _, steps = spawn_join_storm(n)
    wall = time.perf_counter() - t0
    # Each worker takes 2 steps (resume + StopIteration) and each joiner 2.
    assert steps == 4 * n
    assert wall < 5.0


def test_live_retirement_is_constant_time():
    eng = Engine()

    def p(env):
        yield Timeout(1.0)

    procs = [eng.spawn(p(eng)) for _ in range(100)]
    eng.run()
    assert all(pr.finished for pr in procs)
    assert len(eng._live) == 0


def test_deadlock_report_names_processes_in_spawn_order():
    eng = Engine()
    ev = Event("never")

    def stuck(env, k):
        yield WaitEvent(ev)

    for k in range(3):
        eng.spawn(stuck(eng, k), name=f"stuck{k}")
    with pytest.raises(DeadlockError, match="stuck0.*stuck1.*stuck2"):
        eng.run()


# --------------------------------------------------------------------------
# __slots__ audit (no per-instance dicts on hot objects)
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj",
    [
        Timeout(1.0),
        WaitEvent(Event()),
        AllOf([Event()]),
        Get(Store()),
        Put(Store(), 1),
        Acquire(Resource()),
        Event(),
        Store(),
        Resource(),
        Engine(),
    ],
    ids=lambda o: type(o).__name__,
)
def test_hot_objects_have_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.some_attribute_that_does_not_exist = 1


def test_process_has_no_instance_dict():
    eng = Engine()

    def p(env):
        yield Timeout(0.0)

    proc = eng.spawn(p(eng))
    assert not hasattr(proc, "__dict__")
    with pytest.raises(AttributeError):
        proc.stray = 1
    eng.run()
