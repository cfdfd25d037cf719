import os

import pytest

os.environ.setdefault("RAY_DISABLE_IMPORT_WARNING", "1")

# how long a finished test's CPUs may take to come back to the session
CPU_RELEASE_TIMEOUT_S = 30
# how long the session's end waits for leftover Ray Data iterator threads
ITERATOR_THREAD_TIMEOUT_S = 5


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session per pytest run (driver requirement)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    # An early-stopped iteration leaves Ray Data's iterator threads
    # ("map_tp_*") running until their next 0.5 s poll sees the closed
    # generator. One that ends inside ray.shutdown(), after the core worker
    # is gone, drops its block references there, and Ray ends the process
    # with status 1 before pytest prints its summary. Let them end first.
    import gc
    import threading
    import time

    gc.collect()
    deadline = time.monotonic() + ITERATOR_THREAD_TIMEOUT_S
    for thread in threading.enumerate():
        if thread.name.startswith("map_tp_"):
            thread.join(max(0.0, deadline - time.monotonic()))
    ray.shutdown()


@pytest.fixture(autouse=True)
def _reap_streaming_executors(request):
    """Finalize dropped Datasets after every test, then require every CPU
    back. An early-stopped execution (limit / take / partial iter_batches)
    keeps its streaming executor — and the CPUs of its running tasks —
    alive until the Dataset is garbage-collected; an actor (a test may
    start one) killed while its creation is still pending can keep its
    CPU for the rest of the session. Either way the next query that needs
    the CPU would wait forever, so the test that left a CPU held fails
    here, by name, instead. The CPUs free when
    the test started are the target, so a leak fails only the test that
    made it, not every test after it."""
    import gc
    import time

    import ray

    free_before = (ray.available_resources().get("CPU", 0)
                   if ray.is_initialized() else None)
    yield
    gc.collect()
    if not ray.is_initialized():
        return
    target = (ray.cluster_resources().get("CPU", 0) if free_before is None
              else free_before)
    deadline = time.monotonic() + CPU_RELEASE_TIMEOUT_S
    while (free := ray.available_resources().get("CPU", 0)) < target:
        if time.monotonic() > deadline:
            pytest.fail(f"{request.node.nodeid} left {target - free:g} "
                        f"CPUs held after {CPU_RELEASE_TIMEOUT_S} s",
                        pytrace=False)
        time.sleep(0.1)


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"
