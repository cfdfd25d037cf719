"""End-to-end pipelines. Import submodules directly, e.g.
``from dataprof_ray.pipelines import quality_filter, dedup``.

Importing this package turns off Ray Data's per-operator resource
reservation for every Dataset created after it (see below)."""

import ray.data

# Ray Data's ReservationOpResourceAllocator caps each unfinished operator at
# its reserved share plus 1/n of the rest, so the map after a read gets about
# half the CPUs until the read finishes. Its per-operator minimum exists for
# actor pools, and every operator here is a task that frees its CPU after
# each block. Measured on a 4-CPU session, 8 blocks of a 0.13 s UDF: 0.97 s
# with the allocator, 0.70 s without (a reservation ratio of 0 changes
# nothing). A Dataset copies the DataContext when it is created, so this
# must run before the first read.
ray.data.DataContext.get_current().op_resource_reservation_enabled = False

from dataprof_ray.pipelines import (  # noqa: E402, F401
    aggregate,
    curate,
    dedup,
    drift,
    export,
    join,
    lm,
    profile,
    quality_filter,
    sampling,
    similarity,
    textstats,
    window,
)
