"""Section 7.2: multitenancy and elasticity of fine-grained tasks.

"In a traditional MPP database, if an important query arrives while
another large query [is] using most of the cluster, there are few options
beyond canceling the earlier query.  In systems based on fine-grained
tasks, one can simply wait a few seconds for the current tasks from the
first query to finish, and start giving the nodes tasks from the second
query."

This bench simulates exactly that scenario with a small fair-sharing
discrete-event scheduler: a long batch query owns the cluster; a short
ad-hoc query arrives mid-run.  With sub-second tasks the ad-hoc query's
response time is near its isolated runtime; with coarse-grained plans it
waits for the batch query (or kills it).
"""

import heapq

import pytest

from harness import Figure

SLOTS = 800  # 100 nodes x 8 cores
#: Long batch query: 8000 tasks x 2 s (about 20 s alone on 800 slots).
BATCH_TASKS, BATCH_TASK_S = 8000, 2.0
#: Short ad-hoc query: 800 tasks x 0.5 s (~0.5 s alone).
ADHOC_TASKS, ADHOC_TASK_S = 800, 0.5
ADHOC_ARRIVAL_S = 5.0


def fair_share_response_time(
    batch_task_s: float,
    batch_tasks: int,
    adhoc_task_s: float,
    adhoc_tasks: int,
    arrival_s: float,
    slots: int = SLOTS,
) -> float:
    """Response time of the ad-hoc query under slot-level fair sharing.

    Each slot, when free, takes the next task from the query with the
    fewest running tasks (a miniature fair scheduler, as in the Hadoop and
    Dryad schedulers the paper cites).
    """
    free_at = [0.0] * slots
    heapq.heapify(free_at)
    remaining = {"batch": batch_tasks, "adhoc": adhoc_tasks}
    running = {"batch": 0, "adhoc": 0}
    durations = {"batch": batch_task_s, "adhoc": adhoc_task_s}
    finish = {"batch": 0.0, "adhoc": 0.0}
    # Event list of (time, job) completions to decrement running counts.
    completions: list[tuple[float, str]] = []

    while remaining["batch"] or remaining["adhoc"]:
        now = heapq.heappop(free_at)
        while completions and completions[0][0] <= now:
            __, job = heapq.heappop(completions)
            running[job] -= 1
        # Pick the eligible job with the smaller running share.
        candidates = [
            job
            for job in ("adhoc", "batch")
            if remaining[job]
            and (job != "adhoc" or now >= arrival_s)
        ]
        if not candidates:
            # Only the ad-hoc query remains but has not arrived yet.
            heapq.heappush(free_at, max(now, arrival_s))
            continue
        job = min(candidates, key=lambda j: running[j])
        remaining[job] -= 1
        running[job] += 1
        done = now + durations[job]
        finish[job] = max(finish[job], done)
        heapq.heappush(completions, (done, job))
        heapq.heappush(free_at, done)
    return finish["adhoc"] - arrival_s


class TestMultitenancy:
    def test_adhoc_query_latency_under_batch_load(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

        # Fine-grained tasks (Spark/Shark): slots free every ~2 s; the
        # fair scheduler starts handing them to the ad-hoc query at once.
        fine = fair_share_response_time(
            BATCH_TASK_S, BATCH_TASKS, ADHOC_TASK_S, ADHOC_TASKS,
            ADHOC_ARRIVAL_S,
        )

        # Coarse-grained plan (MPP): the batch query holds all its slots
        # for its whole duration; the ad-hoc query queues behind it.
        batch_alone = BATCH_TASKS * BATCH_TASK_S / SLOTS
        adhoc_alone = ADHOC_TASKS * ADHOC_TASK_S / SLOTS
        coarse_wait = max(batch_alone - ADHOC_ARRIVAL_S, 0.0) + adhoc_alone

        # The third option the paper mentions: cancel the batch query.
        cancel_and_rerun_batch = adhoc_alone  # ad-hoc is fast, but...
        batch_wasted_s = ADHOC_ARRIVAL_S  # ...all batch progress is lost.

        figure = Figure(
            "Multitenancy: ad-hoc query response under a running batch "
            "query (modelled)",
            "Section 7.2: fine-grained tasks -> wait a few seconds; "
            "coarse-grained -> queue or cancel",
        )
        figure.add("Fine-grained tasks (fair share)", fine)
        figure.add("Coarse-grained (queue behind batch)", coarse_wait)
        figure.add(
            "Coarse-grained (cancel batch)", cancel_and_rerun_batch,
            f"destroys {batch_wasted_s:.0f} s of batch progress",
        )
        figure.show()

        # The ad-hoc query gets slots within a couple of task durations.
        assert fine < BATCH_TASK_S * 2 + adhoc_alone + 1.0
        assert coarse_wait > fine * 3

    def test_zipfian_serving_soak_degrades_gracefully(self, benchmark):
        """The PR 8 serving layer, executed for real: a multi-tenant
        SqlServer under Zipfian overload (offered load far above the
        engine's concurrency cap) must shed only the lowest tier, keep
        admitted results byte-identical to an uncontended run, and show
        per-tier latency ordered interactive < batch < best_effort."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        from repro.obs.metrics import percentiles_of
        from repro.serving import ZipfianWorkload
        from repro.serving.tenants import BEST_EFFORT, INTERACTIVE
        from repro.serving.workload import (
            build_server,
            build_serving_context,
        )

        queries = 240
        shark = build_serving_context()
        server = build_server(shark, queries)
        rejected = 0
        for index, request in enumerate(
            ZipfianWorkload(seed=29, queries=queries).generate()
        ):
            try:
                server.submit(
                    request.tenant,
                    request.text,
                    name=f"{request.tenant}-{index}",
                    deadline_s=request.deadline_s,
                    key=request.template,
                )
            except Exception:  # TenantQuotaExceeded: offered >> capacity
                rejected += 1
        finished = server.drain()

        shed = [t for t in finished if t.state == "shed"]
        done = [t for t in finished if t.state == "done"]
        by_tier: dict[str, list[float]] = {}
        for ticket in done:
            by_tier.setdefault(ticket.priority, []).append(
                ticket.latency_s
            )

        figure = Figure(
            "Multi-tenant serving: per-tier p50 latency under Zipfian "
            "overload (executed)",
            "PR 8: weighted fair sharing + tiered shedding; only "
            "best_effort is ever shed",
        )
        for tier in ("interactive", "batch", "best_effort"):
            values = by_tier.get(tier, [])
            if values:
                p50, p95 = percentiles_of(values, (0.5, 0.95))
                figure.add(
                    f"{tier} p50", p50, f"n={len(values)}, p95={p95:.2f}"
                )
        figure.add(
            "shed (all best_effort)", float(len(shed)),
            f"{rejected} quota-rejected at admission",
        )
        figure.show()

        assert shed, "overload should force shedding"
        assert all(t.priority == BEST_EFFORT for t in shed)
        (interactive_p50,) = percentiles_of(by_tier[INTERACTIVE], (0.5,))
        (best_effort_p50,) = percentiles_of(by_tier[BEST_EFFORT], (0.5,))
        assert interactive_p50 < best_effort_p50

    def test_zipfian_soak_with_result_cache(self, benchmark):
        """PR 9: the same Zipfian soak with the query caching stack on.
        A Zipfian workload repeats a handful of templates, so once the
        versioned result cache warms up, a measurable fraction of
        completions is served without running a single task — and the
        per-tenant ledgers attribute every such hit."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        from repro.serving import ZipfianWorkload
        from repro.serving.tenants import BEST_EFFORT
        from repro.serving.workload import (
            build_server,
            build_serving_context,
        )

        queries = 240
        shark = build_serving_context(sql_cache=True)
        server = build_server(shark, queries)
        for index, request in enumerate(
            ZipfianWorkload(seed=29, queries=queries).generate()
        ):
            try:
                server.submit(
                    request.tenant,
                    request.text,
                    name=f"{request.tenant}-{index}",
                    deadline_s=request.deadline_s,
                    key=request.template,
                )
            except Exception:  # TenantQuotaExceeded
                pass
        shed = [t for t in server.drain() if t.state == "shed"]
        attributed = sum(
            state.cache_hits for state in server.tenants.values()
        )
        figure = Figure(
            "Multi-tenant serving with the query caching stack "
            "(executed)",
            "PR 9: repeated Zipfian templates hit the versioned result "
            "cache; admitted results stay byte-identical",
        )
        figure.add("completions", float(server.completed))
        figure.add(
            "served from result cache", float(server.cache_hits),
            f"{attributed} attributed to tenant ledgers",
        )
        figure.add("shed (all best_effort)", float(len(shed)))
        figure.show()

        assert server.cache_hits > 0, "Zipfian repeats should warm cache"
        assert attributed == server.cache_hits
        assert all(t.priority == BEST_EFFORT for t in shed)

    def test_elasticity_new_nodes_absorb_pending_work(self, benchmark):
        """Section 7.2: 'nodes can appear or go away during a query, and
        pending work will automatically be spread onto them' — executed
        for real on the virtual cluster."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        from repro import SharkContext

        shark = SharkContext(num_workers=3, cores_per_worker=2)
        shark.engine.parallelize(range(600), 30).count()
        joined = [shark.engine.add_worker(cores=2) for __ in range(3)]
        shark.engine.parallelize(range(600), 30).count()
        absorbed = sum(worker.tasks_run for worker in joined)
        print(
            f"\n    3 joining workers absorbed {absorbed} of 30 pending "
            f"tasks of the next job"
        )
        assert absorbed >= 10
