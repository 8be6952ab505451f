"""Virtual cluster: membership, placement, blocks, failure injection."""

import pytest

from repro.cluster import FailureInjector, VirtualCluster
from repro.cluster.worker import BlockStore, approximate_size_bytes
from repro.errors import NoLiveWorkersError


class TestBlockStore:
    def test_put_get_contains(self):
        store = BlockStore()
        store.put("b1", [1, 2, 3])
        assert "b1" in store
        assert store.get("b1") == [1, 2, 3]

    def test_size_accounting(self):
        store = BlockStore()
        store.put("b1", list(range(100)))
        assert store.used_bytes > 0
        store.put("b2", "x", size_bytes=12345)
        assert store.used_bytes > 12345

    def test_remove_and_clear(self):
        store = BlockStore()
        store.put("a", 1)
        store.put("b", 2)
        store.remove("a")
        assert "a" not in store
        store.clear()
        assert len(store) == 0

    def test_remove_missing_is_noop(self):
        BlockStore().remove("ghost")


class TestApproximateSize:
    def test_respects_footprint_method(self):
        class Sized:
            def memory_footprint_bytes(self):
                return 4242

        assert approximate_size_bytes(Sized()) == 4242

    def test_list_scales_with_length(self):
        small = approximate_size_bytes(list(range(10)))
        large = approximate_size_bytes(list(range(10000)))
        assert large > small * 100

    def test_dict_counts_keys_and_values(self):
        assert approximate_size_bytes({"k": "v"}) > 0

    def test_empty_list(self):
        assert approximate_size_bytes([]) > 0


class TestMembership:
    def test_initial_workers_alive(self):
        cluster = VirtualCluster(num_workers=3)
        assert len(cluster.live_workers()) == 3

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            VirtualCluster(num_workers=0)

    def test_kill_drops_blocks(self):
        cluster = VirtualCluster(num_workers=2)
        cluster.put_block(0, "b", [1, 2, 3])
        cluster.kill_worker(0)
        assert not cluster.workers[0].alive
        assert len(cluster.workers[0].blocks) == 0

    def test_kill_idempotent(self):
        cluster = VirtualCluster(num_workers=3)
        cluster.kill_worker(1)
        cluster.kill_worker(1)
        assert len(cluster.live_workers()) == 2

    def test_kill_last_worker_raises(self):
        cluster = VirtualCluster(num_workers=1)
        with pytest.raises(NoLiveWorkersError):
            cluster.kill_worker(0)

    def test_restart_returns_empty_worker(self):
        cluster = VirtualCluster(num_workers=2)
        cluster.put_block(0, "b", 1)
        cluster.kill_worker(0)
        cluster.restart_worker(0)
        worker = cluster.worker(0)
        assert worker.alive
        assert len(worker.blocks) == 0

    def test_add_worker_extends_cluster(self):
        cluster = VirtualCluster(num_workers=2)
        worker = cluster.add_worker()
        assert worker.worker_id == 2
        assert len(cluster.live_workers()) == 3

    @pytest.mark.parametrize("cores", [1, 3])
    def test_every_worker_lane_gets_a_slot_per_core(self, cores):
        cluster = VirtualCluster(num_workers=2, cores_per_worker=cores)
        joined = cluster.add_worker()
        assert joined.cores == cores
        other = cluster.add_worker(cores=cores + 1)
        clock = cluster.tracer.clock
        for worker in cluster.workers:
            starts = [
                clock.advance_lane(worker.worker_id, 1.0)[0]
                for __ in range(worker.cores + 1)
            ]
            assert starts == [0.0] * worker.cores + [1.0]
        assert other.cores == cores + 1

    def test_kill_callbacks_fire(self):
        cluster = VirtualCluster(num_workers=2)
        killed = []
        cluster.on_worker_killed(killed.append)
        cluster.kill_worker(1)
        assert killed == [1]


def _busy(cluster: VirtualCluster, *seconds: float) -> VirtualCluster:
    """Occupy worker ``i``'s lane for ``seconds[i]``."""
    for worker_id, busy in enumerate(seconds):
        cluster.tracer.clock.advance_lane(worker_id, busy)
    return cluster


def _placements(traced: bool) -> list[int]:
    """The worker of every task of a cached GROUP BY workload with
    appends, a join and a mid-query kill, in launch order."""
    from repro import SharkContext
    from repro.datatypes import INT, STRING, Schema

    shark = SharkContext(num_workers=4)
    if traced:
        shark.enable_tracing()
    schema = Schema.of(("k", INT), ("s", STRING))
    shark.create_table("t", schema, cached=True)
    shark.load_rows("t", [(i, f"s{i % 7}") for i in range(400)], 8)
    query = "SELECT s, COUNT(*) FROM t GROUP BY s"
    for start in range(400, 480, 20):
        shark.sql(query)
        shark.load_rows("t", [(i, "x") for i in range(start, start + 20)], 1)
    shark.sql("SELECT a.s, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.s")
    shark.inject_failure(
        worker_id=None,
        after_tasks=shark.engine.cluster.total_tasks_completed + 3,
    )
    shark.sql(query)
    return [
        task.worker_id
        for profile in shark.engine.profiles
        for stage in profile.stages
        for task in stage.tasks
    ]


class TestAssignment:
    def test_round_robin_over_live_workers(self):
        cluster = VirtualCluster(num_workers=3)
        assigned = [cluster.assign_worker().worker_id for __ in range(6)]
        assert sorted(set(assigned)) == [0, 1, 2]

    def test_prefers_locality(self):
        cluster = VirtualCluster(num_workers=4)
        worker = cluster.assign_worker(preferred=[2])
        assert worker.worker_id == 2

    def test_dead_preference_falls_back(self):
        cluster = VirtualCluster(num_workers=3)
        cluster.kill_worker(2)
        worker = cluster.assign_worker(preferred=[2])
        assert worker.worker_id != 2

    def test_invalid_preference_ignored(self):
        cluster = VirtualCluster(num_workers=2)
        worker = cluster.assign_worker(preferred=[99, -1])
        assert worker.worker_id in (0, 1)

    @pytest.mark.parametrize("holder", [1, 2])
    def test_holder_wins_when_no_lane_is_less_busy(self, holder):
        cluster = _busy(VirtualCluster(num_workers=4), 2.0, 1.0, 1.0, 3.0)
        assert cluster.assign_worker(preferred=[holder]).worker_id == holder

    def test_otherwise_the_least_busy_lane_wins_lowest_id_on_ties(self):
        cluster = _busy(VirtualCluster(num_workers=4), 3.0, 2.0, 1.0, 1.0)
        assert cluster.assign_worker(preferred=[0]).worker_id == 2
        assert cluster.assign_worker(preferred=[1]).worker_id == 2

    def test_a_traced_stage_floor_does_not_move_a_task(self):
        # A traced run starts a stage's tasks no earlier than the stage:
        # worker 0's lane is held back to 5.0, but it was busy for 1.0
        # only, as it would be untraced.  One core a worker, so the lane
        # time is that one slot's.
        cluster = _busy(
            VirtualCluster(num_workers=2, cores_per_worker=1), 0.0, 2.0
        )
        clock = cluster.tracer.clock
        clock.advance_lane(0, 1.0, not_before=4.0)
        assert (clock.lane_time(0), clock.busy_time(0)) == (5.0, 1.0)
        assert cluster.assign_worker(preferred=[1]).worker_id == 0

    def test_traced_and_untraced_runs_place_every_task_alike(self):
        placements = _placements(traced=False)
        assert len(set(placements)) == 4
        assert _placements(traced=True) == placements

    def test_ineligible_workers_never_win(self):
        cluster = _busy(VirtualCluster(num_workers=4), 5.0, 0.0, 1.0, 2.0)
        cluster.kill_worker(1)
        assert cluster.assign_worker(preferred=[0]).worker_id == 2
        assert (
            cluster.assign_worker(preferred=[0], exclude=[2]).worker_id == 3
        )
        cluster.blacklist_worker(2, probation_tasks=10)
        assert cluster.assign_worker(preferred=[0]).worker_id == 3

    @pytest.mark.parametrize("why", ["dead", "excluded", "blacklisted"])
    def test_an_ineligible_holder_falls_back_to_round_robin(self, why):
        # Worker 0's lane is the busiest: only round-robin picks it.
        cluster = _busy(VirtualCluster(num_workers=3), 9.0, 1.0, 0.0)
        exclude = []
        if why == "dead":
            cluster.kill_worker(2)
        elif why == "excluded":
            exclude = [2]
        else:
            cluster.blacklist_worker(2, probation_tasks=10)
        assigned = [
            cluster.assign_worker(preferred=[2], exclude=exclude).worker_id
            for _ in range(4)
        ]
        assert assigned == [0, 1, 0, 1]

    def test_no_preference_stays_round_robin(self):
        cluster = _busy(VirtualCluster(num_workers=3), 9.0, 1.0, 0.0)
        assigned = [cluster.assign_worker().worker_id for _ in range(6)]
        assert assigned == [0, 1, 2, 0, 1, 2]


class TestFailureInjection:
    def test_fires_after_threshold(self):
        cluster = VirtualCluster(num_workers=3)
        cluster.inject_failure(worker_id=1, after_tasks=2)
        worker = cluster.worker(0)
        cluster.task_completed(worker)
        assert cluster.worker(1).alive
        cluster.task_completed(worker)
        assert not cluster.worker(1).alive

    def test_fires_once(self):
        cluster = VirtualCluster(num_workers=3)
        injector = cluster.inject_failure(worker_id=1, after_tasks=1)
        cluster.task_completed(cluster.worker(0))
        assert injector.fired
        cluster.restart_worker(1)
        cluster.task_completed(cluster.worker(0))
        assert cluster.worker(1).alive

    def test_no_worker_id_kills_the_worker_completing_the_task(self):
        cluster = VirtualCluster(num_workers=3)
        cluster.inject_failure(worker_id=None, after_tasks=2)
        cluster.task_completed(cluster.worker(0))
        cluster.task_completed(cluster.worker(2))
        assert [w.alive for w in cluster.workers] == [True, True, False]

    def test_should_fire_logic(self):
        injector = FailureInjector(worker_id=0, after_tasks=5)
        assert not injector.should_fire(4)
        assert injector.should_fire(5)
        injector.fired = True
        assert not injector.should_fire(100)


class TestBlockLookup:
    def test_find_block_on_live_worker(self):
        cluster = VirtualCluster(num_workers=2)
        cluster.put_block(1, "blk", "payload")
        worker_id, value = cluster.find_block("blk")
        assert worker_id == 1
        assert value == "payload"

    def test_find_block_skips_dead(self):
        cluster = VirtualCluster(num_workers=2)
        cluster.put_block(1, "blk", "payload")
        cluster.kill_worker(1)
        assert cluster.find_block("blk") is None

    def test_total_cached_bytes(self):
        cluster = VirtualCluster(num_workers=2)
        cluster.put_block(0, "a", [1] * 100)
        cluster.put_block(1, "b", [2] * 100)
        assert cluster.total_cached_bytes > 0
