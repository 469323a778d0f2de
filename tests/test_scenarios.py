"""Unit tests for the scenario engine: spec, compiler, recorder, runner.

Determinism and laziness are the compiler's contract — same spec, same
seed, byte-identical stream; trajectories exist only while their
session is open — and the spec layer must reject every combination the
serving stack cannot honor before anything runs.
"""

import dataclasses
from collections import Counter

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.converge import ConvergeParams, generate_converge_trajectory
from repro.scenarios import (
    CityGraphSpaceSpec,
    CohortSpec,
    EuclideanSpaceSpec,
    PoiChurnSpec,
    ScenarioRecorder,
    ScenarioSpec,
    compile_spec,
    get_preset,
    resolve_policy,
    run_scenario,
    stream_digest,
)
from repro.scenarios.presets import PRESETS
from repro.scenarios.recorder import quantiles_ms
from repro.service.service import MPNService

import random


def euclidean_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="unit",
        seed=11,
        ticks=10,
        space=EuclideanSpaceSpec(
            world=(0.0, 0.0, 1000.0, 1000.0), n_pois=40, poi_seed=5
        ),
        cohorts=(
            CohortSpec(
                name="walkers",
                kind="wanderer",
                sessions=6,
                group_size=2,
                first_tick=0,
                last_tick=5,
                lifetime=4,
                speed=25.0,
                policies=("circle",),
            ),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestConvergeMobility:
    def test_reaches_and_mills_around_the_venue(self):
        world = Rect(0, 0, 1000, 1000)
        venue = Point(500, 500)
        params = ConvergeParams(speed=40.0, mill_radius=30.0, mill_step=5.0)
        traj = generate_converge_trajectory(
            world, 60, venue, params, random.Random(3), start=Point(10, 10)
        )
        assert len(traj) == 60
        # Straight-line distance is ~693; at speed 40 the walker arrives
        # well before the end and then stays near the venue.
        tail = traj.points[-10:]
        for p in tail:
            assert p.dist(venue) <= params.mill_radius + 2 * params.mill_step
        for p in traj:
            assert world.x_lo <= p.x <= world.x_hi
            assert world.y_lo <= p.y <= world.y_hi

    def test_deterministic_for_a_seed(self):
        world = Rect(0, 0, 500, 500)
        a = generate_converge_trajectory(
            world, 30, Point(250, 250), ConvergeParams(), random.Random(9)
        )
        b = generate_converge_trajectory(
            world, 30, Point(250, 250), ConvergeParams(), random.Random(9)
        )
        assert a.points == b.points

    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError):
            generate_converge_trajectory(
                Rect(0, 0, 10, 10), 0, Point(5, 5), ConvergeParams(),
                random.Random(0),
            )


class TestSpecValidation:
    def test_valid_spec_round_trips(self):
        spec = euclidean_spec()
        assert spec.validate() is spec
        assert spec.total_sessions() == 6

    def test_rejects_commuters_off_the_road_network(self):
        cohort = dataclasses.replace(
            euclidean_spec().cohorts[0], kind="commuter"
        )
        with pytest.raises(ValueError, match="cannot run on a euclidean"):
            euclidean_spec(cohorts=(cohort,)).validate()

    def test_rejects_network_policy_on_the_plane(self):
        cohort = dataclasses.replace(
            euclidean_spec().cohorts[0], policies=("net_circle",)
        )
        with pytest.raises(ValueError, match="does not serve a euclidean"):
            euclidean_spec(cohorts=(cohort,)).validate()

    def test_rejects_euclidean_policy_on_the_network(self):
        spec = ScenarioSpec(
            name="bad",
            seed=1,
            ticks=5,
            space=CityGraphSpaceSpec(grid_size=6, n_pois=4),
            cohorts=(
                CohortSpec(
                    name="c", kind="commuter", sessions=2,
                    first_tick=0, last_tick=2, lifetime=2,
                    policies=("circle",),
                ),
            ),
        )
        with pytest.raises(ValueError, match="does not serve a network"):
            spec.validate()

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_policy("hexagon")

    def test_rejects_arrival_window_outside_horizon(self):
        cohort = dataclasses.replace(
            euclidean_spec().cohorts[0], first_tick=3, last_tick=12
        )
        with pytest.raises(ValueError, match="arrival window"):
            euclidean_spec(cohorts=(cohort,)).validate()

    def test_rejects_duplicate_cohort_names(self):
        cohort = euclidean_spec().cohorts[0]
        with pytest.raises(ValueError, match="duplicate cohort names"):
            euclidean_spec(cohorts=(cohort, cohort)).validate()

    def test_rejects_empty_scenarios(self):
        with pytest.raises(ValueError, match="at least one cohort"):
            euclidean_spec(cohorts=()).validate()
        with pytest.raises(ValueError, match="at least one tick"):
            euclidean_spec(ticks=0).validate()

    def test_rejects_degenerate_spaces(self):
        with pytest.raises(ValueError, match="degenerate world"):
            euclidean_spec(
                space=EuclideanSpaceSpec(world=(0.0, 0.0, 0.0, 5.0))
            ).validate()
        with pytest.raises(ValueError, match="at least one POI"):
            euclidean_spec(
                space=EuclideanSpaceSpec(n_pois=0)
            ).validate()

    def test_rejects_bad_churn_schedules(self):
        with pytest.raises(ValueError, match="period"):
            euclidean_spec(
                poi_churn=PoiChurnSpec(every=0, adds=1, removes=0)
            ).validate()
        with pytest.raises(ValueError, match="empty batches"):
            euclidean_spec(
                poi_churn=PoiChurnSpec(every=3, adds=0, removes=0)
            ).validate()

    def test_open_ticks_spread_uniformly(self):
        cohort = CohortSpec(
            name="c", kind="wanderer", sessions=5,
            first_tick=2, last_tick=10, lifetime=3, policies=("circle",),
        )
        ticks = [cohort.open_tick(k) for k in range(5)]
        assert ticks == [2, 4, 6, 8, 10]
        lone = dataclasses.replace(cohort, sessions=1)
        assert lone.open_tick(0) == 2

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("rush_hour_on_mars")

    def test_all_presets_validate(self):
        for name in PRESETS:
            spec = get_preset(name)
            assert spec.validate() is spec
        assert get_preset("metro_fleet").total_sessions() >= 100_000


class TestCompiler:
    def test_session_ids_are_sequential_in_open_order(self):
        compiled = compile_spec(euclidean_spec())
        seen = []
        for events in compiled.ticks():
            for ev in events.opens:
                seen.append(ev.session_id)
        assert seen == list(range(compiled.total_sessions))

    def test_stream_is_deterministic(self):
        assert stream_digest(euclidean_spec()) == stream_digest(
            euclidean_spec()
        )

    def test_seed_changes_the_stream(self):
        assert stream_digest(euclidean_spec()) != stream_digest(
            euclidean_spec(seed=12)
        )

    def test_moves_only_for_open_sessions(self):
        compiled = compile_spec(euclidean_spec())
        live = set()
        for events in compiled.ticks():
            for ev in events.opens:
                live.add(ev.session_id)
            for move in events.moves:
                assert move.session_id in live
                assert len(move.positions) == 2  # the cohort's group_size
            for sid in events.closes:
                # A closing session emits no move this tick.
                assert sid not in {m.session_id for m in events.moves}
                live.remove(sid)

    def test_sessions_close_lifetime_ticks_after_opening(self):
        compiled = compile_spec(euclidean_spec())
        opened_at, closed_at = {}, {}
        for events in compiled.ticks():
            for ev in events.opens:
                opened_at[ev.session_id] = events.tick
            for sid in events.closes:
                closed_at[sid] = events.tick
        for sid, tick in closed_at.items():
            assert tick == opened_at[sid] + 4  # the cohort's lifetime
        # Sessions whose lifetime crosses the horizon never close.
        never_closed = set(opened_at) - set(closed_at)
        for sid in never_closed:
            assert opened_at[sid] + 4 >= 10

    def test_population_is_materialized_lazily(self):
        # Arrival spread over most of the horizon with short lifetimes:
        # the peak live population must stay well under the total.
        cohort = CohortSpec(
            name="stream", kind="wanderer", sessions=40, group_size=2,
            first_tick=0, last_tick=16, lifetime=3, speed=20.0,
            policies=("circle",),
        )
        compiled = compile_spec(
            euclidean_spec(ticks=20, cohorts=(cohort,))
        )
        for _ in compiled.ticks():
            pass
        assert compiled.total_opened == 40
        assert compiled.peak_live < 20

    def test_churn_batches_follow_the_schedule(self):
        spec = euclidean_spec(
            ticks=13, poi_churn=PoiChurnSpec(every=4, adds=3, removes=2)
        )
        churn_ticks = [
            events.tick
            for events in compile_spec(spec).ticks()
            if events.churn is not None
        ]
        assert churn_ticks == [4, 8, 12]

    def test_churn_never_removes_an_absent_poi(self):
        spec = euclidean_spec(
            ticks=12,
            space=EuclideanSpaceSpec(
                world=(0.0, 0.0, 1000.0, 1000.0), n_pois=8, poi_seed=5
            ),
            poi_churn=PoiChurnSpec(every=2, adds=1, removes=3),
        )
        current = {repr(p) for p in spec.space.initial_pois()}
        for events in compile_spec(spec).ticks():
            if events.churn is None:
                continue
            adds, removes = events.churn
            for point, _ in removes:
                assert repr(point) in current
                current.remove(repr(point))
            for point, _ in adds:
                current.add(repr(point))
            # The floor: a batch never drains the space below 4 POIs.
            assert len(current) >= 4

    def test_network_churn_adds_only_non_poi_nodes(self):
        spec = ScenarioSpec(
            name="net_churn",
            seed=3,
            ticks=8,
            space=CityGraphSpaceSpec(grid_size=6, n_pois=6, poi_seed=23),
            cohorts=(
                CohortSpec(
                    name="c", kind="wanderer", sessions=2, group_size=2,
                    first_tick=0, last_tick=1, lifetime=4, speed=1.0,
                    policies=("net_circle",),
                ),
            ),
            poi_churn=PoiChurnSpec(every=3, adds=2, removes=1),
        )
        current = set(spec.space.initial_pois())
        for events in compile_spec(spec).ticks():
            if events.churn is None:
                continue
            adds, removes = events.churn
            for node, _ in adds:
                assert node not in current
                current.add(node)
            for node, _ in removes:
                current.remove(node)  # KeyError = removed an absent POI

    def test_commuter_groups_share_one_path(self):
        spec = ScenarioSpec(
            name="mini",
            seed=5,
            ticks=6,
            space=CityGraphSpaceSpec(grid_size=6, n_pois=5, poi_seed=23),
            cohorts=(
                CohortSpec(
                    name="c", kind="commuter", sessions=2, group_size=3,
                    first_tick=0, last_tick=1, lifetime=4, speed=1.0,
                    policies=("net_circle",),
                ),
            ),
        )
        compiled = compile_spec(spec)
        streams = list(compiled.ticks())
        # Member m trails member 0 by m ticks along the same walk.
        open0 = streams[0].opens[0]
        moves = {
            ev.tick: {m.session_id: m.positions for m in ev.moves}
            for ev in streams
        }
        sid = open0.session_id
        assert moves[2][sid][1] == moves[1][sid][0]
        assert moves[3][sid][2] == moves[1][sid][0]


def network_churn_spec() -> ScenarioSpec:
    """``euclidean_spec``'s road-network twin: every network cohort kind
    under churn.  Seed 11 puts crowd session 3's origin on the venue, so
    the "step to the next node" branch of the materializer is covered."""
    def cohort(name, kind, sessions, group_size, first, last):
        return CohortSpec(
            name=name, kind=kind, sessions=sessions, group_size=group_size,
            first_tick=first, last_tick=last, lifetime=4, speed=1.0,
            policies=("net_circle",),
        )

    return ScenarioSpec(
        name="unit_net",
        seed=11,
        ticks=13,
        space=CityGraphSpaceSpec(grid_size=6, n_pois=8, poi_seed=23),
        cohorts=(
            cohort("walkers", "wanderer", 3, 2, 0, 4),
            cohort("commuters", "commuter", 3, 2, 0, 5),
            cohort("crowd", "event_crowd", 4, 3, 1, 6),
        ),
        poi_churn=PoiChurnSpec(every=2, adds=3, removes=2),
    )


class TestGoldenStreamDigests:
    """The stream itself, pinned — not just "two compiles agree".

    Recorded at commit 20175f3 (CPython 3.11), before the churn planner
    and the node-list handling were rewritten: a compiler change that
    alters any position, id, ordering or churn batch fails here.
    """

    def test_smoke_preset(self):
        assert stream_digest(get_preset("smoke")) == (
            "f1e619fa0d2d07a96588173c08147b7890a70245348269a5a2abb419de6e4f6c"
        )

    def test_commuter_rush_prefix_covers_network_churn(self):
        spec = get_preset("commuter_rush")
        assert spec.poi_churn.every * 2 < 25  # two network batches inside
        assert stream_digest(spec, max_ticks=25) == (
            "733242fc9b9ceda04921a012162007a4ea17ef9f01b852afa28a53e0673df584"
        )

    def test_euclidean_churn(self):
        spec = euclidean_spec(
            ticks=13, poi_churn=PoiChurnSpec(every=2, adds=3, removes=2)
        )
        assert stream_digest(spec) == (
            "fe2eae7eb8daa8d0789002b7366f63784da75f537b7d90f08a23a1a938540429"
        )

    def test_network_churn(self):
        assert stream_digest(network_churn_spec()) == (
            "ceaafb2fd0fb09929c4743d9cee360b9ad9aa77dc3429b3026fa909ee7a68947"
        )


class TestChurnPlanner:
    """The churn planner samples positions, not POIs: a removal batch is
    ``rng.sample(range(len(current)), k)``, which neither copies nor
    hashes the POI list, and the stream stays the one pinned above."""

    @pytest.mark.parametrize("n", [*range(1, 22), 4000])
    def test_index_sampling_matches_population_sampling(self, n):
        # CPython's sample reads only len() and __getitem__ of the
        # population, and its draws depend on (n, k) alone: sampling the
        # positions picks the same items and leaves the same RNG state.
        # A Python whose sample breaks this fails here, not in a digest.
        pop = [Point(float(i), float(-i)) for i in range(n)]
        for k in sorted({0, 1, n // 2, n - 1, n, min(n, 60)}):
            by_item, by_index = random.Random(n * 97 + k), random.Random(n * 97 + k)
            items = by_item.sample(pop, k)
            picks = by_index.sample(range(n), k)
            assert [pop[j] for j in picks] == items
            assert by_index.getstate() == by_item.getstate()

    @staticmethod
    def _live_keys(service) -> list:
        index = service.space.index
        return index.poi_nodes() if hasattr(index, "poi_nodes") else index.points()

    @pytest.mark.parametrize(
        "spec",
        [
            euclidean_spec(
                ticks=13, poi_churn=PoiChurnSpec(every=1, adds=3, removes=5)
            ),
            network_churn_spec(),
        ],
        ids=["euclidean", "network"],
    )
    def test_poi_list_tracks_the_served_index(self, spec, monkeypatch):
        from repro.scenarios.compiler import CompiledScenario

        lists = []
        real = CompiledScenario._churn_batch

        def recording(self, rng, current):
            lists.append(current)
            return real(self, rng, current)

        monkeypatch.setattr(CompiledScenario, "_churn_batch", recording)
        service = MPNService(spec.space())
        batches = 0
        for events in compile_spec(spec).ticks():
            if events.churn is None:
                continue
            adds, removes = events.churn
            service.update_pois(adds, removes)
            batches += 1
            assert Counter(lists[-1]) == Counter(self._live_keys(service))
        assert batches >= 6 and all(current is lists[0] for current in lists)

    def test_one_removal_drops_one_copy_of_a_repeated_poi(self):
        # Every slot is one of two points, so each sampled removal hits a
        # repeated key; it takes that one slot, as the server's delta
        # layer takes one entry per removal.
        spec = euclidean_spec(poi_churn=PoiChurnSpec(every=1, adds=2, removes=3))
        compiled = compile_spec(spec)
        a, b = Point(1.0, 1.0), Point(2.0, 2.0)
        for seed in range(20):
            current = [a, b] * 5
            before = Counter(current)
            adds, removes = compiled._churn_batch(random.Random(seed), current)
            assert len(removes) == 3 and len(adds) == 2
            assert len(current) == 10 - 3 + 2
            assert Counter(current) == (
                before
                - Counter(p for p, _ in removes)
                + Counter(p for p, _ in adds)
            )


def test_network_ticks_build_one_planning_graph(monkeypatch):
    """The initial POI sample reuses the planning graph (churn on)."""
    import repro.workloads.citygraph as citygraph

    real = citygraph.city_network_space
    built = []

    def counting(**kwargs):
        built.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(citygraph, "city_network_space", counting)
    for _ in compile_spec(network_churn_spec()).ticks():
        pass
    assert len(built) == 1


def test_network_ticks_plan_on_their_own_oracle(monkeypatch):
    """Path planning builds one oracle, on the planning graph, and never
    reads or moves the served space's (the bench's ``index.oracle.*``
    metrics count served work only)."""
    import repro.index.oracle as oracle_mod

    spec = network_churn_spec()
    served = spec.space()
    served_oracle = served.index.oracle
    served.distance(*sorted(served.graph.nodes)[:2])
    before = served_oracle.stats()

    built = []

    class Counting(oracle_mod.DistanceOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(oracle_mod, "DistanceOracle", Counting)
    compiled = compile_spec(spec)
    for _ in compiled.ticks():
        pass
    assert len(built) == 1
    assert built[0] is compiled._planning_space()._distance_oracle
    assert built[0] is not served_oracle
    assert served_oracle.stats() == before


class TestRecorder:
    def test_quantile_edges(self):
        assert quantiles_ms([]) == (0.0, 0.0)
        assert quantiles_ms([0.002]) == (2.0, 2.0)
        p50, p99 = quantiles_ms([0.001] * 99 + [0.1])
        assert p50 == pytest.approx(1.0)
        assert p99 > p50

    def test_summary_rolls_up_the_run(self):
        spec = euclidean_spec()
        backend = MPNService(spec.space())
        recorder = ScenarioRecorder(backend)
        result = run_scenario(spec, backend, recorder=recorder)
        summary = result.summary
        assert summary["ticks"] == spec.ticks
        assert summary["dispatch_calls"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0.0
        assert len(summary["per_tick"]) == spec.ticks
        assert summary["peak_live"] == result.peak_live
        opens = sum(row["opens"] for row in summary["per_tick"])
        assert opens == result.total_opened == 6
        dist = summary["notifications_per_tick"]
        assert dist["min"] <= dist["p50"] <= dist["p99"] <= dist["max"]

    def test_single_service_backend_yields_shard_loads(self):
        spec = euclidean_spec()
        backend = MPNService(spec.space())
        recorder = ScenarioRecorder(backend)
        run_scenario(spec, backend, recorder=recorder)
        assert len(recorder.shard_load_series) == spec.ticks
        assert recorder.summary()["final_shard_scores"] is not None
        # Per-tick deltas must sum to the backend's lifetime totals.
        total_score = sum(
            sum(scores.values()) for scores in recorder.shard_load_series
        )
        assert total_score == (
            backend.metrics.messages_total + backend.metrics.update_events
        )

    def test_cluster_backend_uses_its_own_shard_loads(self):
        from repro.cluster.cluster import MPNCluster

        spec = euclidean_spec()
        backend = MPNCluster(3, spec.space)
        recorder = ScenarioRecorder(backend)
        run_scenario(spec, backend, recorder=recorder)
        scores = recorder.summary()["final_shard_scores"]
        assert set(scores) == {0, 1, 2}

    def test_end_tick_requires_begin_tick(self):
        with pytest.raises(RuntimeError, match="begin_tick"):
            ScenarioRecorder().end_tick()


class TestRunner:
    def test_stale_backend_is_rejected(self):
        from repro.service.messages import MemberState

        spec = euclidean_spec()
        backend = MPNService(spec.space())
        backend.open_session(
            [MemberState(Point(5, 5))], resolve_policy("circle")
        )
        with pytest.raises(RuntimeError, match="not fresh"):
            run_scenario(spec, backend)

    def test_spot_check_cap_bounds_the_sample(self):
        spec = euclidean_spec()
        backend = MPNService(spec.space())
        result = run_scenario(
            spec, backend, spot_check_fraction=1.0, spot_check_cap=2
        )
        assert result.spot_check.sampled_sessions == 2
        assert result.spot_check.clean

    def test_spot_check_disabled_by_default(self):
        spec = euclidean_spec()
        result = run_scenario(spec, MPNService(spec.space()))
        assert result.spot_check is None

    def test_notification_log_is_opt_in(self):
        spec = euclidean_spec()
        assert (
            run_scenario(spec, MPNService(spec.space())).notification_log
            is None
        )
        logged = run_scenario(
            spec, MPNService(spec.space()), collect_notifications=True
        )
        assert logged.notification_log
        assert logged.total_notifications + logged.total_churn_notifications \
            == len(logged.notification_log)


class TestCli:
    @pytest.fixture()
    def tiny_preset(self, monkeypatch):
        spec = euclidean_spec(name="tiny")
        monkeypatch.setitem(PRESETS, "tiny", lambda: spec)
        return spec

    def test_table_output(self, tiny_preset, capsys):
        from repro.scenarios.__main__ import main

        code = main(
            ["--preset", "tiny", "--backend", "service", "--spot-check", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "6 sessions over 10 ticks" in out
        assert "spot-check" in out and "clean" in out

    def test_json_output(self, tiny_preset, capsys):
        import json

        from repro.scenarios.__main__ import main

        code = main(
            ["--preset", "tiny", "--backend", "cluster", "--shards", "2",
             "--json", "--spot-check", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_opened"] == 6
        assert payload["spot_check"]["clean"] is True
        assert payload["summary"]["ticks"] == 10
