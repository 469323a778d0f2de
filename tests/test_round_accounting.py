"""Referee for the per-round closed form of the Section 7.1 measures.

:class:`MPNService` charges each protocol step with one
``SimulationMetrics.charge_round`` per ledger.  The reference here
replays the same protocol the slow way — one ``Message`` object through
``record_message`` per message of Fig. 3 — and both the session's and
the service's ledger must equal it on every integer counter after every
step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circle_msr import circle_msr
from repro.geometry.circle import Circle
from repro.scenarios.runner import COUNTER_FIELDS, counters
from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    StrategyResult,
    register_strategy,
    unregister_strategy,
)
import repro.service.service as service_module
from repro.service.strategies import get_strategy
from repro.simulation import (
    circle_policy,
    custom_policy,
    periodic_policy,
    run_simulation,
    tile_policy,
)
from repro.simulation.messages import (
    location_update,
    periodic_reply,
    periodic_report,
    probe_request,
)
from repro.simulation.metrics import SimulationMetrics, counter_fields
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD

# A notification carries 2 + values doubles, 67 per packet: these sit on
# both sides of the one/two/three-packet boundaries.
BOUNDARY_VALUES = (0, 64, 65, 66, 132, 500)


class StubValuesStrategy:
    """Circle-MSR regions shipped under made-up wire sizes.

    Batchable, so a batched service buckets it like a built-in."""

    periodic = False

    def __init__(self, values):
        self.values = values

    def compute(self, users, tree, headings=None, thetas=None):
        result = circle_msr(users, tree)
        return StrategyResult(
            po=result.po,
            regions=[Circle(u, result.radius) for u in users],
            region_values=[
                self.values[i % len(self.values)] for i in range(len(users))
            ],
            stats=result.stats,
        )

    def batch_key(self):
        return ("stub", tuple(self.values))

    def build_regions_batch(self, groups, tree, headings=None, thetas=None):
        return [self.compute(g, tree) for g in groups]


class RecordingStrategy:
    """Any batchable strategy, with every result it hands the service
    kept by its first region — the object a notification carries on —
    so the replay charges the work counters the strategy reported."""

    def __init__(self, inner, results: dict):
        self.inner = inner
        self.results = results

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _record(self, result):
        self.results[id(result.regions[0])] = result
        return result

    def compute(self, users, tree, headings=None, thetas=None):
        return self._record(self.inner.compute(users, tree, headings, thetas))

    def build_regions_batch(self, groups, tree, headings=None, thetas=None):
        results = self.inner.build_regions_batch(groups, tree, headings, thetas)
        return None if results is None else [self._record(r) for r in results]


class ReferenceLedger:
    """One session's ledger, replayed message by message."""

    def __init__(self, size: int, results: dict):
        self.size = size
        self.results = results
        self.metrics = SimulationMetrics()
        self.po = None

    def register(self) -> None:
        for _ in range(self.size):
            self.metrics.record_message(location_update())

    def escape(self) -> None:
        """Step 1 and the probe round of step 2."""
        self.metrics.record_message(location_update())
        for _ in range(self.size - 1):
            self.metrics.record_message(probe_request())
            self.metrics.record_message(location_update())

    def notified(self, notification) -> None:
        """The recomputation and step 3."""
        if self.po is not None and notification.po != self.po:
            self.metrics.result_changes += 1
        self.po = notification.po
        result = self.results.pop(id(notification.regions[0]))
        self.metrics.charge_update(0.0, result.stats)
        for message in notification.messages():
            self.metrics.record_message(message)
        self.metrics.region_values_sent += sum(notification.region_values)


class Fleet:
    """A service, its sessions and one reference ledger per session."""

    def __init__(self, policy, sizes, probe_mode, batched, rng, results):
        self.rng = rng
        self.probe_mode = probe_mode
        pois = uniform_pois(300, SMALL_WORLD, seed=8)
        self.service = MPNService(build_poi_tree(pois), batched=batched)
        self.refs: dict[int, ReferenceLedger] = {}
        for size in sizes:
            members = [SMALL_WORLD.sample(rng) for _ in range(size)]
            handle = self.service.open_session(members, policy)
            assert handle.notification.cause == "register"
            ref = self.refs[handle.session_id] = ReferenceLedger(size, results)
            ref.notified(handle.notification)
            ref.register()
            self.check()

    def _probes(self, size: int, trigger: int):
        """Fresh states for every other member (``supplied``), for a
        seeded subset of them (``partial``) or none at all."""
        if self.probe_mode == "neither":
            return None
        others = [i for i in range(size) if i != trigger]
        if self.probe_mode == "partial":
            others = sorted(
                self.rng.sample(others, self.rng.randrange(len(others) + 1))
            )
        return tuple(
            (i, MemberState(SMALL_WORLD.sample(self.rng))) for i in others
        )

    def check(self) -> None:
        total = SimulationMetrics()
        for sid, ref in self.refs.items():
            assert counters(self.service.session_metrics(sid)) == counters(
                ref.metrics
            )
            total.merge(ref.metrics)
        assert counters(self.service.metrics) == counters(total)

    def _answered(self, notifications, cause) -> None:
        for notification in notifications:
            assert notification.cause == cause
            self.refs[notification.session_id].notified(notification)
        self.check()

    def report(self, waved: bool) -> None:
        before = {
            sid: list(self.service.session(sid).members) for sid in self.refs
        }
        events = []
        for sid, ref in self.refs.items():
            trigger = self.rng.randrange(ref.size)
            events.append(
                ReportEvent(
                    sid,
                    trigger,
                    MemberState(SMALL_WORLD.sample(self.rng)),
                    self._probes(ref.size, trigger),
                )
            )
        if waved:
            answers = self.service.report_many(events)
        else:
            answers = [
                self.service.report(
                    e.session_id, e.member_id, e.state.point, probes=e.probes
                )
                for e in events
            ]
        for event, answer in zip(events, answers):
            # The reporter's state is stored either way; the probes only
            # when she escaped, and an unprobed member keeps her last one.
            expected = before[event.session_id]
            expected[event.member_id] = event.state
            if answer is not None:  # an in-region report is free
                self.refs[event.session_id].escape()
                for i, state in event.probes or ():
                    expected[i] = state
            assert self.service.session(event.session_id).members == expected
        self._answered([a for a in answers if a is not None], "report")

    def refresh(self, waved: bool) -> None:
        if waved:
            answers = self.service.recompute_many(list(self.refs))
        else:
            answers = [
                self.service.update_locations(
                    sid, [SMALL_WORLD.sample(self.rng) for _ in range(ref.size)]
                )
                for sid, ref in self.refs.items()
            ]
        assert len(answers) == len(self.refs)
        self._answered(answers, "refresh")

    def poi_update(self, waved: bool) -> None:
        sid = self.rng.choice(list(self.refs))
        session = self.service.session(sid)
        add, remove = session.members[0].point, session.po
        if waved:
            ops = [lambda: self.service.update_pois([(add, None)], [(remove, None)])]
        else:
            ops = [
                lambda: self.service.remove_poi(remove),
                lambda: self.service.add_poi(add),
            ]
        notified = set()
        for op in ops:
            answers = op()
            notified.update(n.session_id for n in answers)
            self._answered(answers, "poi_update")
        assert sid in notified  # its meeting point was removed


@st.composite
def fleets(draw):
    kind = draw(st.sampled_from(["circle", "tile", "stub"]))
    if kind == "circle":
        policy = circle_policy()
    elif kind == "tile":
        policy = tile_policy(
            alpha=draw(st.integers(1, 4)), split_level=draw(st.integers(0, 1))
        )
    else:
        policy = draw(
            st.lists(st.sampled_from(BOUNDARY_VALUES), min_size=1, max_size=4)
        )
    max_size = 4 if kind == "tile" else 8
    return (
        policy,
        draw(st.lists(st.integers(1, max_size), min_size=1, max_size=3)),
        draw(st.sampled_from(["supplied", "partial", "neither"])),
        draw(st.booleans()),
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["report", "refresh", "poi_update"]),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            )
        ),
        draw(st.integers(0, 2**16)),
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(fleets())
def test_round_accounting_equals_message_replay(drawn):
    policy, sizes, probe_mode, batched, steps, seed = drawn
    results: dict = {}
    try:
        if isinstance(policy, list):
            values = policy
            register_strategy(
                "stub-values", lambda _: StubValuesStrategy(values), replace=True
            )
            policy = custom_policy("stub", "stub-values")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                service_module,
                "get_strategy",
                lambda p: RecordingStrategy(get_strategy(p), results),
            )
            fleet = Fleet(policy, sizes, probe_mode, batched, random.Random(seed), results)
            for step, waved in steps:
                getattr(fleet, step)(waved)
    finally:
        unregister_strategy("stub-values")


def traffic(metrics) -> tuple[int, int, int, int]:
    return (
        metrics.messages_up,
        metrics.packets_up,
        metrics.messages_down,
        metrics.packets_down,
    )


@pytest.mark.parametrize("m", [1, 3])
def test_periodic_baseline_equals_message_replay(m):
    dataset = build_dataset(
        DatasetSpec(name="geolife", n_pois=200, n_trajectories=m, n_timestamps=20)
    )
    metrics = run_simulation(
        periodic_policy(), dataset.trajectories, dataset.tree, n_timestamps=20
    )
    reference = SimulationMetrics()
    for _ in range(20 * m):
        reference.record_message(periodic_report())
        reference.record_message(periodic_reply())
    assert traffic(metrics) == traffic(reference) == (20 * m,) * 4
    assert (metrics.update_events, metrics.region_values_sent) == (20, 0)


# ----------------------------------------------------------------------
# One field list
# ----------------------------------------------------------------------


def test_counter_fields_are_the_integer_annotations():
    assert COUNTER_FIELDS == counter_fields() == (
        "timestamps",
        "update_events",
        "result_changes",
        "messages_up",
        "messages_down",
        "packets_up",
        "packets_down",
        "index_node_accesses",
        "index_queries",
        "tile_verifications",
        "region_values_sent",
    )


def test_a_new_counter_is_merged_and_compared_without_being_listed():
    @dataclass
    class Extended(SimulationMetrics):
        handovers: int = 0
        radio_seconds: float = 0.0

    a = Extended(messages_up=1, handovers=2, radio_seconds=0.5)
    a.merge(Extended(messages_up=4, handovers=3, radio_seconds=0.25))
    assert (a.messages_up, a.handovers, a.radio_seconds) == (5, 5, 0.75)
    assert counter_fields(Extended) == COUNTER_FIELDS + ("handovers",)
    assert counter_fields(a) == counter_fields(Extended)
