"""SLO control-plane invariants: property tests over random scenarios.

The suite drives the EDF/FIFO control plane with randomly generated
tagged traffic and asserts what any correct deadline scheduler obeys:
per-class request conservation and Little's law, EDD optimality in the
single-chip batch-1 regime (where Jackson's rule makes EDF provably
best for maximum lateness), bounded priority inversion (a dispatched
request never overtakes a more urgent one that was already queued), and
wake causality (no batch runs on a chip while it is parked or still
ramping).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    Autoscaler,
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    NO_BATCHING,
    PoissonArrivals,
    Request,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
)

scenarios = st.fixed_dictionaries(
    {
        "num_requests": st.integers(min_value=1, max_value=120),
        "rate_rps": st.floats(min_value=10.0, max_value=5000.0),
        "service_s": st.floats(min_value=1e-5, max_value=5e-3),
        "num_chips": st.integers(min_value=1, max_value=5),
        "max_batch": st.integers(min_value=1, max_value=8),
        "max_wait_s": st.sampled_from([0.0, 1e-4, 2e-3]),
        "tight_deadline_s": st.floats(min_value=1e-3, max_value=0.05),
        "interactive_share": st.floats(min_value=0.1, max_value=0.9),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def tagged_requests(params):
    policy = SLOPolicy(
        (
            SLOClass("interactive", deadline_s=params["tight_deadline_s"]),
            SLOClass("batch", deadline_s=10.0 * params["tight_deadline_s"]),
        )
    )
    requests = PoissonArrivals(
        params["rate_rps"], seq_len=128, seed=params["seed"]
    ).generate(params["num_requests"])
    share = params["interactive_share"]
    return policy.tag_random(requests, weights=(share, 1.0 - share), seed=7)


def simulate_edf(params):
    requests = tagged_requests(params)
    fleet = ChipFleet(
        FixedServiceModel(params["service_s"], request_energy_j=1e-6),
        num_chips=params["num_chips"],
    )
    batcher = DynamicBatcher.edf(
        max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]
    )
    return requests, ServingSimulator(fleet, batcher).run(requests)


class TestSLOProperties:
    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_per_class_conservation(self, params):
        """Every class's requests enter once and complete once, tags intact."""
        requests, report = simulate_edf(params)
        assert report.num_requests == len(requests)
        sent = {r.index: r for r in requests}
        for record in report.requests:
            assert record.slo_class == sent[record.index].slo_class
            assert record.deadline_s == sent[record.index].deadline_s
        for slo_class in report.slo_classes:
            expected = sum(1 for r in requests if r.slo_class == slo_class)
            assert report.num_in_class(int(slo_class)) == expected

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_per_class_littles_law(self, params):
        """L = lambda * W holds per class over the observation window."""
        requests, report = simulate_edf(params)
        if len(requests) < 30:
            return  # too short for a steady-state argument
        span = report.makespan_s
        for slo_class in report.slo_classes:
            slo_class = int(slo_class)
            mask = report.requests.slo_class == slo_class
            count = int(mask.sum())
            if count < 10:
                continue
            residence = (
                report.requests.completion_s[mask]
                - report.requests.arrival_s[mask]
            ).sum()
            time_average = residence / span
            implied = (count / span) * (residence / count)
            assert time_average == pytest.approx(implied, rel=1e-9)

    @given(scenarios)
    @settings(max_examples=60, deadline=None)
    def test_no_priority_inversion_beyond_batch_boundaries(self, params):
        """If b dispatched strictly before a while a was queued, b was at
        least as urgent (EDF key order) — starvation is bounded by the
        batch the scheduler was already committed to."""
        _, report = simulate_edf(params)
        records = sorted(report.requests, key=lambda r: r.dispatch_s)
        for a in records:
            key_a = (a.arrival_s + a.deadline_s, a.index)
            for b in records:
                if b.dispatch_s >= a.dispatch_s:
                    break
                if b.arrival_s <= a.arrival_s and b.dispatch_s > a.arrival_s:
                    key_b = (b.arrival_s + b.deadline_s, b.index)
                    assert key_b <= key_a

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_edf_minimizes_max_lateness_single_chip(self, count, seed):
        """Jackson's rule: single chip, batch 1, simultaneous release —
        EDF's maximum lateness is minimal, so FIFO can never beat it."""
        rng = np.random.default_rng(seed)
        deadlines = rng.uniform(1e-3, 0.05, size=count)
        service = 2e-3
        policy = SLOPolicy(
            tuple(SLOClass(f"c{i}", deadline_s=float(d)) for i, d in enumerate(deadlines))
        )
        # all requests arrive (essentially) together: a tiny stagger keeps
        # arrival order deterministic without giving FIFO extra information
        base = PoissonArrivals(1e6, seq_len=128, seed=seed).generate(count)
        tagged = [policy.tag(r, i) for i, r in enumerate(base)]
        model = FixedServiceModel(service)

        def max_lateness(batcher):
            report = ServingSimulator(
                ChipFleet(model, num_chips=1), batcher
            ).run(tagged)
            lateness = (
                report.requests.completion_s
                - report.requests.arrival_s
                - report.requests.deadline_s
            )
            return float(lateness.max())

        edf = max_lateness(DynamicBatcher.edf(max_batch_size=1, max_wait_s=0.0))
        fifo = max_lateness(DynamicBatcher(max_batch_size=1, max_wait_s=0.0))
        assert edf <= fifo + 1e-12

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_wake_causality(self, initial_chips, seed):
        """No batch dispatches on a chip between park decision and wake
        ready: parked chips are out of the pool until the ramp finishes."""
        requests = PoissonArrivals(2500.0, seq_len=128, seed=seed).generate(2000)
        model = FixedServiceModel(
            1e-3, sleep_entry_latency_s=1e-3, wake_latency_s=5e-3
        )
        scaler = Autoscaler(
            interval_s=0.02, scale_up_queue_depth=32, initial_chips=initial_chips
        )
        report = ServingSimulator(
            ChipFleet(model, num_chips=6),
            DynamicBatcher(max_batch_size=4, max_wait_s=1e-3),
            autoscaler=scaler,
        ).run(requests)
        # reconstruct each chip's offline windows: park decision -> wake
        # ready; chips beyond initial_chips start parked at time zero
        offline_since: dict[int, float] = {
            chip: 0.0 for chip in range(initial_chips, 6)
        }
        windows: list[tuple[int, float, float]] = []
        for event in report.scale_events:
            if event.action == "sleep":
                offline_since[event.chip] = event.time_s
            else:
                windows.append(
                    (event.chip, offline_since.pop(event.chip), event.ready_s)
                )
        closing = report.batches.completion_s.max() if len(report.batches) else 0.0
        windows.extend(
            (chip, start, closing + 1.0) for chip, start in offline_since.items()
        )
        for batch in report.batches:
            for chip, start, ready in windows:
                if batch.chip == chip:
                    assert not (start <= batch.dispatch_s < ready)

    @given(scenarios)
    @settings(max_examples=40, deadline=None)
    def test_fifo_and_edf_agree_on_untagged_traffic(self, params):
        """With one class everyone shares a relative deadline, so the EDF
        key is arrival order: both policies produce identical schedules."""
        requests = PoissonArrivals(
            params["rate_rps"], seq_len=128, seed=params["seed"]
        ).generate(params["num_requests"])
        fleet_args = dict(num_chips=params["num_chips"])
        model = FixedServiceModel(params["service_s"])
        fifo_report = ServingSimulator(
            ChipFleet(model, **fleet_args),
            DynamicBatcher(
                max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]
            ),
        ).run(requests)
        edf_report = ServingSimulator(
            ChipFleet(model, **fleet_args),
            DynamicBatcher.edf(
                max_batch_size=params["max_batch"], max_wait_s=params["max_wait_s"]
            ),
        ).run(requests)
        np.testing.assert_array_equal(
            fifo_report.requests.index, edf_report.requests.index
        )
        np.testing.assert_allclose(
            fifo_report.requests.dispatch_s, edf_report.requests.dispatch_s
        )
        np.testing.assert_allclose(
            fifo_report.requests.completion_s, edf_report.requests.completion_s
        )


#: Streams the taggers must handle: empty, arbitrary indices, already tagged.
request_streams = st.lists(
    st.builds(
        Request,
        index=st.integers(min_value=0, max_value=10**9),
        arrival_s=st.floats(min_value=0.0, max_value=1e6),
        seq_len=st.integers(min_value=1, max_value=2048),
        slo_class=st.integers(min_value=0, max_value=7),
        deadline_s=st.floats(min_value=1e-6, max_value=1e3) | st.just(float("inf")),
    ),
    max_size=40,
)
policies = st.lists(
    st.floats(min_value=1e-4, max_value=10.0) | st.just(float("inf")), min_size=1, max_size=4
).map(lambda deadlines: SLOPolicy(
    tuple(SLOClass(f"c{i}", deadline_s=d) for i, d in enumerate(deadlines))
))


class TestTaggersMatchPerRequestTagging:
    """The array-pass taggers equal tagging each request with ``tag``."""

    @given(
        requests=request_streams,
        policy=policies,
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tag_random(self, requests, policy, data, seed):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=policy.num_classes,
                max_size=policy.num_classes,
            ).filter(lambda w: sum(w) > 0),
            label="weights",
        )
        tagged = policy.tag_random(requests, weights, seed=seed)
        p = np.asarray(weights) / np.sum(weights)
        drawn = np.random.default_rng(seed).choice(policy.num_classes, size=len(requests), p=p)
        assert tagged == [policy.tag(r, int(c)) for r, c in zip(requests, drawn)]
        assert all(type(r.slo_class) is int for r in tagged)

    @given(requests=request_streams, policy=policies, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tag_by_length(self, requests, policy, data):
        boundaries = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=2048),
                    min_size=policy.num_classes - 1,
                    max_size=policy.num_classes - 1,
                ),
                label="boundaries",
            )
        )

        def slo_class(request):
            for i, bound in enumerate(boundaries):
                if request.seq_len <= bound:
                    return i
            return policy.num_classes - 1

        tagged = policy.tag_by_length(requests, boundaries)
        assert tagged == [policy.tag(r, slo_class(r)) for r in requests]
        assert all(type(r.slo_class) is int for r in tagged)
