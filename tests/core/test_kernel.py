"""The shedding kernel (repro.core.kernel) against the executable spec.

The kernel is the only place eSPICE's decision rule is computed.  Its
contract: for any model, drop command, window size and (type, position)
batch, the drop mask, the decision counters and ``explain``'s
utility / partition / threshold equal the naive spec in
``espice_spec.py`` -- on both the numpy and the pure-stdlib fallback
backend, across a mid-batch ``rebind_model`` and after a persistence
round trip.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import espice_spec
from repro.cep.events import Event
from repro.core import kernel as kernel_module
from repro.core import scaling
from repro.core.kernel import HAVE_NUMPY, SheddingKernel, default_backend
from repro.core.model import UtilityModel
from repro.core.persistence import model_from_dict, model_to_dict
from repro.core.position_shares import PositionShares
from repro.core.shedder import ESpiceShedder
from repro.core.utility_table import UtilityTable
from repro.shedding.base import DropCommand

BACKENDS = ["fallback"] + (["numpy"] if HAVE_NUMPY else [])
UNKNOWN_TYPES = ["U0", "U1"]


def make_model(types=6, positions=40, bin_size=2, seed=0):
    rng = random.Random(seed)
    bins = math.ceil(positions / bin_size)
    matrix = [[rng.randint(0, 100) for _ in range(bins)] for _ in range(types)]
    names = [f"T{i}" for i in range(types)]
    table = UtilityTable.from_matrix(matrix, names, bin_size=bin_size)
    shares = PositionShares.uniform(table.type_ids, table.reference_size, bin_size)
    return UtilityModel(
        table=table,
        shares=shares,
        reference_size=table.reference_size,
        bin_size=bin_size,
    )


def armed(model, backend, partitions=3, x_fraction=0.3):
    psize = model.reference_size / partitions
    return armed_with(
        model,
        backend,
        DropCommand(
            x=x_fraction * psize, partition_count=partitions, partition_size=psize
        ),
    )


def armed_with(model, backend, command):
    shedder = ESpiceShedder(model, kernel_backend=backend)
    shedder.on_drop_command(command)
    shedder.activate()
    return shedder


def batch_for(model, rng, size=64, window_size=40.0):
    names = [f"T{i}" for i in range(model.table.type_count + 2)]  # + unknown types
    events = [Event(rng.choice(names), i, 0.0) for i in range(size)]
    top = int(max(window_size, model.reference_size) * 2) + 3
    positions = [rng.randint(0, top) for _ in range(size)]
    return events, positions


def assert_decides_like_spec(shedder, expected, events, positions, ws):
    """Mask, counters and every pair's explanation equal the spec."""
    decisions, drops = shedder.decisions, shedder.drops
    mask = shedder.should_drop_batch(events, positions, ws)
    assert mask == [d.drop for d in expected]
    assert shedder.decisions - decisions == len(expected)
    assert shedder.drops - drops == sum(d.drop for d in expected)
    for event, position, d in zip(events, positions, expected):
        why = shedder.explain(event, position, ws)
        assert (why["utility"], why["partition"], why["threshold"]) == (
            d.utility,
            d.partition,
            d.threshold,
        ), (event.event_type, position)


# ----------------------------------------------------------------------
# hypothesis strategies: models, commands, window sizes, batches
# ----------------------------------------------------------------------
@st.composite
def models(draw):
    """Random models, including ``N % bin_size != 0`` (a partial last
    bin) and learned, non-uniform position shares."""
    n = draw(st.integers(min_value=1, max_value=40))
    bin_size = draw(st.integers(min_value=1, max_value=6))
    names = [f"T{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bins = -(-n // bin_size)
    # a few repeated values make utility == threshold ties likely
    matrix = [
        [rng.choice([0, 0, 1, 50, 100, rng.randint(0, 100)]) for _ in range(bins)]
        for _ in names
    ]
    table = UtilityTable.from_matrix(
        matrix, names, bin_size=bin_size, reference_size=n
    )
    shares = PositionShares(table.type_ids, n, bin_size)
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(0, 2 * n)
        shares.observe_window(
            [(rng.choice(names), rng.randrange(n)) for _ in range(size)]
        )
    return UtilityModel(
        table=table, shares=shares, reference_size=n, bin_size=bin_size
    )


@st.composite
def commands(draw, n):
    """ρ from 1 to 5, ``psize`` explicit or derived, ``x`` from 0 to
    beyond everything a partition holds."""
    count = draw(st.integers(min_value=1, max_value=5))
    psize = draw(st.sampled_from([0.0, n / count]))
    x = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.3 * n + 1)))
    return DropCommand(x=x, partition_count=count, partition_size=psize)


@st.composite
def window_sizes(draw, n):
    """A predicted size in each regime: unknown (0), scale up
    (``< N - 1``), near identity (``N ± 1``) and scale down
    (``> N + 1``)."""
    regime = draw(st.sampled_from(["unknown", "up", "near", "down"]))
    if regime == "unknown":
        return 0.0
    if regime == "up" and n - 1 > 0.25:
        return draw(st.floats(min_value=0.25, max_value=n - 1, exclude_max=True))
    if regime == "down":
        return draw(st.floats(min_value=n + 1, max_value=4 * n + 5, exclude_min=True))
    return draw(st.floats(min_value=max(n - 1, 0.25), max_value=n + 1))


@st.composite
def batches(draw, model, ws):
    """(events, positions): unknown types and positions past the window
    included; the size is drawn first, so batches below and above the
    numpy backend's cut-over (``NUMPY_MIN_BATCH``) are both common."""
    names = list(model.table.type_ids) + UNKNOWN_TYPES
    size = draw(st.integers(min_value=1, max_value=3 * kernel_module.NUMPY_MIN_BATCH))
    types = draw(st.lists(st.sampled_from(names), min_size=size, max_size=size))
    top = int(max(ws, model.reference_size) * 2) + 3
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=top), min_size=size, max_size=size
        )
    )
    return [Event(t, i, 0.0) for i, t in enumerate(types)], positions


@st.composite
def scenarios(draw):
    model = draw(models())
    command = draw(commands(model.reference_size))
    ws = draw(window_sizes(model.reference_size))
    events, positions = draw(batches(model, ws))
    return model, command, ws, events, positions


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelEqualsSpec:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_masks_counters_and_explain_equal_spec(self, backend, scenario):
        model, command, ws, events, positions = scenario
        shedder = armed_with(model, backend, command)
        expected = espice_spec.decisions(model, command, events, positions, ws)
        assert shedder.thresholds == espice_spec.thresholds(model, command)
        assert_decides_like_spec(shedder, expected, events, positions, ws)

    @given(scenarios(), models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rebind_mid_batch_equals_spec(self, backend, scenario, new_model, data):
        """A hot swap between two halves of a batch: each half is
        decided exactly as the spec of the model in force."""
        old_model, command, ws, events, positions = scenario
        cut = data.draw(st.integers(min_value=0, max_value=len(events)))
        shedder = armed_with(old_model, backend, command)
        head = (events[:cut], positions[:cut])
        tail = (events[cut:], positions[cut:])
        assert_decides_like_spec(
            shedder, espice_spec.decisions(old_model, command, *head, ws), *head, ws
        )
        shedder.rebind_model(new_model)
        assert_decides_like_spec(
            shedder, espice_spec.decisions(new_model, command, *tail, ws), *tail, ws
        )

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_persisted_model_equals_spec_of_the_original(self, backend, scenario):
        """A model that went through JSON decides like the spec of the
        model it was saved from."""
        model, command, ws, events, positions = scenario
        restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert restored.fingerprint() == model.fingerprint()
        shedder = armed_with(restored, backend, command)
        expected = espice_spec.decisions(model, command, events, positions, ws)
        assert_decides_like_spec(shedder, expected, events, positions, ws)

    def test_empty_batch(self, backend):
        model = make_model()
        shedder = armed(model, backend)
        assert shedder.kernel().decide([], [], 40.0) == []
        assert shedder.should_drop_batch([], [], 40.0) == []

    def test_no_thresholds_drops_nothing(self, backend):
        model = make_model()
        shedder = ESpiceShedder(model, kernel_backend=backend)
        shedder.activate()
        events = [Event("T0", i, 0.0) for i in range(4)]
        assert shedder.should_drop_batch(events, [0, 1, 2, 3], 40.0) == [False] * 4
        # an active shedder counts every pair, command or not
        assert shedder.decisions == 4
        assert shedder.drops == 0

    def test_inactive_shedder_decides_nothing(self, backend):
        model = make_model()
        shedder = ESpiceShedder(model, kernel_backend=backend)
        psize = model.reference_size / 2
        shedder.on_drop_command(
            DropCommand(x=psize, partition_count=2, partition_size=psize)
        )
        events = [Event("T0", i, 0.0) for i in range(3)]
        assert shedder.should_drop_batch(events, [0, 1, 2], 40.0) == [False] * 3
        assert shedder.decisions == 0


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_drift_lookup_equals_spec(scenario):
    """``UtilityTable.utility`` (the drift detector's lookup, which
    scales even inside ``N ± 1``) equals its spec."""
    model, _command, ws, events, positions = scenario
    for event, position in zip(events, positions):
        assert model.table.utility(
            event.event_type, position, ws
        ) == espice_spec.table_utility(model, event.event_type, position, ws)


class TestBackendSelection:
    def test_default_backend_auto_detects(self):
        assert default_backend() == ("numpy" if HAVE_NUMPY else "fallback")

    def test_env_var_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(kernel_module.BACKEND_ENV, "fallback")
        assert default_backend() == "fallback"
        model = make_model()
        assert ESpiceShedder(model).kernel().backend == "fallback"

    def test_unknown_backend_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            SheddingKernel(
                rows=model.table.as_matrix(),
                type_ids=model.table.type_ids,
                reference=model.reference_size,
                bin_size=model.bin_size,
                backend="cuda",
            )


class TestKernelLifecycle:
    """The satellite fix: flattened arrays must track model hot swaps."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drop_command_swaps_thresholds_in_place(self, backend):
        model = make_model(seed=8)
        shedder = armed(model, backend, partitions=2, x_fraction=0.1)
        kernel_before = shedder.kernel()
        psize = model.reference_size / 2
        shedder.on_drop_command(
            DropCommand(x=0.9 * psize, partition_count=2, partition_size=psize)
        )
        # same kernel object (rows unchanged), new thresholds installed
        assert shedder.kernel() is kernel_before
        assert shedder.kernel().thresholds == shedder.thresholds

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rebind_model_invalidates_flattened_rows(self, backend):
        """Regression: a hot model swap mid-batch must rebuild the
        kernel, or decisions keep resolving against the old model's
        flattened utilities."""
        rng = random.Random(21)
        old_model = make_model(seed=31, positions=40, bin_size=2)
        new_model = make_model(seed=32, positions=40, bin_size=2)
        shedder = armed(old_model, backend)
        events, positions = batch_for(old_model, rng)
        ws = float(old_model.reference_size)

        command = shedder._command
        before = shedder.should_drop_batch(events, positions, ws)
        assert before == espice_spec.drop_mask(
            old_model, command, events, positions, ws
        )

        shedder.rebind_model(new_model)  # mid-batch hot swap
        after = shedder.should_drop_batch(events, positions, ws)
        assert after == espice_spec.drop_mask(
            new_model, command, events, positions, ws
        )
        # the models genuinely disagree somewhere, or this proves nothing
        assert after != before
        fresh = armed(new_model, backend)
        fresh.on_drop_command(command)
        assert after == fresh.kernel().decide(events, positions, ws)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rebind_replays_command_into_new_kernel(self, backend):
        old_model = make_model(seed=41)
        new_model = make_model(seed=42)
        shedder = armed(old_model, backend, partitions=3)
        command = shedder._command
        shedder.rebind_model(new_model)
        kernel = shedder.kernel()
        assert kernel.thresholds == shedder.thresholds
        assert shedder._command == command  # command survives the swap


class TestScalingBatchHelpers:
    def test_reference_positions_batch_matches_scalar(self):
        rng = random.Random(5)
        for _ in range(50):
            reference = rng.randint(1, 60)
            ws = rng.choice([0.0, rng.uniform(0.5, 3 * reference)])
            positions = [rng.randint(0, 3 * reference) for _ in range(20)]
            expected = [
                int(scaling.scale_position(p, ws, reference)[0]) for p in positions
            ]
            assert (
                scaling.reference_positions_batch(positions, ws, reference)
                == expected
            )

    def test_positions_to_bins_batch_matches_scalar(self):
        rng = random.Random(6)
        for _ in range(50):
            reference = rng.randint(1, 60)
            bin_size = rng.choice([1, 2, 3, 7])
            ws = rng.choice([0.0, rng.uniform(0.5, 3 * reference)])
            positions = [rng.randint(0, 3 * reference) for _ in range(20)]
            expected = [
                scaling.position_to_bins(p, ws, reference, bin_size)
                for p in positions
            ]
            assert (
                scaling.positions_to_bins_batch(positions, ws, reference, bin_size)
                == expected
            )
