"""Saving and loading trained utility models and runtime state.

In a production deployment the model is trained continuously but
shipped to operators periodically (paper §3.1: model building is not
time-critical and can run out-of-band).  This module serialises a
:class:`~repro.core.model.UtilityModel` to a single JSON document so a
trained model can be persisted, versioned and loaded into a fresh
shedder without retraining.

Beyond models, the elastic cluster (``repro.cluster``) needs the rest
of a shard's working state to survive a worker crash: per-shard window
buffers, the shedder's counters and drop command, and (for incremental
deployments) the matcher's partial-match progress.  The serializers
here are the shared vocabulary of that checkpoint format -- every
payload carries a ``format_version`` and every loader validates it, so
a stale or foreign file fails loudly instead of resuming from garbage.

:func:`write_json_atomic` is the durability primitive: write to a
sibling temp file, then ``os.replace`` -- a reader (or a respawned
worker) only ever sees the previous complete checkpoint or the new
complete checkpoint, never a torn write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cep.events import Event
from repro.cep.patterns.incremental import IncrementalWindowMatcher
from repro.cep.windows import Window
from repro.core.model import UtilityModel
from repro.core.position_shares import PositionShares
from repro.core.utility_table import UtilityTable
from repro.shedding.base import DropCommand, LoadShedder

FORMAT_VERSION = 1

#: Version of the runtime-state (event/window/shedder/matcher/checkpoint)
#: payloads.  Independent of the model format: models are long-lived
#: artifacts, checkpoints are crash-recovery scratch.
STATE_FORMAT_VERSION = 1


def _require_version(
    payload: Mapping[str, Any], expected: int, what: str
) -> None:
    """Validate a payload's ``format_version`` with a clear error."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} payload must be a mapping, got {payload!r}")
    if "format_version" not in payload:
        raise ValueError(
            f"{what} payload has no format_version field -- not a "
            f"persisted {what} (or written by an incompatible tool)"
        )
    version = payload["format_version"]
    if version != expected:
        raise ValueError(
            f"unsupported {what} format version {version!r} "
            f"(this build reads version {expected})"
        )


def model_to_dict(model: UtilityModel) -> Dict[str, Any]:
    """Serialisable representation of ``model``."""
    type_names = sorted(model.table.type_ids, key=model.table.type_ids.get)
    return {
        "format_version": FORMAT_VERSION,
        "reference_size": model.reference_size,
        "bin_size": model.bin_size,
        "windows_trained": model.windows_trained,
        "matches_trained": model.matches_trained,
        "type_names": type_names,
        "utility_matrix": model.table.as_matrix(),
        "share_matrix": [
            [model.shares.share(name, b) for b in range(model.shares.bins)]
            for name in type_names
        ],
    }


def model_from_dict(payload: Mapping[str, Any]) -> UtilityModel:
    """Rebuild a model from :func:`model_to_dict` output."""
    _require_version(payload, FORMAT_VERSION, "model")
    type_names = payload["type_names"]
    reference_size = payload["reference_size"]
    bin_size = payload["bin_size"]
    table = UtilityTable.from_matrix(
        payload["utility_matrix"], type_names, bin_size, reference_size=reference_size
    )
    shares = PositionShares(table.type_ids, reference_size, bin_size)
    # restore shares as one pseudo-observation carrying the exact means
    shares._windows_observed = 1  # noqa: SLF001 - controlled rehydration
    for row_index, row in enumerate(payload["share_matrix"]):
        if len(row) != shares.bins:
            raise ValueError("share matrix does not match the bin count")
        shares._counts[row_index] = [float(v) for v in row]  # noqa: SLF001
    return UtilityModel(
        table=table,
        shares=shares,
        reference_size=reference_size,
        bin_size=bin_size,
        windows_trained=payload.get("windows_trained", 0),
        matches_trained=payload.get("matches_trained", 0),
    )


def save_model(model: UtilityModel, path: Union[str, Path]) -> None:
    """Write ``model`` to ``path`` as JSON (atomically)."""
    write_json_atomic(model_to_dict(model), path, indent=1)


def load_model(path: Union[str, Path]) -> UtilityModel:
    """Read a model previously written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# events and windows (the cluster's per-shard window buffers)
# ----------------------------------------------------------------------
def event_to_dict(event: Event) -> Dict[str, Any]:
    """Serialisable representation of one :class:`Event`."""
    return {
        "event_type": event.event_type,
        "seq": event.seq,
        "timestamp": event.timestamp,
        "attrs": dict(event.attrs),
    }


def event_from_dict(payload: Mapping[str, Any]) -> Event:
    """Rebuild an :class:`Event` from :func:`event_to_dict` output."""
    try:
        return Event(
            event_type=payload["event_type"],
            seq=int(payload["seq"]),
            timestamp=float(payload["timestamp"]),
            attrs=dict(payload.get("attrs", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed event payload: {payload!r}") from exc


def window_to_dict(window: Window) -> Dict[str, Any]:
    """Serialisable representation of a complete :class:`Window`.

    The events travel in arrival order -- position ``i`` in the list is
    the ``P`` of ``UT(T, P)`` -- so a restored window sheds and matches
    exactly like the original.
    """
    return {
        "format_version": STATE_FORMAT_VERSION,
        "window_id": window.window_id,
        "open_time": window.open_time,
        "close_time": window.close_time,
        "truncated": window.truncated,
        "events": [event_to_dict(event) for event in window.events],
    }


def window_from_dict(payload: Mapping[str, Any]) -> Window:
    """Rebuild a :class:`Window` from :func:`window_to_dict` output."""
    _require_version(payload, STATE_FORMAT_VERSION, "window")
    return Window(
        window_id=int(payload["window_id"]),
        events=[event_from_dict(e) for e in payload["events"]],
        open_time=float(payload["open_time"]),
        close_time=float(payload["close_time"]),
        truncated=bool(payload["truncated"]),
    )


# ----------------------------------------------------------------------
# shedder state (counters + drop command + activation)
# ----------------------------------------------------------------------
def shedder_state_to_dict(shedder: LoadShedder) -> Dict[str, Any]:
    """The shedder's replayable runtime state.

    Covers exactly what a respawned worker cannot reconstruct from the
    model broadcast alone: the cumulative decision/drop counters and
    the drop command in force (with its activation flag).  The model
    itself is *not* embedded -- it is coordinator-owned and re-shipped
    on recovery, so checkpoints stay small.
    """
    command = getattr(shedder, "_command", None)
    return {
        "format_version": STATE_FORMAT_VERSION,
        "decisions": shedder.decisions,
        "drops": shedder.drops,
        "active": shedder.active,
        "command": None
        if command is None
        else {
            "x": command.x,
            "partition_count": command.partition_count,
            "partition_size": command.partition_size,
        },
    }


def apply_shedder_state(
    shedder: LoadShedder, payload: Mapping[str, Any]
) -> None:
    """Restore :func:`shedder_state_to_dict` output onto ``shedder``."""
    _require_version(payload, STATE_FORMAT_VERSION, "shedder state")
    command = payload.get("command")
    if command is not None:
        shedder.on_drop_command(
            DropCommand(
                x=float(command["x"]),
                partition_count=int(command["partition_count"]),
                partition_size=float(command["partition_size"]),
            )
        )
    if payload.get("active"):
        shedder.activate()
    else:
        shedder.deactivate()
    shedder.decisions = int(payload["decisions"])
    shedder.drops = int(payload["drops"])


# ----------------------------------------------------------------------
# matcher partial-match state (incremental evaluation)
# ----------------------------------------------------------------------
def _positioned_to_list(
    pairs: List[Tuple[int, Event]]
) -> List[List[Any]]:
    return [[position, event_to_dict(event)] for position, event in pairs]


def _positioned_from_list(
    payload: List[Any],
) -> List[Tuple[int, Event]]:
    return [
        (int(position), event_from_dict(event)) for position, event in payload
    ]


def matcher_state_to_dict(
    matcher: IncrementalWindowMatcher,
) -> Dict[str, Any]:
    """Serialise an incremental matcher's partial-match progress.

    The batch :class:`~repro.cep.patterns.matcher.PatternMatcher` is
    stateless across windows (each window is evaluated whole), but the
    event-at-a-time :class:`IncrementalWindowMatcher` carries a live
    run: which step the automaton has reached, the events already
    bound, and the positions consumed by earlier matches.  This
    captures that run exactly, so a checkpointed window can resume
    matching mid-window after a crash.
    """
    return {
        "format_version": STATE_FORMAT_VERSION,
        "pattern": matcher.pattern.name,
        "max_matches": matcher.max_matches,
        "matches_found": matcher._matches_found,  # noqa: SLF001
        "consumed": sorted(matcher._consumed),  # noqa: SLF001
        "step_index": matcher._step_index,  # noqa: SLF001
        "bound": _positioned_to_list(matcher._bound),  # noqa: SLF001
        "any_used_specs": sorted(matcher._any_used_specs),  # noqa: SLF001
        "any_taken": _positioned_to_list(matcher._any_taken),  # noqa: SLF001
        "kleene_taken": _positioned_to_list(
            matcher._kleene_taken  # noqa: SLF001
        ),
    }


def apply_matcher_state(
    matcher: IncrementalWindowMatcher, payload: Mapping[str, Any]
) -> None:
    """Restore :func:`matcher_state_to_dict` output onto ``matcher``.

    The matcher must be built for the same pattern; resuming a run
    against a different pattern would silently mis-match, so the
    pattern name is validated first.
    """
    _require_version(payload, STATE_FORMAT_VERSION, "matcher state")
    if payload["pattern"] != matcher.pattern.name:
        raise ValueError(
            f"matcher state is for pattern {payload['pattern']!r}, "
            f"not {matcher.pattern.name!r}"
        )
    matcher._matches_found = int(payload["matches_found"])  # noqa: SLF001
    matcher._consumed = set(payload["consumed"])  # noqa: SLF001
    matcher._step_index = int(payload["step_index"])  # noqa: SLF001
    matcher._bound = _positioned_from_list(payload["bound"])  # noqa: SLF001
    matcher._any_used_specs = set(  # noqa: SLF001
        payload["any_used_specs"]
    )
    matcher._any_taken = _positioned_from_list(  # noqa: SLF001
        payload["any_taken"]
    )
    matcher._kleene_taken = _positioned_from_list(  # noqa: SLF001
        payload["kleene_taken"]
    )


# ----------------------------------------------------------------------
# atomic JSON files (the checkpoint durability primitive)
# ----------------------------------------------------------------------
def write_json_atomic(
    payload: Mapping[str, Any],
    path: Union[str, Path],
    indent: Optional[int] = None,
) -> int:
    """Write ``payload`` as JSON via temp-file + ``os.replace``.

    Returns the number of bytes written.  A concurrent reader -- or a
    worker respawned after a kill -9 mid-write -- only ever observes
    the previous complete file or the new complete file; the temp file
    of a torn write is ignored by every loader.
    """
    target = Path(path)
    text = json.dumps(payload, indent=indent, sort_keys=True)
    data = text.encode("utf-8")
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, target)
    return len(data)


def read_json_checkpoint(
    path: Union[str, Path], kind: str
) -> Optional[Dict[str, Any]]:
    """Load a checkpoint written by :func:`write_json_atomic`.

    Returns ``None`` when no checkpoint exists yet (first boot of a
    shard).  Raises :class:`ValueError` on version or ``kind``
    mismatch -- a checkpoint of the wrong kind must never be resumed
    from silently.
    """
    target = Path(path)
    if not target.exists():
        return None
    payload = json.loads(target.read_text())
    _require_version(payload, STATE_FORMAT_VERSION, kind)
    found = payload.get("kind")
    if found != kind:
        raise ValueError(
            f"checkpoint at {target} has kind {found!r}, expected {kind!r}"
        )
    return payload
