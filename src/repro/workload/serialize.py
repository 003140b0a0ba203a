"""Trace serialization: save/load a generated trace as JSON.

Trace synthesis is deterministic from the seed, but serialization lets a
trace cross process boundaries (long experiment pipelines, sharing a
workload between implementations) and pins the workload should generation
code ever change.  The format is a plain JSON object with one record per
event; documents referenced by content-change events carry their metadata
inline so the loader can re-register them against a fresh content index.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.workload.content import ContentIndex, Document
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
    Trace,
    TraceEvent,
)

__all__ = ["trace_to_dict", "trace_from_dict", "save_trace", "load_trace"]

_FORMAT_VERSION = 1


def _event_to_dict(event: TraceEvent) -> Dict:
    if isinstance(event, QueryEvent):
        return {
            "kind": "query",
            "time": event.time,
            "node": event.node,
            "terms": list(event.terms),
            "target_doc": event.target_doc,
        }
    if isinstance(event, ContentChangeEvent):
        return {
            "kind": "change",
            "time": event.time,
            "node": event.node,
            "doc_id": event.doc_id,
            "added": event.added,
        }
    if isinstance(event, JoinEvent):
        return {"kind": "join", "time": event.time, "node": event.node}
    if isinstance(event, LeaveEvent):
        return {"kind": "leave", "time": event.time, "node": event.node}
    raise TypeError(f"unknown event type {type(event).__name__}")


def _event_from_dict(record: Dict) -> TraceEvent:
    kind = record["kind"]
    if kind == "query":
        return QueryEvent(
            time=record["time"],
            node=record["node"],
            terms=tuple(record["terms"]),
            target_doc=record["target_doc"],
        )
    if kind == "change":
        return ContentChangeEvent(
            time=record["time"],
            node=record["node"],
            doc_id=record["doc_id"],
            added=record["added"],
        )
    if kind == "join":
        return JoinEvent(time=record["time"], node=record["node"])
    if kind == "leave":
        return LeaveEvent(time=record["time"], node=record["node"])
    raise ValueError(f"unknown event kind {kind!r}")


def trace_to_dict(trace: Trace, index: ContentIndex | None = None) -> Dict:
    """Serialise a trace (and, optionally, referenced document metadata).

    When ``index`` is given, the documents referenced by content-change
    events are embedded, so :func:`trace_from_dict` can register them on a
    fresh index before replay.
    """
    payload: Dict = {
        "format_version": _FORMAT_VERSION,
        "duration": trace.duration,
        "initially_live": np.asarray(trace.initially_live, dtype=bool).tolist(),
        "events": [_event_to_dict(e) for e in trace.events],
    }
    if index is not None:
        referenced = {
            e.doc_id for e in trace.events if isinstance(e, ContentChangeEvent)
        }
        payload["documents"] = [
            {
                "doc_id": d,
                "class_id": index.document(d).class_id,
                "keywords": list(index.document(d).keywords),
            }
            for d in sorted(referenced)
        ]
    return payload


def trace_from_dict(
    payload: Dict, index: ContentIndex | None = None
) -> Trace:
    """Rebuild a trace; registers embedded documents on ``index`` if given."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r}")
    if index is not None:
        for rec in payload.get("documents", ()):
            doc = Document(
                doc_id=rec["doc_id"],
                class_id=rec["class_id"],
                keywords=tuple(rec["keywords"]),
            )
            try:
                index.register_document(doc)
            except ValueError:
                existing = index.document(doc.doc_id)
                if existing != doc:
                    raise ValueError(
                        f"document {doc.doc_id} conflicts with the index"
                    ) from None
    events = [_event_from_dict(r) for r in payload["events"]]
    return Trace(
        events=events,
        initially_live=np.asarray(payload["initially_live"], dtype=bool),
        duration=float(payload["duration"]),
    )


def save_trace(
    trace: Trace, path: Union[str, Path], index: ContentIndex | None = None
) -> None:
    """Write the trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace, index)))


def load_trace(path: Union[str, Path], index: ContentIndex | None = None) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()), index)
