"""Pipeline sources: where session records enter the stream.

A pipeline's source is any iterable; these two are the named ones, and
the ``name`` of each labels its ``pipeline.stage.<name>`` trace span.
``CampaignSource`` wraps the testbed campaign iterators (controlled /
real-world / wild, dispatched on the config type), so records flow
straight out of the simulator one at a time, optionally fanned out over
the parallel engine.  ``JsonlSource`` replays a spool written by
:class:`repro.pipeline.sinks.JsonlSink`, which is how an interrupted or
archived campaign re-enters the pipeline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.record import SessionRecord, record_from_json
from repro.testbed.campaign import CampaignConfig, iter_campaign
from repro.testbed.realworld import (
    RealWorldConfig,
    WildConfig,
    iter_realworld,
    iter_wild,
)

#: progress callback: ``(absolute_index, record)``
ProgressFn = Callable[[int, SessionRecord], None]

CampaignLike = Union[CampaignConfig, RealWorldConfig, WildConfig]

#: read buffer of a spool replay.  A spool line is about 13 KB, so io's
#: default 8 KiB buffer splits nearly every line across two reads and a
#: join; at 256 KiB a line is one slice of the buffer.
READ_BUFFER = 256 * 1024


class CampaignSource:
    """Stream a testbed campaign, instance by instance.

    The campaign kind follows the config type (``CampaignConfig``,
    ``RealWorldConfig`` or ``WildConfig``).  ``start`` skips the first
    ``start`` instances *without changing any later record* — the
    per-instance seeds are all drawn up front, so this is the resume
    primitive — and ``workers`` fans simulation out over the parallel
    engine (records still arrive in index order, bit-identical to a
    serial run).
    """

    name = "campaign"

    def __init__(
        self,
        config: CampaignLike,
        start: int = 0,
        workers: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.config = config
        self.start = start
        self.workers = workers
        self.progress = progress
        if isinstance(config, CampaignConfig):
            self._iter = iter_campaign
        elif isinstance(config, RealWorldConfig):
            self._iter = iter_realworld
        elif isinstance(config, WildConfig):
            self._iter = iter_wild
        else:
            raise TypeError(
                f"unsupported campaign config type: {type(config).__name__}"
            )

    def __iter__(self) -> Iterator[SessionRecord]:
        return self._iter(
            self.config,
            progress=self.progress,
            workers=self.workers,
            start=self.start,
        )


class SpoolError(ValueError):
    """A spool that cannot be replayed: unreadable, or a line that is not
    a session record.  The message names the path and line."""


class JsonlSource:
    """Replay session records from a JSONL spool file.

    Every failure to read the file or decode one of its lines surfaces
    as one :class:`SpoolError` naming the path and line number.
    """

    name = "jsonl"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[SessionRecord]:
        try:
            fh = self.path.open("rb", buffering=READ_BUFFER)
        except OSError as exc:
            raise SpoolError(f"cannot read spool {self.path}: {exc}") from exc
        with fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    record = record_from_json(line)
                except (
                    ValueError, TypeError, KeyError, AttributeError,
                    OverflowError,
                ) as exc:
                    raise SpoolError(
                        f"{self.path}:{lineno}: not a session record: {exc}"
                    ) from exc
                yield record
