"""The stage contract: a pipeline stage is an iterator transform.

A stage takes the upstream iterator and returns an iterator
(:meth:`Stage.process`).  Its ``name`` labels the ``pipeline.stage.<name>``
span that ``repro trace`` prints.  What an item must carry is the
stage's own business: a stage handed the wrong item fails on the first
one it reads.

Stages hold no references to items they have yielded: memory stays
bounded by the largest in-flight chunk, never by the stream length.
"""

from __future__ import annotations

from typing import Iterator


class Stage:
    """Base class of every pipeline stage.

    The only obligation is :meth:`process`: take an iterator, return an
    iterator, never materialize the whole stream.
    """

    name = "abstract"

    def process(self, stream: Iterator[object]) -> Iterator[object]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Sink(Stage):
    """A pass-through stage with a side effect and a final result.

    Sinks see every item (``consume``), forward it unchanged, and expose
    whatever they accumulated via :meth:`result` once the stream is
    drained.  Because they pass items through, sinks compose: a spool
    sink can feed a diagnosis stage that feeds a report sink.
    """

    name = "abstract"

    def consume(self, item: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        return None

    def on_complete(self) -> None:
        """Called only when the upstream stream is exhausted normally.

        An interrupted flow (exception, early close) skips this — which
        is how :class:`~repro.pipeline.sinks.JsonlSink` knows whether its
        resume checkpoint is still needed.
        """

    def close(self) -> None:
        """Release resources (files, ...); called when the flow ends."""

    def process(self, stream: Iterator[object]) -> Iterator[object]:
        for item in stream:
            self.consume(item)
            yield item
        self.on_complete()
