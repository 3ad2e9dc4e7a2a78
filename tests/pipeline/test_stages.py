"""Stage contract: iterator transforms over any iterable source."""

import pytest

from repro.pipeline import CountSink, Pipeline, Sink, Stage, chunked


class TestChunked:
    def test_even_split(self):
        assert list(chunked(range(6), 2)) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_tail(self):
        assert list(chunked(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_empty_stream(self):
        assert list(chunked([], 3)) == []

    def test_chunk_larger_than_stream(self):
        assert list(chunked([1, 2], 10)) == [[1, 2]]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="chunk size"):
            list(chunked([1], 0))

    def test_is_lazy(self):
        def gen():
            yield 1
            raise AssertionError("must not be pulled")  # pragma: no cover

        stream = chunked(gen(), 1)
        assert next(stream) == [1]


class _Upper(Stage):
    name = "upper"

    def process(self, stream):
        for item in stream:
            yield item.upper()


class TestPipelineFlow:
    def test_items_flow_through_stages_and_sinks(self):
        counter = CountSink()
        out = list(Pipeline(["a", "b"], _Upper(), counter))
        assert out == ["A", "B"]
        assert counter.result() == {"count": 2, "severity": {}}

    @pytest.mark.parametrize("source", [
        ["a", "b"], ("a", "b"), "ab", iter(["a", "b"]),
    ], ids=["list", "tuple", "str", "iterator"])
    def test_any_iterable_is_a_source(self, source):
        assert list(Pipeline(source, _Upper())) == ["A", "B"]

    def test_run_returns_last_sink_result(self):
        counter = CountSink()
        result = Pipeline([1, 2, 3], counter).run()
        assert result == {"count": 3, "severity": {}}

    def test_run_without_sink_returns_count(self):
        assert Pipeline("abc", _Upper()).run() == 3

    def test_flow_is_lazy(self):
        pulled = []

        def gen():
            for i in range(100):
                pulled.append(i)
                yield i

        stream = iter(Pipeline(gen(), CountSink()))
        next(stream)
        assert len(pulled) <= 2  # one in flight, not the whole stream
        stream.close()


class _CompletionSink(Sink):
    name = "completion-probe"

    def __init__(self):
        self.completed = False
        self.closed = False

    def consume(self, item):
        pass

    def on_complete(self):
        self.completed = True

    def close(self):
        self.closed = True


class TestSinkLifecycle:
    def test_on_complete_fires_on_exhaustion(self):
        sink = _CompletionSink()
        Pipeline([1, 2], sink).run()
        assert sink.completed and sink.closed

    def test_on_complete_skipped_when_interrupted(self):
        sink = _CompletionSink()
        stream = iter(Pipeline([1, 2, 3], sink))
        next(stream)
        stream.close()
        assert sink.closed
        assert not sink.completed  # interruption must be distinguishable

    def test_close_runs_even_when_stream_raises(self):
        def boom():
            yield 1
            raise RuntimeError("mid-stream failure")

        sink = _CompletionSink()
        with pytest.raises(RuntimeError):
            list(Pipeline(boom(), sink))
        assert sink.closed
        assert not sink.completed
