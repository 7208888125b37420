"""map_parallel edge cases: error modes, ordering, contention."""

import random
import re
import time

import pytest

from repro.backend.telemetry import TelemetryRegistry
from repro.backend.workers import map_parallel, map_with_failures


def _flaky(x):
    if x % 3 == 0:
        raise ValueError(f"x={x}")
    return x * 10


class TestMapParallelModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            map_parallel(lambda x: x, [1], on_error="ignore")

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_empty_input(self, on_error):
        assert map_parallel(lambda x: x, [], on_error=on_error) == []

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    def test_single_worker_sequential(self, on_error):
        result = map_parallel(
            lambda x: x + 1, [1, 2, 3], max_workers=1, on_error=on_error
        )
        assert result == [2, 3, 4]

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_raise_mode_propagates(self, max_workers):
        with pytest.raises(ValueError):
            map_parallel(_flaky, [1, 2, 3], max_workers=max_workers)

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_skip_mode_sheds_failures(self, max_workers):
        telemetry = TelemetryRegistry()
        result = map_parallel(
            _flaky, list(range(10)), max_workers=max_workers,
            on_error="skip", telemetry=telemetry,
        )
        expected = [x * 10 for x in range(10) if x % 3 != 0]
        assert result == expected  # survivors keep their relative order
        assert telemetry.value("map_parallel_items_skipped") == 4  # 0,3,6,9

    def test_skip_mode_all_fail(self):
        def bad(_):
            raise RuntimeError("always")

        assert map_parallel(bad, [1, 2, 3], on_error="skip") == []

    def test_order_preserved_under_contention(self):
        rng = random.Random(42)
        delays = [rng.uniform(0.0, 0.01) for _ in range(40)]

        def jittered(i):
            time.sleep(delays[i])
            return i

        result = map_parallel(jittered, list(range(40)), max_workers=8)
        assert result == list(range(40))

    def test_order_preserved_under_contention_with_skips(self):
        rng = random.Random(1)
        delays = [rng.uniform(0.0, 0.01) for _ in range(40)]

        def jittered(i):
            time.sleep(delays[i])
            if i % 5 == 0:
                raise ValueError(str(i))
            return i

        result = map_parallel(
            jittered, list(range(40)), max_workers=8, on_error="skip"
        )
        assert result == [i for i in range(40) if i % 5 != 0]

    def test_single_item_runs_inline(self):
        result = map_parallel(lambda x: x * 2, [21], max_workers=8)
        assert result == [42]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match=re.escape("('serial', 'thread')")):
            map_parallel(lambda x: x, [1, 2], backend="process")


class TestMapWithFailures:
    def test_splits_successes_and_failures(self):
        successes, failures = map_with_failures(_flaky, list(range(7)),
                                                max_workers=4)
        assert successes == [(1, 10), (2, 20), (4, 40), (5, 50)]
        assert [idx for idx, _ in failures] == [0, 3, 6]
        assert all(isinstance(exc, ValueError) for _, exc in failures)

    def test_empty_input(self):
        assert map_with_failures(lambda x: x, []) == ([], [])

    def test_sequential_path_matches(self):
        par = map_with_failures(_flaky, list(range(7)), max_workers=4)
        seq = map_with_failures(_flaky, list(range(7)), max_workers=1)
        assert par[0] == seq[0]
        assert [i for i, _ in par[1]] == [i for i, _ in seq[1]]
