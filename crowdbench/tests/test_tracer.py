import dataclasses
import json
import sys
import types
from typing import Callable

import pytest

from crowdbench.tracer import Span, Target, Tracer, self_times


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 2.0, 4.0),     # overlaps a: [1, 4] counts once
        Span(4, 1, "c", 9.0, 12.0),    # only [9, 10] lies inside the parent
        Span(5, 2, "grandchild", 1.5, 2.5),
        Span(6, None, "other", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(1.0)


@dataclasses.dataclass(frozen=True)
class Holder:
    fn: Callable
    label: str = "x"


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines f, g and class C; ``fakepkg.b`` re-binds them."""
    a = types.ModuleType("fakepkg.a")

    def g(x):
        return x + 1

    def f(x):
        return a.g(x) * 2

    class C:
        def m(self, x):
            return a.f(x)   # a module-global lookup, as in real code

    a.f, a.g, a.C = f, g, C
    b = types.ModuleType("fakepkg.b")
    b.f = f
    b.holder = Holder(fn=f)
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield a, b
    for name in modules:
        sys.modules.pop(name, None)


def _targets():
    return [
        Target("f", "fakepkg.a", "f", lambda args, kwargs, result: {"out": result}),
        Target("g", "fakepkg.a", "g"),
        Target("m", "fakepkg.a", "C.m"),
    ]


def test_tracer_patches_every_binding_and_restores_them(fake_package):
    a, b = fake_package
    f, g, m, holder = a.f, a.g, a.C.__dict__["m"], b.holder
    tracer = Tracer(_targets(), scope=("fakepkg",))
    with tracer.installed():
        assert a.f is not f and b.f is a.f and b.holder.fn is a.f
        assert a.g is not g and a.C.__dict__["m"] is not m
        assert b.holder.label == "x"
        assert a.C().m(1) == 4
        assert b.f(2) == 6
        assert b.holder.fn(3) == 8
    assert a.f is f and b.f is f and a.g is g
    assert a.C.__dict__["m"] is m
    assert b.holder is holder

    names = [span.name for span in tracer.spans]
    assert names.count("f") == 3 and names.count("g") == 3 and names == [
        "g", "f", "m", "g", "f", "g", "f",
    ]
    # Children end first; every g's parent is the f that called it.
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name == "g":
            assert by_id[span.parent].name == "f"
    assert [s.counts for s in tracer.spans if s.name == "f"] == [
        {"out": 4}, {"out": 6}, {"out": 8},
    ]
    selfs = self_times(tracer.spans)
    outer = next(s for s in tracer.spans if s.name == "m")
    inner = [s for s in tracer.spans if s.parent == outer.span_id]
    assert selfs[outer.span_id] == pytest.approx(
        outer.duration - sum(s.duration for s in inner)
    )


def test_tracer_restores_after_an_exception_and_marks_the_span(fake_package):
    a, _ = fake_package
    f = a.f
    tracer = Tracer(_targets(), scope=("fakepkg",))
    with pytest.raises(TypeError):
        with tracer.installed():
            a.f(None)
    assert a.f is f
    assert [s.error for s in tracer.spans] == [True, True]


def test_untraced_modules_keep_their_bindings(fake_package):
    a, b = fake_package
    f = a.f
    tracer = Tracer(_targets(), scope=("fakepkg.a",))
    with tracer.installed():
        assert a.f is not f and b.f is f


def test_exports(fake_package, tmp_path):
    a, _ = fake_package
    tracer = Tracer(_targets(), scope=("fakepkg",))
    with tracer.installed():
        a.f(1)
    tracer.write_jsonl(str(tmp_path / "spans.jsonl"))
    tracer.write_chrome(str(tmp_path / "trace.json"))
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [r["name"] for r in rows] == ["g", "f"]
    assert rows[0]["parent"] == rows[1]["id"]
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"} and len(events) == 2
