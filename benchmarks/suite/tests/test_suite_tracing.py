"""Span bookkeeping: self-time arithmetic and wrapper removal."""

import pytest

from tracing import LISTED_PER_NAME, Tracer, patched, span


class Clock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_direct_children():
    clock = Clock()
    tr = Tracer(clock)
    with tr.span("parent"):
        clock.tick(1.0)
        with tr.span("child"):
            clock.tick(2.0)
            with tr.span("grandchild"):
                clock.tick(4.0)
        clock.tick(8.0)
        with tr.span("child"):  # a sibling of the first child
            clock.tick(16.0)
    s = tr.summary()
    assert s["parent"] == {"count": 1, "total_s": 31.0, "self_s": 9.0}
    # the grandchild comes off its parent, not off its grandparent
    assert s["child"] == {"count": 2, "total_s": 22.0, "self_s": 18.0}
    assert s["grandchild"] == {"count": 1, "total_s": 4.0, "self_s": 4.0}
    assert sum(tr.self_times()) == pytest.approx(31.0)
    assert tr.coverage(0) == pytest.approx(22.0 / 31.0)
    assert s["never.seen"] == {"count": 0, "total_s": 0.0, "self_s": 0.0}


def test_spans_are_name_start_end_parent():
    clock = Clock()
    tr = Tracer(clock)
    with tr.span("a") as a:
        clock.tick(1.0)
        with tr.span("b"):
            clock.tick(1.0)
    assert a == 0
    assert tr.spans == [["a", 0.0, 2.0, -1], ["b", 1.0, 2.0, 0]]


def test_wrap_records_a_span_per_call_and_nests_under_the_open_span():
    clock = Clock()
    tr = Tracer(clock)

    def work(x, *, y=0):
        clock.tick(3.0)
        return x + y

    traced = tr.wrap(work, "layer.work")
    with tr.span("outer"):
        assert traced(1, y=2) == 3
        with pytest.raises(TypeError):
            traced()  # the span closes even when the call raises
    assert [s[0] for s in tr.spans] == ["outer", "layer.work", "layer.work"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert tr.summary()["outer"]["self_s"] == 0.0


def test_span_helper_is_a_no_op_without_a_tracer():
    with span(None, "anything") as nothing:
        assert nothing is None


def test_listed_keeps_rare_names_and_counts_frequent_ones():
    tr = Tracer(Clock())
    with tr.span("round"):
        for _ in range(LISTED_PER_NAME + 1):
            with tr.span("hot"):
                with tr.span("inner"):
                    pass
    out = tr.listed()
    assert out["summarized"] == {"hot": LISTED_PER_NAME + 1, "inner": LISTED_PER_NAME + 1}
    assert out["spans"] == [["round", 0.0, 0.0, -1]]
    tr = Tracer(Clock())
    with tr.span("round"):
        for _ in range(LISTED_PER_NAME + 1):
            with tr.span("hot"):
                pass
        with tr.span("hot2"):
            with tr.span("rare"):
                pass
    kept = tr.listed()["spans"]
    # "rare" keeps its kept parent; parents are indices into the kept list
    assert [(s[0], s[3]) for s in kept] == [("round", -1), ("hot2", 0), ("rare", 1)]


class Strategy:
    def read(self):
        return "read"

    def write(self):
        return "write"


class Derived(Strategy):
    pass


def test_patched_wraps_instances_and_classes_and_removes_every_wrapper():
    tr = Tracer()
    inst = Strategy()
    with patched(tr, [(inst, "read", "core.read"), (Derived, "write", "core.write")]):
        assert "read" in vars(inst) and "write" in vars(Derived)
        assert inst.read() == "read"
        assert Derived().write() == "write"  # wrapped on the class, bound per instance
        assert Strategy().write() == "write"  # the base class is untouched
    assert "read" not in vars(inst) and "write" not in vars(Derived)
    assert Derived.write is Strategy.write
    assert [s[0] for s in tr.spans] == ["core.read", "core.write"]


def test_patched_restores_on_error_and_keeps_own_attributes():
    tr = Tracer()
    original = Strategy.__dict__["read"]
    with pytest.raises(RuntimeError):
        with patched(tr, [(Strategy, "read", "core.read")]):
            assert Strategy.__dict__["read"] is not original
            raise RuntimeError("boom")
    assert Strategy.__dict__["read"] is original
