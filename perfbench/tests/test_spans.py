"""Tracer arithmetic and patching, on synthetic calls with a scripted clock."""

import pytest

from spans import Tracer, aggregate


class ScriptedClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_of_nested_calls():
    # outer [0, 10] calls inner [1, 4] and inner [5, 9]; the second inner
    # calls leaf [6, 7]
    clock = ScriptedClock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_body(call_leaf):
        if call_leaf:
            leaf()

    inner = tracer.wrap("inner", inner_body)

    def outer_body():
        inner(False)
        inner(True)

    tracer.wrap("outer", outer_body)()
    stats = aggregate(tracer.spans)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert stats["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert [s[3] for s in tracer.spans] == [None, 0, 0, 2]


def test_children_cover_their_union_only():
    spans = [
        ("parent", 0.0, 10.0, None),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: union of a and b is [1, 6]
        ("c", 8.0, 12.0, 0),  # ends after the parent: clipped to [8, 10]
    ]
    assert aggregate(spans)["parent"]["self_s"] == pytest.approx(3.0)


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer(ScriptedClock([0.0, 2.0]))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [("boom", 0.0, 2.0, None)]


def test_install_patches_every_namespace_and_uninstall_restores():
    from rollmia import gan, montecarlo, pianoroll

    original = pianoroll.flatten
    tracer = Tracer()
    tracer.install(["pianoroll.flatten", "montecarlo.no_such_function"], {
        "pianoroll.flatten": lambda args, kwargs, counts: counts.__setitem__("n", counts["n"] + 1),
    })
    try:
        assert gan.flatten is pianoroll.flatten is montecarlo.flatten
        assert pianoroll.flatten is not original
        roll = pianoroll.synth_generate(1, 1, pianoroll.PianorollShape(1, 1, 4, 12)).rolls[0]
        montecarlo.roll_features(montecarlo.EUCLIDEAN, roll)
    finally:
        tracer.uninstall()
    assert gan.flatten is pianoroll.flatten is montecarlo.flatten is original
    assert [s[0] for s in tracer.spans] == ["pianoroll.flatten"]
    assert tracer.counts["n"] == 1
    assert tracer.absent == ["montecarlo.no_such_function"]


def test_stage_times_count_outermost_stage_calls():
    from worker import stage_times

    spans = [
        ("pianoroll.synth_generate", 0.0, 1.0, None),
        ("pianoroll.write_dataset", 1.0, 1.5, None),  # the dataset stage's write
        ("pianoroll.write_dataset", 1.5, 1.75, None),  # the split stage's write
        ("gan.train", 2.0, 6.0, None),
        ("harness.whitebox_row", 6.0, 6.5, None),
        ("whitebox.run_whitebox", 6.1, 6.4, 4),  # inside the row: counted once
        ("cli.cmd_attack_mc", 7.0, 8.0, None),
    ]
    assert stage_times(spans) == {"dataset_s": 1.5, "train_s": 4.0, "attack_s": 1.5}


def test_install_imports_modules_first_so_none_keeps_a_wrapper():
    import sys

    import rollmia
    from rollmia import pianoroll

    saved = sys.modules.pop("rollmia.cli", None)
    try:
        tracer = Tracer()
        # cli is not imported yet; importing it under the patch would bind
        # the read_dataset wrapper by name and keep it after uninstall
        tracer.install(["pianoroll.read_dataset", "cli.cmd_attack_wb"])
        tracer.uninstall()
        assert sys.modules["rollmia.cli"].read_dataset is pianoroll.read_dataset
        assert tracer.absent == []
    finally:
        if saved is not None:
            sys.modules["rollmia.cli"] = saved
            rollmia.cli = saved
