import json

from crowdbench.compare import main, verdict

SPEC = {
    "end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
    "per_layer": [],
}


def test_improved_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_spread():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [p - 20 for p in parent], "lower", 0.1) == "improved"
    # Nine wins out of ten still counts; eight does not.
    nine = [p - 20 for p in parent[:9]] + [parent[9] + 1]
    assert verdict(parent, nine, "lower", 0.1) == "improved"
    eight = [p - 20 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert verdict(parent, eight, "lower", 0.1) != "improved"
    # Always a little better, but by less than the parent's own spread.
    assert verdict(parent, [p - 0.5 for p in parent], "lower", 0.1) == "unchanged"


def test_regressed_beyond_the_bound_and_higher_is_better():
    parent = [100.0 + i * 0.1 for i in range(10)]
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.1) == "regressed"
    assert verdict(parent, [p * 1.05 for p in parent], "lower", 0.1) == "unchanged"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.1) == "regressed"


def test_unresolved_when_the_spread_exceeds_the_bound():
    parent = [50.0, 150.0] * 5
    change = [60.0, 160.0] * 5
    assert verdict(parent, change, "lower", 0.1) == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict([90.0, 110.0] * 5, [10.0] * 10, "lower", 0.1) == "improved"


def test_per_layer_metrics_have_no_bound():
    parent = [1.0 + i * 0.01 for i in range(10)]
    assert verdict(parent, [p * 3 for p in parent], "lower", None) == "worse"
    assert verdict(parent, [p * 1.001 for p in parent], "lower", None) == "unchanged"


def _report(tmp_path, name, value, digest="abc"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "cold_build", "trace": 0, "inputs_digest": digest,
        "result": {"metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}},
    }))
    return str(path)


def test_main_exit_codes(tmp_path, capsys):
    parent = [_report(tmp_path, f"a{i}.json", 100.0 + i) for i in range(3)]
    same = [_report(tmp_path, f"b{i}.json", 100.0 + i) for i in range(3)]
    slow = [_report(tmp_path, f"c{i}.json", 150.0 + i) for i in range(3)]
    assert main(parent + ["--"] + same, SPEC) == 0
    assert main(parent + ["--"] + slow, SPEC) == 1
    assert "regressed" in capsys.readouterr().out


def test_main_refuses_reports_of_different_inputs(tmp_path, capsys):
    a = _report(tmp_path, "a.json", 100.0, digest="abc")
    b = _report(tmp_path, "b.json", 100.0, digest="def")
    assert main([a, "--", b], SPEC) == 2
    assert "inputs_digest differs" in capsys.readouterr().err
    assert main([a, "--"], SPEC) == 2
