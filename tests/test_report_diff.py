"""tools/report_diff.py names the rows of a differing CSV or JSON report
whose verdict moved, and per quantity how many values moved and by how
much, relative and absolute."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

HEADER = b"suite,case_id,function,quantity,params,value,bound,direction,passed,flags\n"


def test_verdict_changes_of_two_csvs():
    parent = HEADER + (
        b"solve,0,r_exp,residual,m=1,1e-12,1e-06,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,0.5,,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,0.7,,<=,pass,\n"
        b"solve,1,mix,residual,m=1,2e-07,1e-06,<=,pass,\n"
    )
    change = HEADER + (
        b"solve,0,r_exp,residual,m=1,1.5e-12,1e-06,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,0.5,,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,inf,,<=,pass,non-finite\n"
        b"solve,1,mix,residual,m=1,2e-06,1e-06,<=,fail,\n"
        b"solve,1,mix,error,,nan,,<=,fail,NonFiniteSample: expression produced NaN\n"
    )
    assert report_diff.verdict_changes(parent, change) == [
        "3 of 4 rows' value moved",
        "solve,r_exp,weighted_norm,t=0: passed,flags ('pass', '') -> ('pass', 'non-finite')",
        "solve,mix,residual,m=1: passed,flags ('pass', '') -> ('fail', '')",
        "solve,mix,error,: only in change",
    ]
    assert report_diff.verdict_changes(parent, parent) == ["0 of 4 rows' value moved"]


def test_renumbered_cases_match_their_rows():
    # the same rows in another case order and numbering: none is "only in"
    parent = HEADER + (
        b"sweep,0,r_exp,base_norm_ratio,m=1,0.5,1,<=,pass,\n"
        b"sweep,0,r_exp,base_norm_ratio,m=1,0.5,1,<=,pass,\n"
        b"sweep,1,mix,base_norm_ratio,m=1.1,0.4,1,<=,pass,\n"
    )
    change = HEADER + (
        b"sweep,3,mix,base_norm_ratio,m=1.1,0.4,1,<=,pass,\n"
        b"sweep,7,r_exp,base_norm_ratio,m=1,0.5,1,<=,pass,\n"
    )
    assert report_diff.verdict_changes(parent, change) == [
        "0 of 2 rows' value moved",
        "sweep,r_exp,base_norm_ratio,m=1: only in parent",
    ]


def test_config_on_one_side_is_a_difference(tmp_path, capsys):
    # each side has a config that the other lacks: neither is run, both count
    for side, stem in (("parent", "old"), ("change", "new")):
        (tmp_path / side / "configs").mkdir(parents=True)
        (tmp_path / side / "configs" / f"{stem}.cfg").write_text("suite = solve\n")
    assert report_diff.compare(tmp_path / "parent", tmp_path / "change") == 2
    assert capsys.readouterr().out == "new.cfg: only in change\nold.cfg: only in parent\n"


def test_value_moves_per_quantity():
    # per quantity with a moved value: moved rows of the shared rows, the
    # largest |new - old| / |old|, +Inf from 0 or a non-finite value, and
    # the largest |new - old|, +Inf from a non-finite value
    parent = HEADER + (
        b"solve,0,r_exp,residual,m=1,1e-12,1e-06,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,0.5,,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=1,0.7,,<=,pass,\n"
        b"solve,1,mix,residual,m=1,2e-07,1e-06,<=,pass,\n"
        b"solve,1,mix,obstruction_abs,m=1,0,,<=,pass,\n"
        b"solve,1,mix,oracle_agreement,m=1,nan,1e-06,<=,fail,\n"
    )
    change = HEADER + (
        b"solve,0,r_exp,residual,m=1,1.5e-12,1e-06,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=0,0.5,,<=,pass,\n"
        b"solve,0,r_exp,weighted_norm,t=1,0.77,,<=,pass,\n"
        b"solve,1,mix,residual,m=1,2e-07,1e-06,<=,pass,\n"
        b"solve,1,mix,obstruction_abs,m=1,1e-17,,<=,pass,\n"
        b"solve,1,mix,oracle_agreement,m=1,nan,1e-06,<=,fail,\n"
        b"solve,2,new,residual,m=1,3e-07,1e-06,<=,pass,\n"
    )
    assert report_diff.value_moves(parent, change) == [
        "residual: 1 of 2 rows moved, largest relative move 0.5, largest absolute move 5e-13",
        "weighted_norm: 1 of 2 rows moved, largest relative move 0.1, largest absolute move 0.07",
        "obstruction_abs: 1 of 1 rows moved, largest relative move inf, "
        "largest absolute move 1e-17",
    ]
    assert report_diff.value_moves(parent, parent) == []


def _json_report(*rows: tuple) -> bytes:
    """A JSON report as cli.write_reports lays it out, with rows of
    (case_id, function, quantity, params, value, passed, flags)."""
    payload = {
        "suite": "estimate-sweep",
        "grid": {"n_points": 4096, "x_min": -12.0, "x_max": 12.0},
        "rows": [
            {"suite": "estimate-sweep", "case_id": case, "function": function,
             "quantity": quantity, "params": params, "value": value, "bound": None,
             "direction": "<=", "passed": passed, "flags": flags}
            for case, function, quantity, params, value, passed, flags in rows
        ],
    }
    return json.dumps(payload, indent=2).encode() + b"\n"


def test_json_value_moves_that_the_csv_rounds_away():
    # a 1-ulp move prints the same 12 digits in the CSV, but shows in the
    # JSON, whose rows match as the CSV's do (by all but the case number);
    # null, a NaN or Inf value, is not a number
    parent = _json_report(
        (0, "r3_exp", "estimate_ratio", "t=0", 0.3137472984292689, True, ""),
        (1, "r3_exp", "estimate_ratio", "t=1", 1.0051984496801132, True, ""),
        (2, "r3_exp", "ratio_refinement_spread", "t=1", 0.25, True, ""),
        (3, "mix", "weighted_norm", "t=2", None, True, ""),
    )
    change = _json_report(
        (4, "r3_exp", "estimate_ratio", "t=0", 0.31374729842926885, True, ""),
        (5, "r3_exp", "estimate_ratio", "t=1", 1.0051984496801132, True, ""),
        (6, "r3_exp", "ratio_refinement_spread", "t=1", 0.25, True, ""),
        (7, "mix", "weighted_norm", "t=2", 3.5, False, "non-finite"),
    )
    assert f"{0.3137472984292689:.12g}" == f"{0.31374729842926885:.12g}"
    assert report_diff.verdict_changes(parent, change) == [
        "2 of 4 rows' value moved",
        "estimate-sweep,mix,weighted_norm,t=2: passed,flags ('true', '') -> ('false', 'non-finite')",
    ]
    assert report_diff.value_moves(parent, change) == [
        "estimate_ratio: 1 of 2 rows moved, largest relative move 1.8e-16, "
        "largest absolute move 5.6e-17",
        "weighted_norm: 1 of 1 rows moved, largest relative move inf, largest absolute move inf",
    ]
    assert report_diff.value_moves(parent, parent) == []


def test_move_at_rounding_level_reads_as_such():
    # a value at rounding level that doubles moves by 1 relative, which the
    # absolute move shows to be 1e-16; the two maxima may come from
    # different rows
    parent = HEADER + (
        b"solve,0,r_exp,coincidence_defect,m=1,1e-16,1e-06,<=,pass,\n"
        b"solve,1,mix,coincidence_defect,m=1,3e-09,1e-06,<=,pass,\n"
    )
    change = HEADER + (
        b"solve,0,r_exp,coincidence_defect,m=1,2e-16,1e-06,<=,pass,\n"
        b"solve,1,mix,coincidence_defect,m=1,3.3e-09,1e-06,<=,pass,\n"
    )
    assert report_diff.value_moves(parent, change) == [
        "coincidence_defect: 2 of 2 rows moved, largest relative move 1, "
        "largest absolute move 3e-10",
    ]
    assert report_diff.value_moves(parent, change[: change.index(b"solve,1")]) == [
        "coincidence_defect: 1 of 1 rows moved, largest relative move 1, "
        "largest absolute move 1e-16",
    ]
