"""tools/report_diff.py names the rows of a differing CSV whose verdict moved,
and per quantity how many values moved and by how much."""

import importlib.util
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
    # per quantity with a moved value: moved rows of the shared rows, and
    # the largest |new - old| / |old|, +Inf from 0 or a non-finite value
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
        "residual: 1 of 2 rows moved, largest relative move 0.5",
        "weighted_norm: 1 of 2 rows moved, largest relative move 0.1",
        "obstruction_abs: 1 of 1 rows moved, largest relative move inf",
    ]
    assert report_diff.value_moves(parent, parent) == []
