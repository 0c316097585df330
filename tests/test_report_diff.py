"""tools/report_diff.py names the rows of a differing CSV whose verdict moved."""

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
        "solve,0,r_exp,weighted_norm,t=0: passed,flags ('pass', '') -> ('pass', 'non-finite')",
        "solve,1,mix,residual,m=1: passed,flags ('pass', '') -> ('fail', '')",
        "solve,1,mix,error,: only in change",
    ]
    assert report_diff.verdict_changes(parent, parent) == ["0 of 4 rows' value moved"]
