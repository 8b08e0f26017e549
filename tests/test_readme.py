"""The README "Library quick tour" runs as written and shows true values."""

import ast
from fractions import Fraction
from pathlib import Path

from debell.verify import EQUAL

README = Path(__file__).resolve().parents[1] / "README.md"

# Every expression statement of the tour, as (source, trailing comment), and
# the value its comment states, of the type the call returns.
TOUR_VALUES = {
    ("bell_egf(3, p)[3]", "5: deranged partitions of a 3-set"): 5,
    ("bell_lambda1(3, p)", "the same value by the closed sum"): Fraction(5),
    ("r_deranged_partitions_enum(3, 0)", "5 again, by explicit generation"): 5,
    ("stirling_rec(5, 3, 0, 1, 0)", "25"): Fraction(25),
    ("r_derangement_egf(2, 2)", "2"): 2,
    ("report.all_required_equal", "True"): True,
}


def test_every_commented_value_holds():
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace: dict = {}
    values = {}
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            values[source, comment] = eval(source, namespace)
        else:
            exec(source, namespace)
            if source.startswith("report ="):
                assert comment == "every row EQUAL"
                rows = namespace["report"].rows
                assert rows and all(row.status == EQUAL for row in rows)
    assert values == TOUR_VALUES
    assert {k: type(v) for k, v in values.items()} == {k: type(v) for k, v in TOUR_VALUES.items()}
