"""The evaluator's join plan equals the nested loop it replaces.

``Evaluator._eval_clauses`` drives a ``for $v in E`` clause from a hash
table when the ``where`` holds a ``$v``-side ``=`` other-side conjunct
(see ``Evaluator._plan_join``).  The oracle needs no flag:

    for $x in E where W return R  ==  for $x in E return if (W) then R else ()

and the planner does not match the right-hand form — ``nested_loop_form``,
which is also what keeps the naive baseline an independent ground truth in
every differential test.  Results are compared as node-identity sequences:
a base element by ``id``, a constructed one by tag, text and children.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import nested_loop_form
from repro.core.engine import KeywordSearchEngine
from repro.core.rewrite import make_base_resolver
from repro.errors import XQueryEvalError
from repro.storage.database import XMLDatabase
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.xmlmodel.node import XMLNode
from repro.xquery.ast import BooleanExpr, Comparison
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.parser import parse_query

from difftest.generators import VIEW_SHAPES, generate_case


def shape(item):
    if not isinstance(item, XMLNode):
        return ("atom", item)
    if item.dewey is not None:
        return ("base", id(item))
    return (item.tag, item.text, tuple(shape(child) for child in item.children))


def evaluate_both(db: XMLDatabase, text: str):
    """``(planned result, nested-loop result, the planned run's plans)``."""
    program = parse_query(text)
    planned = Evaluator.for_program(program, make_base_resolver(db))
    result = planned.evaluate(program.body)
    oracle = Evaluator.for_program(program, make_base_resolver(db))
    expected = oracle.evaluate(nested_loop_form(program.body))
    assert not any(plan for _, plan in oracle._join_plans.values())
    plans = [plan for _, plan in planned._join_plans.values() if plan]
    return [shape(i) for i in result], [shape(i) for i in expected], plans


# -- generated two-document corpora ------------------------------------------------

# Equal as numbers, equal as strings only, equal as neither, and NaN.
_KEYS = ["1", "1.0", "01", "1e0", "2", "abc", "ABC", "abc ", "nan", "NaN", "inf", "x-1"]


def _corpus(rng: random.Random) -> XMLDatabase:
    def side(root_tag, item_tag, count):
        root = XMLNode(root_tag)
        for number in range(count):
            item = root.make_child(item_tag)
            item.make_child("id", f"{item_tag}{number}")
            # Empty, single- and multi-valued join sides, with duplicates.
            for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
                item.make_child("k", rng.choice(_KEYS))
            item.make_child("n", str(rng.randint(0, 5)))
        return root

    db = XMLDatabase()
    db.load_document("left.xml", side("ls", "l", rng.randint(0, 6)))
    db.load_document("right.xml", side("rs", "r", rng.randint(0, 8)))
    return db


_WHERES = [
    "$r/k = $l/k",
    "$l/k = $r/k",
    "$r/k = $l/k and $r/n > 2",
    "$r/n > 2 and $r/k = $l/k",
    "$r/n > 1 and $l/k = $r/k and $l/n < 4",
    "$r/k = $l/k and $r/k = $l/k",
    "$r/k = '1'",
    "$r/k = $l/k and $r/n = $l/n",
]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000_000),
    where=st.sampled_from(_WHERES),
    nested=st.booleans(),
)
def test_planned_join_equals_nested_loop(seed, where, nested):
    db = _corpus(random.Random(seed))
    if nested:
        text = f"""
        for $l in fn:doc(left.xml)/ls/l
        return <out> {{$l/id}},
          {{for $r in fn:doc(right.xml)/rs//r where {where} return $r}}
        </out>"""
    else:
        text = f"""
        for $l in fn:doc(left.xml)/ls/l, $r in fn:doc(right.xml)/rs//r
        where {where}
        return <pair> {{$l/id}}, {{$r/id}} </pair>"""
    result, expected, plans = evaluate_both(db, text)
    assert result == expected
    if db.get("left.xml").root.children:
        assert len(plans) == 1  # the $r clause is the one that joins


@pytest.mark.parametrize("shape_name", VIEW_SHAPES)
@pytest.mark.parametrize("seed", (11, 101, 202))
def test_difftest_views_equal_their_nested_loop_form(shape_name, seed):
    case = generate_case(seed, shape_name)
    result, expected, plans = evaluate_both(case.database, case.view_text)
    assert result == expected and result
    joins = case.view_text.count(" = ")
    assert len(plans) == joins


# -- refusals ----------------------------------------------------------------------


def _small_db() -> XMLDatabase:
    db = XMLDatabase()
    db.load_document(
        "left.xml", "<ls><l><k>1</k><g><m><k>1</k></m></g></l><l><k>2</k></l></ls>"
    )
    db.load_document(
        "right.xml", "<rs><r><k>1</k></r><r><k>2</k></r><r><k>1.0</k></r></rs>"
    )
    return db


@pytest.mark.parametrize(
    "text",
    [
        # E has a free variable.
        """for $l in fn:doc(left.xml)/ls/l, $m in $l/g/m
           where $m/k = $l/k return $m""",
        # E holds a context item (inside its predicate).
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r/k[. = '1']
                  where $r = $l/k return $r""",
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r[k = '1']
                  where $r/k = $l/k return $r""",
        # E is a function call.
        """declare function rights() { fn:doc(right.xml)/rs/r };
           for $l in fn:doc(left.xml)/ls/l
           return for $r in rights() where $r/k = $l/k return $r""",
        # The $v side calls a function.
        """declare function key($x) { $x/k };
           for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r
                  where key($r) = $l/k return $r""",
        # The other side depends on a later clause's variable.
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r, $m in $l/g/m
                  where $r/k = $m/k return $r""",
        # Not an equality, an `or`, and a conjunct one level down.
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r
                  where $r/k > $l/k return $r""",
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r
                  where $r/k = $l/k or $r/k = '2' return $r""",
        # A later clause re-binds the variable the conjunct names.
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r, $r in $l/g/m
                  where $r/k = $l/k return $r""",
    ],
    ids=[
        "free-variable", "context-item", "predicate", "function-call",
        "build-side-call", "later-variable", "inequality", "or", "rebound",
    ],
)
def test_plan_refused(text):
    result, expected, plans = evaluate_both(_small_db(), text)
    assert result == expected and result
    assert plans == []  # no table was ever built


def test_later_clause_joins_when_the_earlier_one_cannot():
    """``$m in $l/g/m`` is refused (free variable); had the ``where``
    named ``$r`` instead, the ``$r`` clause would still plan."""
    text = """for $l in fn:doc(left.xml)/ls/l
              return for $r in fn:doc(right.xml)/rs/r, $m in $l/g/m
                     where $r/k = $l/k return <hit> {$r}, {$m} </hit>"""
    result, expected, plans = evaluate_both(_small_db(), text)
    assert result == expected and result
    assert len(plans) == 1


def test_atomic_items_raise_what_the_loop_raised():
    """The table cannot be built (``$b/k`` over a string), so the clause
    falls back to the loop, whose own ``where`` raises in place."""
    text = "for $b in ('x', 'y') where $b/k = 'x' return $b"
    program = parse_query(text)
    for body in (program.body, nested_loop_form(program.body)):
        evaluator = Evaluator(EvalContext(resolver=lambda name: XMLNode("r")))
        with pytest.raises(XQueryEvalError, match="applied to an atomic value"):
            evaluator.evaluate(body)
        assert not any(plan for _, plan in evaluator._join_plans.values())
    # Atomic items a path never touches join like any other atoms.
    text = "for $b in ('x', 'y', 'x') where $b = 'x' return $b"
    evaluator = Evaluator(EvalContext(resolver=lambda name: XMLNode("r")))
    assert evaluator.evaluate(parse_query(text).body) == ["x", "x"]
    assert any(plan for _, plan in evaluator._join_plans.values())


def test_tables_do_not_outlive_an_evaluate_call():
    """An edit between two evaluations of one expression is seen: the
    table is rebuilt per ``evaluate`` call, never kept across them."""
    db = _small_db()
    program = parse_query(
        """for $l in fn:doc(left.xml)/ls/l
           return for $r in fn:doc(right.xml)/rs/r
                  where $r/k = $l/k return $r"""
    )
    evaluator = Evaluator.for_program(program, make_base_resolver(db))
    before = evaluator.evaluate(program.body)
    db.insert_subtree("right.xml", "1", "<r><k>2.0</k></r>")
    after = evaluator.evaluate(program.body)
    assert len(after) == len(before) + 1


# -- the count that pins the win ---------------------------------------------------

_PUBS_VIEW = """
for $a in fn:doc(authors.xml)/authors//author
return <authorpubs>
   <name> {$a/name} </name>,
   {for $art in fn:doc(articles.xml)/books//article
     where $art/fm/au = $a/name and $art/fm/yr > 1995
     return <pub> {$art/fm/atl}, {$art/bdy} </pub>}
</authorpubs>
"""


def _count_where_evaluations(monkeypatch, db) -> tuple[int, int]:
    """``(where evaluations, of which the join conjunct held)`` during one
    cold ``warm_view`` of the authors-join-articles view."""
    counts = {"where": 0, "joined": 0}
    eval_boolean = Evaluator._DISPATCH[BooleanExpr]
    eval_comparison = Evaluator._DISPATCH[Comparison]

    def counting_boolean(self, expr, env):
        counts["where"] += 1
        return eval_boolean(self, expr, env)

    def counting_comparison(self, expr, env):
        result = eval_comparison(self, expr, env)
        counts["joined"] += expr.op == "=" and result[0]
        return result

    with monkeypatch.context() as patch:
        patch.setitem(Evaluator._DISPATCH, BooleanExpr, counting_boolean)
        patch.setitem(Evaluator._DISPATCH, Comparison, counting_comparison)
        engine = KeywordSearchEngine(db)
        engine.warm_view(engine.define_view("pubs", _PUBS_VIEW))
    return counts["where"], counts["joined"]


def test_warm_view_evaluates_where_once_per_matching_pair(monkeypatch):
    db = generate_inex_database(INEXConfig(scale=2), include_side_documents=False)
    base = Evaluator(EvalContext(resolver=make_base_resolver(db)))
    authors = len(base.evaluate(parse_query(
        "fn:doc(authors.xml)/authors//author").body))
    articles = len(base.evaluate(parse_query(
        "fn:doc(articles.xml)/books//article[fm/yr > 1995]").body))

    planned, matching = _count_where_evaluations(monkeypatch, db)
    assert planned == matching > 0

    monkeypatch.setattr(Evaluator, "_plan_join", lambda self, expr, index: None)
    looped, matching_in_loop = _count_where_evaluations(monkeypatch, db)
    assert looped == authors * articles
    assert matching_in_loop == matching
    assert planned * 5 < looped
