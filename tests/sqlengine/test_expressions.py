"""Expression evaluation tests (driven through SELECT without FROM)."""

import pytest

from repro.sqlengine import Engine, TypeError_, generic


@pytest.fixture
def c():
    engine = Engine("expr", dialect=generic(), seed=1)
    engine.create_database("d")
    connection = engine.connect(database="d")
    yield connection
    connection.close()


def scalar(c, expr, params=None):
    return c.execute(f"SELECT {expr}", params).scalar()


def test_arithmetic(c):
    assert scalar(c, "1 + 2 * 3") == 7
    assert scalar(c, "(1 + 2) * 3") == 9
    assert scalar(c, "10 / 4") == 2.5
    assert scalar(c, "10 / 5") == 2
    assert scalar(c, "10 % 3") == 1
    assert scalar(c, "-5 + 2") == -3


def test_division_by_zero_is_null(c):
    assert scalar(c, "1 / 0") is None
    assert scalar(c, "1 % 0") is None


def test_comparisons(c):
    assert scalar(c, "1 < 2") is True
    assert scalar(c, "2 <= 2") is True
    assert scalar(c, "3 > 4") is False
    assert scalar(c, "1 = 1.0") is True
    assert scalar(c, "1 <> 2") is True


def test_null_propagation(c):
    assert scalar(c, "NULL + 1") is None
    assert scalar(c, "NULL = NULL") is None
    assert scalar(c, "NULL < 5") is None


def test_three_valued_logic(c):
    assert scalar(c, "NULL AND FALSE") is False
    assert scalar(c, "NULL AND TRUE") is None
    assert scalar(c, "NULL OR TRUE") is True
    assert scalar(c, "NULL OR FALSE") is None
    assert scalar(c, "NOT NULL") is None


def test_string_concat(c):
    assert scalar(c, "'a' || 'b'") == "ab"
    assert scalar(c, "CONCAT('x', 'y', 'z')") == "xyz"
    assert scalar(c, "'a' || NULL") is None


def test_like_patterns(c):
    assert scalar(c, "'hello' LIKE 'h%'") is True
    assert scalar(c, "'hello' LIKE 'h_llo'") is True
    assert scalar(c, "'hello' LIKE 'H%'") is False
    assert scalar(c, "'hello' NOT LIKE 'z%'") is True


def test_between(c):
    assert scalar(c, "5 BETWEEN 1 AND 10") is True
    assert scalar(c, "0 BETWEEN 1 AND 10") is False
    assert scalar(c, "5 NOT BETWEEN 1 AND 10") is False


def test_in_list(c):
    assert scalar(c, "2 IN (1, 2, 3)") is True
    assert scalar(c, "9 IN (1, 2, 3)") is False
    assert scalar(c, "9 NOT IN (1, 2, 3)") is True
    # NULL member makes a non-match unknown
    assert scalar(c, "9 IN (1, NULL)") is None


def test_is_null(c):
    assert scalar(c, "NULL IS NULL") is True
    assert scalar(c, "1 IS NOT NULL") is True


def test_case_expression(c):
    assert scalar(c, "CASE WHEN 1 > 0 THEN 'yes' ELSE 'no' END") == "yes"
    assert scalar(c, "CASE WHEN 1 < 0 THEN 'yes' END") is None


def test_scalar_functions(c):
    assert scalar(c, "UPPER('abc')") == "ABC"
    assert scalar(c, "LOWER('ABC')") == "abc"
    assert scalar(c, "LENGTH('abcd')") == 4
    assert scalar(c, "ABS(-7)") == 7
    assert scalar(c, "MOD(10, 3)") == 1
    assert scalar(c, "COALESCE(NULL, NULL, 5)") == 5
    assert scalar(c, "NULLIF(3, 3)") is None
    assert scalar(c, "SUBSTR('hello', 2, 3)") == "ell"
    assert scalar(c, "ROUND(3.456, 1)") == 3.5
    assert scalar(c, "FLOOR(3.7)") == 3
    assert scalar(c, "CEIL(3.2)") == 4
    assert scalar(c, "GREATEST(1, 5, 3)") == 5
    assert scalar(c, "LEAST(1, 5, 3)") == 1


def test_nondeterministic_functions_exist(c):
    value = scalar(c, "RAND()")
    assert 0.0 <= value < 1.0
    assert scalar(c, "NOW()") is not None


def test_rand_differs_between_engines():
    a = Engine("ea", seed=1).__class__  # noqa: F841 — just engines below
    e1 = Engine("e1", seed=1)
    e2 = Engine("e2", seed=2)
    e1.create_database("d")
    e2.create_database("d")
    v1 = e1.connect(database="d").execute("SELECT RAND()").scalar()
    v2 = e2.connect(database="d").execute("SELECT RAND()").scalar()
    assert v1 != v2  # the section 4.3.2 hazard in miniature


def test_user_function_returns_session_user(c):
    assert scalar(c, "USER()") == "admin"


def test_unknown_function_raises(c):
    from repro.sqlengine import NameError_
    with pytest.raises(NameError_):
        scalar(c, "FROBNICATE(1)")


def test_param_binding(c):
    assert c.execute("SELECT ? + ?", [2, 3]).scalar() == 5


def test_missing_param_raises(c):
    with pytest.raises(TypeError_):
        c.execute("SELECT ?", [])


def test_string_number_comparison_permissive(c):
    assert scalar(c, "'5' = 5") is True
    assert scalar(c, "'abc' = 5") is False


def test_dispatch_table_declares_every_expression_class():
    from repro.sqlengine import ast_nodes as ast
    from repro.sqlengine.expressions import (
        _DISPATCH, EvalContext, evaluate,
    )

    def concrete(cls):
        found = set()
        for sub in cls.__subclasses__():
            found |= {sub} | concrete(sub)
        return found

    assert set(_DISPATCH) == concrete(ast.Expression)

    class Undeclared(ast.Literal):
        __slots__ = ()

    # no fallback walks the class hierarchy: a node the table does not
    # name is not evaluable, even when it subclasses one that is
    with pytest.raises(TypeError_, match="cannot evaluate"):
        evaluate(Undeclared(1), EvalContext(None, None))
