"""Table-driven XPath 1.0 conformance battery (unordered fragment).

Each case is evaluated against a fixed reference document and compared
to a hand-computed expectation, covering the function library and
operator semantics case by case.
"""

import math

import pytest

from repro.xmlkit import parse_fragment
from repro.xpath import compile_xpath

DOCUMENT = """
<library id='L' open='yes'>
  <shelf id='s1' floor='1'>
    <book id='b1' year='1999'><title>Alpha</title><pages>100</pages></book>
    <book id='b2' year='2003'><title>Beta</title><pages>250</pages></book>
    <empty-note></empty-note>
  </shelf>
  <shelf id='s2' floor='2'>
    <book id='b3' year='2003'><title>Gamma</title><pages>50</pages></book>
  </shelf>
  <motto>  read   more  </motto>
</library>
"""


@pytest.fixture(scope="module")
def doc():
    return parse_fragment(DOCUMENT)


# (query, expected) where expected is a scalar, or a sorted list of
# selected element/attribute identities rendered as strings.
SCALAR_CASES = [
    # Node-set cardinalities
    ("count(//book)", 3.0),
    ("count(/library/shelf)", 2.0),
    ("count(//book[@year='2003'])", 2.0),
    ("count(//book/ancestor::shelf)", 2.0),
    ("count(//book/ancestor-or-self::*)", 6.0),  # 3 books + 2 shelves + library
    ("count(//@floor)", 2.0),
    ("count(//*)", 14.0),
    ("count(/library/motto/text())", 1.0),
    # Booleans
    ("boolean(//book)", True),
    ("boolean(//dvd)", False),
    ("count(//book[title]) = 3", True),
    ("//book/pages > 200", True),
    ("//book/pages < 40", False),
    ("//book/@year = '1999'", True),
    ("//book/@year != '1999'", True),  # existential over 3 books
    ("not(//book[@year='2050'])", True),
    ("true() and not(false())", True),
    ("1 < 2 and 2 < 3 or false()", True),
    # String functions
    ("string(//book[@id='b1']/title)", "Alpha"),
    ("string(//missing)", ""),
    ("concat('a', 1, true())", "a1true"),
    ("starts-with(string(//motto), 'read')", True),  # parser strips padding
    ("normalize-space(string(/library/motto))", "read more"),
    ("contains(string(//book[@id='b2']/title), 'et')", True),
    ("substring-before('2003-06-09', '-')", "2003"),
    ("substring-after('2003-06-09', '-')", "06-09"),
    ("substring('SIGMOD', 4)", "MOD"),
    ("substring('SIGMOD', 0, 3)", "SI"),
    ("string-length(string(//book[@id='b3']/title))", 5.0),
    ("translate('sigmod', 'dgimos', 'DGIMOS')", "SIGMOD"),
    ("string(123.5)", "123.5"),
    ("string(8)", "8"),
    # Numbers
    ("number('12')", 12.0),
    ("number(true())", 1.0),
    ("sum(//book/pages)", 400.0),
    ("sum(//book/@year)", 6005.0),
    ("floor(-1.5)", -2.0),
    ("ceiling(-1.5)", -1.0),
    ("round(0.5)", 1.0),
    ("round(-0.5)", -0.0),
    ("round(2.4)", 2.0),
    ("3 * 4 + 2", 14.0),
    ("3 + 4 * 2", 11.0),
    ("(3 + 4) * 2", 14.0),
    ("9 mod 4", 1.0),
    ("-9 mod 4", -1.0),
    ("9 div 4", 2.25),
    # IEEE 754 division: the sign of a zero divisor counts.
    ("1 div 0", math.inf),
    ("1 div -0", -math.inf),
    ("-1 div -0", math.inf),
    ("number(//book[@id='b1']/pages) + 1", 101.0),
    # Names
    ("name(/library)", "library"),
    ("local-name(//shelf[@id='s2'])", "shelf"),
    ("name(//@floor)", "floor"),
    # Comparisons between node-sets
    ("//book/pages = //book/@year", False),
    ("//shelf/@floor = '2'", True),
    ("count(//book[pages > 75]) = 2", True),
]


@pytest.mark.parametrize("query,expected", SCALAR_CASES,
                         ids=[c[0] for c in SCALAR_CASES])
def test_scalar_conformance(doc, query, expected):
    value = compile_xpath(query).evaluate(doc)
    if isinstance(expected, float):
        assert isinstance(value, float)
        assert value == pytest.approx(expected)
    else:
        assert value == expected


SELECTION_CASES = [
    ("/library/shelf/book", ["b1", "b2", "b3"]),
    ("//book[@year='2003']", ["b2", "b3"]),
    ("//shelf[book/@year='1999']", ["s1"]),
    ("//book[pages >= 100][pages <= 250]", ["b1", "b2"]),
    ("//book[not(pages > 99)]", ["b3"]),
    ("//shelf[@floor='2']/book", ["b3"]),
    ("//book[../@floor='1']", ["b1", "b2"]),
    ("//book[title='Gamma' or title='Alpha']", ["b1", "b3"]),
    ("/library/*[@floor]", ["s1", "s2"]),
    ("//book[string-length(title) = 4]", ["b2"]),
    ("//book[contains(title, 'a')]", ["b1", "b2", "b3"]),
    ("//book[count(../book) = 2]", ["b1", "b2"]),
    ("//book[../../@open='yes']", ["b1", "b2", "b3"]),
    ("//shelf[count(book[pages > 75]) = 2]", ["s1"]),
    ("//book[pages mod 50 = 0]", ["b1", "b2", "b3"]),
    ("//book[sum(../book/pages) > 300]", ["b1", "b2"]),
    ("/library/shelf[2 > 1]/book[@id='b3']", ["b3"]),
    ("//book[@id='b1']/following-none | //book[@id='b1']", ["b1"]),
]


@pytest.mark.parametrize("query,expected", SELECTION_CASES,
                         ids=[c[0] for c in SELECTION_CASES])
def test_selection_conformance(doc, query, expected):
    result = compile_xpath(query).select(doc)
    assert sorted(n.id for n in result) == expected


NAN_CASES = [
    "number('abc')",
    "number(//missing)",
    "sum(//book/title) + 0",  # titles are not numbers
    "0 div 0",
    "0 mod 0",
]


@pytest.mark.parametrize("query", NAN_CASES)
def test_nan_conformance(doc, query):
    assert math.isnan(compile_xpath(query).evaluate(doc))


#: XPath 1.0 section 4.4: number() reads an optional minus and a Number
#: (digits with an optional fraction, or a fraction) between whitespace.
#: An exponent, a plus sign, an infinity spelling or a ``_`` separator is
#: not a number.
STRICT_NAN_CASES = [
    "number('1e3')",
    "number('+5')",
    "number('inf')",
    "number('Infinity')",
    "number('-Infinity')",
    "number('1_000')",
    "number('.')",
    "number('0x10')",
    "number(' 1 2 ')",
]


@pytest.mark.parametrize("query", STRICT_NAN_CASES)
def test_number_refuses_what_section_4_4_does_not_spell(doc, query):
    assert math.isnan(compile_xpath(query).evaluate(doc))


@pytest.mark.parametrize("query,expected", [
    ("number(' 12 ')", 12.0),
    ("number('-.5')", -0.5),
    ("number('5.')", 5.0),
    ("number('\t7\n')", 7.0),
])
def test_number_reads_the_section_4_4_spellings(doc, query, expected):
    assert compile_xpath(query).evaluate(doc) == expected


def test_a_separated_value_is_not_greater_than_a_number():
    element = parse_fragment("<s><n v='1_000'/><n v='1e3'/><n v='1000'/></s>")
    assert [n.get("v") for n in compile_xpath("n[@v > 999]").select(element)] \
        == ["1000"]


@pytest.mark.parametrize("query,expected", [
    ("string(0.00001)", "0.00001"),
    ("string(0.0000000123)", "0.0000000123"),
    ("string(-0.000125)", "-0.000125"),
])
def test_string_of_a_number_has_no_exponent(doc, query, expected):
    # Section 4.2: decimal form, so number(string(x)) reads x back.
    assert compile_xpath(query).evaluate(doc) == expected
    assert compile_xpath(f"number({query})").evaluate(doc) == \
        float(expected)


@pytest.mark.parametrize("stamp", ["1e-05", "2e+16", "0.5"])
def test_timestamp_reads_the_system_written_stamp(stamp):
    # set_timestamp writes repr(float), an exponent included: timestamp()
    # reads it as the status code does, not as number() reads a value.
    element = parse_fragment(f"<s timestamp='{stamp}'><v>1</v></s>")
    fresh = compile_xpath("timestamp() > current-time() - 1")
    assert fresh.evaluate(element, now=0.5) is True
    assert compile_xpath("v[timestamp() > current-time() - 1]").select(
        element, now=0.5) == [element.children[0]]
