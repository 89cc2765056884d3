"""Construction of subquery strings from ID paths and residual steps.

A subquery is pinned to an anchor node via its root-to-node ID path --
exactly the information invariant I2 guarantees a site to have for any
node it must contact (Section 3.4, "Sending a subquery") -- and goes on
with the residual steps of the original query's AST.  The text is
joined from the path's ids and the steps' own unparsed node tests and
predicates, never by string surgery on the query: it is what
``LocationPath(absolute=True, steps=...).unparse()`` writes for those
steps, each pinned by an ``@id = '...'`` predicate, without building
them.
"""


def _quoted(value):
    """*value* as an XPath string literal (``Literal.unparse``)."""
    return f"'{value}'" if "'" not in value else f'"{value}"'


def _predicates(predicates):
    return "".join(f"[{predicate.unparse()}]" for predicate in predicates)


def render_id_path_query(id_path, extra_predicates=()):
    """An absolute query selecting exactly the node at *id_path*; the
    *extra_predicates* attach to its last step.

    The answer to this query is the node's whole subtree -- the
    "fetch all the data under that block" subquery of Section 4.
    """
    text = "".join(f"/{tag}[@id = {_quoted(identifier)}]"
                   for tag, identifier in id_path)
    return text + _predicates(extra_predicates)


def render_residual_tail(anchor_extra_predicates, residual_items,
                         descendant_gap=False):
    """What a residual subquery adds after its anchor's id path: the
    anchor step's *anchor_extra_predicates*, then the *residual_items*
    (see :mod:`repro.core.qeg`), each a child step with its predicates
    after ``/``, or ``//`` when the item is a descendant step or the
    first one and *descendant_gap* is set."""
    parts = [_predicates(anchor_extra_predicates)]
    for index, item in enumerate(residual_items):
        parts.append("//" if item.descendant or (descendant_gap and index == 0)
                     else "/")
        parts.append(item.node_test.unparse())
        parts.append(_predicates(item.step.predicates))
    return "".join(parts)


def render_residual_query(anchor_id_path, anchor_extra_predicates,
                          residual_items, descendant_gap=False):
    """The subquery for continuing a partially evaluated query.

    ``anchor_id_path`` pins the node where local evaluation stopped;
    ``anchor_extra_predicates`` re-attach the predicates of the
    anchor's own step that could not be (or must be re-) evaluated
    locally; ``residual_items`` are the remaining pattern items (see
    :mod:`repro.core.qeg`); ``descendant_gap`` inserts ``//`` between
    the anchor and the first residual item, used when evaluation
    stopped while scanning for a descendant match.
    """
    return render_id_path_query(anchor_id_path) + render_residual_tail(
        anchor_extra_predicates, residual_items, descendant_gap)
