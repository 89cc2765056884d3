"""Construction of subquery strings from ID paths and residual steps.

Subqueries are rebuilt from the original query's AST (never by string
surgery), pinned to an anchor node via its root-to-node ID path --
exactly the information invariant I2 guarantees a site to have for any
node it must contact (Section 3.4, "Sending a subquery").
"""

from repro.xpath.ast import (
    BinaryOperation,
    Literal,
    LocationPath,
    NameTest,
    Step,
)


def id_pin_predicate(identifier):
    """The ``@id = '...'`` predicate pinning one id value."""
    return BinaryOperation(
        "=",
        LocationPath(absolute=False,
                     steps=[Step("attribute", NameTest("id"))]),
        Literal(identifier),
    )


def id_path_steps(id_path, last_extra_predicates=()):
    """AST steps for an ID path, each pinned by an id predicate.

    *last_extra_predicates* are appended to the final step -- used to
    re-attach the residual (non-id) predicates of the step that matched
    the anchor node.
    """
    steps = []
    entries = list(id_path)
    for index, (tag, identifier) in enumerate(entries):
        predicates = [id_pin_predicate(identifier)]
        if index == len(entries) - 1:
            predicates.extend(last_extra_predicates)
        steps.append(Step("child", NameTest(tag), predicates))
    return steps


def render_id_path_query(id_path, extra_predicates=()):
    """An absolute query selecting exactly the node at *id_path*.

    The answer to this query is the node's whole subtree -- the
    "fetch all the data under that block" subquery of Section 4.
    """
    path = LocationPath(absolute=True,
                        steps=id_path_steps(id_path, extra_predicates))
    return path.unparse()


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
    steps = id_path_steps(anchor_id_path, anchor_extra_predicates)
    for index, item in enumerate(residual_items):
        if item.descendant or (descendant_gap and index == 0):
            steps.append(_descendant_gap_step())
        steps.append(Step("child", item.step.node_test,
                          list(item.step.predicates)))
    path = LocationPath(absolute=True, steps=steps)
    return path.unparse()


def _descendant_gap_step():
    from repro.xpath.ast import NodeTypeTest

    return Step("descendant-or-self", NodeTypeTest("node"))
