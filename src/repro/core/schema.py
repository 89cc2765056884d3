"""Hierarchy schema: which element names are IDable, and their nesting.

The paper's analyses (nesting depth, the query compiler's IDable steps)
need to know which *element names* denote IDable nodes.  A schema can be declared
explicitly by a service or derived from a sample document.

This also supports the schema-evolution story of Section 4: attributes
and non-IDable content can change freely (no schema involvement), and
IDable tags can be registered or retired at runtime.
"""

from repro.core.idable import idable_children, iter_idable
from repro.core.lru import LRUCache

#: Compiled query patterns (and their shape templates) a schema keeps.
PATTERN_CACHE_ENTRIES = 256


class HierarchySchema:
    """Knowledge of the IDable hierarchy of a service's document.

    ``parent_to_children`` maps an IDable element name to the set of
    IDable element names that may appear as its children.

    ``compiled_patterns`` is this schema's compile memo: one bounded
    LRU of compiled query patterns and the shape templates they are
    bound from (see :func:`repro.core.qeg.compile_pattern`).  It is
    cleared whenever the IDable tag set changes, since that knowledge
    is baked into both.
    """

    def __init__(self, root_tag, parent_to_children=None):
        self.root_tag = root_tag
        self._children = {root_tag: set()}
        self.compiled_patterns = LRUCache(max_entries=PATTERN_CACHE_ENTRIES)
        if parent_to_children:
            for parent, children in parent_to_children.items():
                self._children.setdefault(parent, set()).update(children)
                for child in children:
                    self._children.setdefault(child, set())

    # ------------------------------------------------------------------
    @classmethod
    def from_document(cls, root):
        """Derive the schema from a sample (fully materialized) document."""
        schema = cls(root.tag)
        for element in iter_idable(root):
            for child in idable_children(element):
                schema.register_child(element.tag, child.tag)
        return schema

    # ------------------------------------------------------------------
    def register_child(self, parent_tag, child_tag):
        """Declare that *child_tag* IDable nodes may nest under *parent_tag*."""
        if child_tag not in self._children or \
                child_tag not in self._children.get(parent_tag, ()):
            self.compiled_patterns.clear()
        self._children.setdefault(parent_tag, set()).add(child_tag)
        self._children.setdefault(child_tag, set())

    def retire(self, tag):
        """Remove an IDable element name from the schema."""
        self.compiled_patterns.clear()
        self._children.pop(tag, None)
        for children in self._children.values():
            children.discard(tag)

    # ------------------------------------------------------------------
    @property
    def idable_tags(self):
        """The set of IDable element names."""
        return frozenset(self._children)

    def is_idable_tag(self, tag):
        """Whether *tag* names IDable nodes."""
        return tag in self._children

    def children_of(self, tag):
        """IDable child element names of *tag*."""
        return frozenset(self._children.get(tag, ()))

    def __repr__(self):
        return (
            f"HierarchySchema(root={self.root_tag!r}, "
            f"tags={sorted(self._children)})"
        )
