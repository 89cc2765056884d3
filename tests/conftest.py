"""Shared fixtures: paper-figure documents and small deployments."""

import pytest

from repro.core import HierarchySchema, PartitionPlan
from repro.core.invariants import dns_ownership_violations
from repro.net import Cluster
from repro.xmlkit import Element, parse_fragment
from repro.xmlkit.nodes import NO_ATTRS, NO_KIDS

#: The document of the paper's Figures 3/4, extended with a second
#: neighborhood and city so multi-site scenarios are interesting.
PAPER_DOCUMENT = """
<usRegion id='NE'>
  <state id='PA'>
    <county id='Allegheny'>
      <city id='Pittsburgh'>
        <neighborhood id='Oakland' zipcode='15213'>
          <available-spaces>8</available-spaces>
          <block id='1'>
            <parkingSpace id='1'>
              <available>yes</available><price>25</price>
            </parkingSpace>
            <parkingSpace id='2'>
              <available>no</available><price>0</price>
            </parkingSpace>
          </block>
          <block id='2'>
            <parkingSpace id='1'>
              <available>yes</available><price>0</price>
            </parkingSpace>
          </block>
        </neighborhood>
        <neighborhood id='Shadyside' zipcode='15232'>
          <available-spaces>3</available-spaces>
          <block id='1'>
            <parkingSpace id='1'>
              <available>yes</available><price>50</price>
            </parkingSpace>
            <parkingSpace id='2'>
              <available>yes</available><price>25</price>
            </parkingSpace>
          </block>
        </neighborhood>
      </city>
      <city id='Etna'>
        <neighborhood id='Riverfront' zipcode='15223'>
          <available-spaces>1</available-spaces>
          <block id='1'>
            <parkingSpace id='1'>
              <available>no</available><price>25</price>
            </parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>
"""

FIGURE2_QUERY = (
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']"
    "/city[@id='Pittsburgh']"
    "/neighborhood[@id='Oakland' or @id='Shadyside']"
    "/block[@id='1']/parkingSpace[available='yes']"
)


def owners_follow_dns(cluster):
    """Violations of the ownership invariant: every live site owns
    exactly the paths DNS names it for."""
    return dns_ownership_violations(
        {site: agent.database for site, agent in cluster.agents.items()},
        cluster.dns.authoritative_site)


def id_path(spec):
    """``'usRegion=NE/state=PA'`` -> ``(('usRegion','NE'), ('state','PA'))``."""
    return tuple(tuple(entry.split("=", 1)) for entry in spec.split("/"))


PITTSBURGH = id_path(
    "usRegion=NE/state=PA/county=Allegheny/city=Pittsburgh")
OAKLAND = PITTSBURGH + (("neighborhood", "Oakland"),)
SHADYSIDE = PITTSBURGH + (("neighborhood", "Shadyside"),)
ETNA = id_path("usRegion=NE/state=PA/county=Allegheny/city=Etna")


def three_site_document(value=lambda group, sensor: 0):
    """``region R`` > ``group g0, g1`` > ``sensor s0..s2`` > ``value``."""
    root = Element("region", attrib={"id": "R"})
    for group_index in range(2):
        group = Element("group", attrib={"id": f"g{group_index}"})
        root.append(group)
        for sensor_index in range(3):
            sensor = Element("sensor", attrib={"id": f"s{sensor_index}"})
            sensor.append(Element(
                "value", text=str(value(group_index, sensor_index))))
            group.append(sensor)
    return root


def three_site_plan():
    """``top`` owns the region, ``mid`` group ``g0``, ``leaf`` ``g1``."""
    return PartitionPlan({
        "top": [(("region", "R"),)],
        "mid": [(("region", "R"), ("group", "g0"))],
        "leaf": [(("region", "R"), ("group", "g1"))],
    })


G0_S1 = (("region", "R"), ("group", "g0"), ("sensor", "s1"))


@pytest.fixture(autouse=True)
def shared_empties_stay_empty():
    """Every childless element holds ``NO_KIDS`` and every attribute-less
    one ``NO_ATTRS``: a test that leaves either filled (a bypass of its
    refusing mutators, such as ``list.append(leaf.children, x)``) fails
    here, and the empties are emptied again for the next test."""
    yield
    filled = [repr(shared) for shared in (NO_KIDS, NO_ATTRS) if shared]
    list.clear(NO_KIDS)
    dict.clear(NO_ATTRS)
    assert not filled, f"a shared empty was filled: {filled}"


@pytest.fixture
def paper_doc():
    """A fresh copy of the paper's example document."""
    return parse_fragment(PAPER_DOCUMENT)


@pytest.fixture
def paper_schema(paper_doc):
    return HierarchySchema.from_document(paper_doc)


@pytest.fixture
def paper_plan():
    """Top / Oakland / Shadyside / Etna on four sites."""
    return PartitionPlan({
        "top": [id_path("usRegion=NE")],
        "oak": [OAKLAND],
        "shady": [SHADYSIDE],
        "etna": [ETNA],
    })


@pytest.fixture
def paper_cluster(paper_doc, paper_plan):
    """A four-site cluster over the paper document."""
    return Cluster(paper_doc, paper_plan)


@pytest.fixture
def settable_clock():
    """A controllable clock: ``clock.now`` is mutable."""

    class _Clock:
        def __init__(self):
            self.now = 1000.0

        def __call__(self):
            return self.now

        def advance(self, seconds):
            self.now += seconds

    return _Clock()
