"""Reproduction of "Cache-and-Query for Wide Area Sensor Databases".

This package is a from-scratch, pure-Python reproduction of the IrisNet
query-processing system described in:

    Amol Deshpande, Suman Nath, Phillip B. Gibbons, Srinivasan Seshan.
    "Cache-and-Query for Wide Area Sensor Databases". SIGMOD 2003.

The package layout mirrors the system inventory in ``DESIGN.md``:

``repro.xmlkit``
    XML data model, parser, serializer, unordered comparison and merging.
``repro.xpath``
    An XPath 1.0 engine restricted to the unordered fragment of the
    language, plus the query-analysis passes the paper relies on
    (ID-path extraction, nesting depth, predicate splitting).
``repro.core``
    The paper's primary contribution: hierarchical fragmentation with
    IDable nodes, storage/cache invariants, status tags, the QEG
    algorithm (a query compiled once per shape, then walked over the
    fragment), partial-match caching, query-based consistency and
    ownership migration.
``repro.net``
    The distributed substrate: DNS-style name service, message
    transport, organizing agents (OAs), sensing agents (SAs) and
    cluster assembly, plus a TCP runtime over real sockets.
``repro.sim``
    A discrete-event simulator with a calibrated cost model used to
    regenerate the paper's cluster experiments (Figures 7-11).
``repro.service``
    The Parking Space Finder application: database generator, update
    streams, query workloads QW-1..QW-4, QW-Mix and skewed variants.
``repro.arch``
    The four architectures of Figure 6 and the balanced placements used
    in the load-balancing experiments.

The most commonly used names are re-exported lazily at the top level,
so ``import repro`` stays cheap and subpackages remain independently
importable.
"""

__version__ = "1.0.0"

_EXPORTS = {
    "Element": ("repro.xmlkit", "Element"),
    "parse_document": ("repro.xmlkit", "parse_document"),
    "parse_fragment": ("repro.xmlkit", "parse_fragment"),
    "serialize": ("repro.xmlkit", "serialize"),
    "XPathQuery": ("repro.xpath", "XPathQuery"),
    "compile_xpath": ("repro.xpath", "compile_xpath"),
    "evaluate_xpath": ("repro.xpath", "evaluate_xpath"),
    "SensorDatabase": ("repro.core", "SensorDatabase"),
    "Status": ("repro.core", "Status"),
    "local_information": ("repro.core", "local_information"),
    "local_id_information": ("repro.core", "local_id_information"),
    "HierarchySchema": ("repro.core", "HierarchySchema"),
    "Cluster": ("repro.net", "Cluster"),
    "OrganizingAgent": ("repro.net", "OrganizingAgent"),
    "SensingAgent": ("repro.net", "SensingAgent"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return __all__
