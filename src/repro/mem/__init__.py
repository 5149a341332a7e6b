"""Memory primitives: simulated address space, the tag array, and
fully-associative shadow tags for miss classification."""

from repro.mem.address import AddressSpace, Segment
from repro.mem.shadow import ShadowTags
from repro.mem.soa import LineArray

__all__ = ["AddressSpace", "Segment", "LineArray", "ShadowTags"]
