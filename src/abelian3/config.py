"""Runtime limits shared across the package."""

# Largest group order whose element sets are built (enumerate --elements,
# verify and the oracle). A set is one bit per element, and the oracle walks
# lattices by translating such masks, so cost grows with the order: 16^3 is the
# slowest accepted --elements group, whose rows in ci/test_ci.py hold its
# timeout, and verify's --max-order cap of 200 lies far below. A constant,
# so that no setting can turn a fast refusal into a hang or a MemoryError.
ELEMENT_BOUND = 4096
