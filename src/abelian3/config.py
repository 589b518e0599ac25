"""Runtime limits shared across the package."""

# Largest group order whose element sets are built (enumerate --elements,
# verify and the oracle). A set is one bit per element, and the oracle walks
# lattices by translating such masks, so cost grows with the order: accepted
# --elements groups of order 4096 take 0.2-0.5 s end to end (16^3 is the
# slowest), and verify's --max-order cap of 200 lies far below. A constant,
# so that no setting can turn a fast refusal into a hang or a MemoryError.
ELEMENT_BOUND = 4096
