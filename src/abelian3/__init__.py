"""Subgroup enumeration, counting, and symbolic analysis for finite abelian
groups of rank at most three.

The package re-exports nothing: import the module you need (arith, rank3,
typecounts, asymptotics, oracle, rank2), so that each command loads only
what it uses."""

__version__ = "0.1.0"
