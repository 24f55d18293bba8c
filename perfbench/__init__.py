"""The repository benchmark: simulated cycles per host second on four
workloads, with a traced per-layer split of host time (see README.md)."""
