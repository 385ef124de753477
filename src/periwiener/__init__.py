"""Distance-based topological indices of connected graphs, centered on the
peripheral hyper-Wiener index, plus a self-auditing registry that checks
every registered closed form and bound against brute-force oracles."""
