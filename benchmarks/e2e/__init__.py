"""End-to-end benchmark: HTM simulator speed, decision-service latency
and quick-batch time, with a traced per-layer split (see README.md)."""
