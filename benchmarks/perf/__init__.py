"""The repo's one benchmark harness (see README.md in this directory).

Four workloads — ``steady10k``, ``capping100k``, ``fig12_outage``,
``serve_ops`` — each measured in an untraced pass (end-to-end metrics)
and a traced pass (per-layer self times), with correctness checks on
every invocation.  ``BENCHMARK.json`` at the repo root declares the
command, the workloads and every metric; this package reads it rather
than repeating it.
"""
