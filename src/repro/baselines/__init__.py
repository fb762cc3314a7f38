"""Baseline power-management strategies Dynamo is compared against.

* :class:`UncontrolledBaseline` — no power management at all; quantifies
  trip exposure under surges (what Dynamo's 18 prevented outages would
  have been).
* :class:`StaticFrequencyCap` — the pre-Dynamo search-cluster approach:
  clamp every server so *worst-case* aggregate peak fits the budget,
  permanently sacrificing performance (Section IV-D).
* :class:`LeafOnlyCapping` — leaf controllers without upper-level
  coordination, the strawman that fails when power is oversubscribed
  above the leaf level (all RPPs within limits, SB still over).
"""
