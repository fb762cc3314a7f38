"""Dynamo: the data center-wide power management system (the paper's core).

Components mirror Section III:

* :class:`~repro.core.agent.DynamoAgent` — per-server daemon answering
  power-read and cap/uncap requests (Figure 8).
* :class:`~repro.core.leaf_controller.LeafPowerController` — per-leaf-device
  controller: 3 s power pulls, aggregation with failure estimation, the
  three-band algorithm (Figure 10), and performance-aware capping via
  priority groups and high-bucket-first allocation.
* :class:`~repro.core.upper_controller.UpperLevelPowerController` —
  per-upper-device controller: 9 s pulls from child controllers and
  punish-offender-first coordination through contractual power limits.
* :class:`~repro.core.dynamo.Dynamo` — the facade that attaches the whole
  controller hierarchy to a datacenter and runs it.

Both controller flavours share one control cycle: the
sense → aggregate → decide → actuate template owned by
:class:`~repro.core.controller.BaseController`, with per-tick
:class:`~repro.telemetry.tracing.TickTrace` records emitted into the
deployment-wide trace buffer.
"""
