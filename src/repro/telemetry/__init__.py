"""Monitoring substrate: time series, samplers, and variation analysis.

The paper's characterization (Section II-B) rests on fine-grained power
samples: 3 s readings for every server in a 30 K-server suite over six
months.  This package provides the storage (:class:`TimeSeries`), the
collection (:class:`PowerSampler`), and the analysis — the windowed
max-minus-min *power variation* metric of Figure 4 and the CDF machinery
behind Figures 5 and 6 — plus the alerting sink controllers raise
human-intervention alarms into, and the per-tick control-cycle trace
ring (:class:`TraceBuffer` of :class:`TickTrace` records) every
controller's sense → aggregate → decide → actuate pipeline feeds.
"""
