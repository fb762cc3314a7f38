"""Discrete-event simulation substrate.

The simulation engine drives everything in the reproduction: workloads
update server utilization, agents answer power reads, controllers pull and
cap on their cycles, and breakers integrate thermal overdraw — all as
scheduled events against a single virtual clock.
"""
